"""Seeded inputs for the benchmark, and an explorer kept apart from altia.

Everything here is drawn from ``random.Random`` seeded by the benchmark's
own seed, never from ``altia.rng`` or ``tests/oracles.py``, so a change to
the program or its tests cannot change what the benchmark feeds it.  Specs
are plain data (``SpecData``) until ``to_aia`` builds the program's
objects, so every round can hand the program fresh objects.

``MaskExplorer`` computes the reachable canonical configurations of a
spec with clauses as integer bit masks.  It shares no code with
``altia.lattice``: the benchmark uses it to fix the size make-up of each
batch (a band on the reachable-configuration count) and as an
independent count of ``det``'s states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from altia import AIA, Config

TOP = (frozenset(),)
BOT = ()


@dataclass(frozen=True)
class SpecData:
    """A spec as data: each target is a tuple of clauses (sets of names)."""

    states: tuple
    inputs: tuple
    outputs: tuple
    table: dict  # state -> label -> clauses
    init: tuple
    name: str


def rng_for(seed: int, *path) -> random.Random:
    """An independent stream per (seed, workload, round, ...) path."""
    return random.Random(repr((seed,) + path))


def rand_clauses(rng: random.Random, states, allow_bot: bool) -> tuple:
    """T one time in ten, F (when allowed) one in ten, else 1-3 clauses of 1-2 states."""
    roll = rng.randrange(10)
    if roll == 0:
        return TOP
    if roll == 1 and allow_bot:
        return BOT
    return tuple(
        frozenset(rng.choice(states) for _ in range(1 + rng.randrange(2)))
        for _ in range(1 + rng.randrange(3))
    )


def rand_spec(rng: random.Random, n_states: int, inputs, outputs, name: str) -> SpecData:
    """A random alternating spec with exactly ``n_states`` states and a
    single-state initial configuration (so ``check_deterministic`` has to
    search instead of answering from a compound initial)."""
    states = tuple(f"q{k}" for k in range(n_states))
    table = {
        q: {
            **{a: rand_clauses(rng, states, False) for a in inputs},
            **{x: rand_clauses(rng, states, True) for x in outputs},
        }
        for q in states
    }
    init = (frozenset((rng.choice(states),)),)
    return SpecData(states, tuple(inputs), tuple(outputs), table, init, name)


def renamed(d: SpecData, rng: random.Random) -> SpecData:
    """The same spec with its states renamed by a seeded permutation."""
    new = dict(zip(d.states, rng.sample(d.states, len(d.states))))

    def clauses(cl):
        return tuple(frozenset(new[q] for q in c) for c in cl)

    table = {new[q]: {l: clauses(cl) for l, cl in row.items()} for q, row in d.table.items()}
    return SpecData(d.states, d.inputs, d.outputs, table, clauses(d.init), d.name)


def to_aia(d: SpecData) -> AIA:
    trans = {q: {l: Config(cl) for l, cl in row.items()} for q, row in d.table.items()}
    return AIA(d.states, d.inputs, d.outputs, trans, Config(d.init), name=d.name)


def spec_text(d: SpecData) -> str:
    """The spec in altia's model file format (written by hand, not by altia.io)."""

    def expr(clauses):
        if clauses == TOP:
            return "T"
        if clauses == BOT:
            return "F"
        return " | ".join("&".join(sorted(c)) for c in clauses)

    lines = [
        f"aia {d.name}",
        "states " + " ".join(d.states),
        "inputs " + " ".join(d.inputs),
        "outputs " + " ".join(d.outputs),
        "init " + expr(d.init),
    ]
    for q in d.states:
        for a in d.inputs:
            lines.append(f"{q} ?{a} -> {expr(d.table[q][a])}")
        for x in d.outputs:
            lines.append(f"{q} !{x} -> {expr(d.table[q][x])}")
    return "\n".join(lines) + "\n"


class TooMany(Exception):
    pass


class MaskExplorer:
    """Reachable canonical configurations of a spec, clauses as bit masks.

    A configuration is a frozenset of masks kept as an antichain: ``{0}``
    is T (the empty clause) and the empty set is F.
    """

    def __init__(self, d: SpecData):
        self.d = d
        self.bit = {q: 1 << i for i, q in enumerate(d.states)}
        self.labels = list(d.inputs) + list(d.outputs)
        self.memo: dict = {}
        self.tgt = {
            l: [self.conf(d.table[q][l]) for q in d.states] for l in self.labels
        }

    def conf(self, clauses) -> frozenset:
        return _antichain({sum(self.bit[q] for q in c) for c in clauses})

    def step(self, cfg: frozenset, label: str) -> frozenset:
        out = set()
        for m in cfg:
            out |= self.image(m, label)
        return _antichain(out)

    def image(self, m: int, label: str) -> frozenset:
        """The meet of the targets of the states in clause ``m``."""
        key = (m, label)
        hit = self.memo.get(key)
        if hit is None:
            tgt = self.tgt[label]
            hit = frozenset((0,))
            i = 0
            while m and hit:
                if m & 1:
                    hit = _antichain({a | b for a in hit for b in tgt[i]})
                m >>= 1
                i += 1
            self.memo[key] = hit
        return hit

    def reachable(self, cap: int) -> dict:
        """config -> {label: successor} for every reachable config that is
        neither T nor F; raises ``TooMany`` past ``cap`` configurations."""
        start = self.conf(self.d.init)
        seen: dict = {}
        if _trivial(start):
            return seen
        todo = [start]
        seen[start] = None
        while todo:
            e = todo.pop()
            row = {l: self.step(e, l) for l in self.labels}
            seen[e] = row
            for t in row.values():
                if not _trivial(t) and t not in seen:
                    if len(seen) >= cap:
                        raise TooMany
                    seen[t] = None
                    todo.append(t)
        return seen


def _trivial(cfg: frozenset) -> bool:
    return not cfg or 0 in cfg


def _antichain(masks) -> frozenset:
    kept = []
    for m in sorted(masks, key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return frozenset(kept)


def spec_in_band(rng, n_states, inputs, outputs, band, tries: int, name: str,
                 draw_all: bool = False):
    """The first of ``tries`` draws whose reachable-configuration count lies
    in ``band``, else the draw that came closest; with its reachable table.

    The band fixes the size make-up of every batch, so runs with different
    seeds do comparable work.  With ``draw_all`` every draw is explored
    even after a hit, which gives the same spec at a cost that does not
    depend on where the first hit falls: set-up time, which includes
    making the first inputs, then hardly depends on the seed.  ``rng``
    should serve this call alone, so both ways leave it alike.
    """
    lo, hi = band
    best, best_dist = None, None
    for _ in range(tries):
        if best_dist == 0 and not draw_all:
            break
        d = rand_spec(rng, n_states, inputs, outputs, name)
        try:
            reach = MaskExplorer(d).reachable(hi)
        except TooMany:
            continue  # above the band; its count is not known
        dist = max(0, lo - len(reach))
        if best is None or dist < best_dist:
            best, best_dist = (d, reach), dist
    return best or spec_in_band(rng, n_states, inputs, outputs, band, tries, name, draw_all)
