"""Print the lattice's public operations on seeded random draws.

Usage: PYTHONPATH=src python tools/lattice_draws.py

Each output line is one draw: its family, which names the operation,
its number in the family and the ``expr_str`` of the result.  The draws come from Python's own
``random.Random`` with fixed seeds, never from altia, so two revisions of
``altia.lattice`` see the same inputs and must print the same text.
``tools/cli_diff.py`` runs this script under both trees and compares its
output as it compares a command's.  The 2,000 draws are:

- ``config``: ``Config(...)`` of clause lists with repeated, nested and
  empty clauses over a few names (400);
- ``join``: ``join_all`` of 2-5 operands over disjoint, overlapping and
  identical pools, with top and bottom among them (400);
- ``chain``: ``meet_all`` of overlapping chains ``(x0|x1) & (x1|x2) & ...``
  of 2-12 factors, some with wider or longer links (300);
- ``product``: ``meet_all`` of disjoint operands with top and bottom put
  first, in the middle or last, and one operand overlapping an earlier
  one at its first, a middle or its last position (300);
- ``rename``: ``substitute`` whose targets are single clauses, injective
  and non-empty (an order embedding) or sharing names, top among them
  (300);
- ``wide``: ``substitute`` whose targets mix single clauses, wider
  configurations, top and bottom (300).
"""

from __future__ import annotations

import random

from altia.lattice import Config, bot, embed, expr_str, join_all, meet_all, substitute, top


def rand_config(rng: random.Random, pool: list[str], max_clauses: int = 4) -> Config:
    """A configuration over ``pool``: top or bottom one draw in ten each,
    else up to ``max_clauses`` clauses of 1-3 names."""
    roll = rng.randrange(10)
    if roll < 2:
        return (top(), bot())[roll]
    clauses = [rng.sample(pool, rng.randint(1, min(3, len(pool))))
               for _ in range(rng.randint(1, max_clauses))]
    return Config(clauses)


def configs(rng: random.Random):
    names = [f"c{i}" for i in range(6)]
    for _ in range(400):
        clauses = [rng.sample(names, rng.randint(0 if rng.randrange(8) == 0 else 1, 4))
                   for _ in range(rng.randint(0, 7))]
        clauses += [c[:rng.randint(0, len(c))] for c in clauses if rng.randrange(3) == 0]
        yield "config", Config(clauses)


def joins(rng: random.Random):
    names = [f"j{i}" for i in range(8)]
    for n in range(400):
        k = rng.randint(2, 5)
        if n % 3 == 0:  # disjoint pools
            pools = [[f"d{i}{w}" for w in range(3)] for i in range(k)]
        elif n % 3 == 1:  # overlapping pools
            pools = [names[i:i + 3] for i in range(k)]
        else:  # one pool
            pools = [names[:3]] * k
        yield "join", join_all([rand_config(rng, pool) for pool in pools])


def chains(rng: random.Random):
    for _ in range(300):
        length, links = rng.randint(2, 12), []
        for i in range(length):
            clauses = [[f"x{i}"], [f"x{i + 1}"]]
            if rng.randrange(3) == 0:  # a longer link
                clauses[1].append(f"x{i + 2}")
            if rng.randrange(4) == 0:  # a wider link
                clauses.append([f"y{i}"])
            links.append(Config(clauses))
        yield "chain", meet_all(links)


def products(rng: random.Random):
    for n in range(300):
        k = rng.randint(2, 7)
        ops = [Config([[f"p{i}w{w}"] for w in range(rng.randint(1, 3))]) for i in range(k)]
        where = (0, k // 2, k)[n % 3]
        kind = (n // 3) % 3
        if kind == 0:  # top or bottom first, in the middle or last
            ops.insert(where, top() if rng.randrange(2) else bot())
        elif kind == 1:  # one operand overlapping an earlier one
            at = max(where, 1)
            ops.insert(at, Config([[f"p{rng.randrange(at)}w0"], [f"z{n}"]]))
        yield "product", meet_all(ops)


def renamings(rng: random.Random):
    gens = [f"q{i}" for i in range(6)]
    fresh = [f"r{i}" for i in range(12)]
    for n in range(300):
        e = meet_all([rand_config(rng, gens), rand_config(rng, gens)])
        order = rng.sample(fresh, len(fresh))
        f = {q: Config([order[2 * i:2 * i + 1 + rng.randrange(2)]]) for i, q in enumerate(gens)}
        if n % 3 == 1:  # two states sent onto one, or onto overlapping clauses
            f[gens[rng.randrange(3)]] = Config([[order[2 * (3 + rng.randrange(3))], "r_shared"]])
            f[gens[3 + rng.randrange(3)]] = Config([["r_shared"]])
        elif n % 3 == 2:
            f[rng.choice(gens)] = top()
        yield "rename", substitute(e, f)


def wide_targets(rng: random.Random):
    gens = [f"q{i}" for i in range(6)]
    images = gens + ["s1", "s2"]
    for _ in range(300):
        e = meet_all([rand_config(rng, gens), rand_config(rng, gens)])
        f = {}
        for q in gens:
            roll = rng.randrange(6)
            if roll == 0:
                f[q] = top()
            elif roll == 1:
                f[q] = bot()
            elif roll == 2:
                f[q] = embed(rng.choice(images))
            else:
                f[q] = rand_config(rng, images)
        yield "wide", substitute(e, f)


def main() -> None:
    families = (configs, joins, chains, products, renamings, wide_targets)
    for seed, family in enumerate(families):
        rng = random.Random(seed)
        for n, (name, value) in enumerate(family(rng)):
            print(f"{name} {n}: {expr_str(value)}")


if __name__ == "__main__":
    main()
