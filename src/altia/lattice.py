"""Canonical configurations: the free distributive lattice over state names.

A configuration says in which states a system may or must be at the same
time: disjunction for the usual "one of these states" nondeterminism,
conjunction for "all of these views at once".  ``T`` (top) means the
behaviour is unconstrained from here on, ``F`` (bottom) that no behaviour
at all is allowed.

Every configuration is stored in one canonical form, irredundant
disjunctive normal form: a frozenset of clauses, each clause a frozenset
of state names.  A clause stands for the conjunction of its members, the
clause set for the disjunction of its clauses, and the set is kept as an
antichain (no clause contains another).  That form is unique per lattice
element, so ``==`` on clause sets decides lattice equality.  Clauses are
ordered (:func:`sorted_clauses`) only where text is written, by one writer.

A configuration has two forms.  Its clause sets of names are the
public boundary, and the public operations build their result clauses
as name frozensets directly.  Absorption runs on *mask antichains*
alone: a numbering of state names (``_Numbering``) turns a clause into
the ``int`` with one bit per member, so ``k & m == k`` tests
containment, and a configuration into the frozenset of its clause
masks.  Absorption (``_mask_antichain``) is defined once, on masks.
The public operations absorb through one helper, ``_absorb``, which
encodes clauses, absorbs their masks and gives back the kept clause
objects, and call it only where the operands' state sets show that
absorption can happen: the constructor always, a join among the clauses
that touch a state of two or more operands, and a meet at an operand
that shares a state with the ones before it.  A substitution is, by
definition, a join of meets, unless it is a renaming.  Only this module
and each automaton's kernel read masks: the kernel takes the products
and unions of its steps over one numbering of its own, absorbs them with
``_mask_antichain`` and decodes the result, a clause mask to names by
its set bits (see :mod:`altia._kernel`), and the parser builds its
values with :func:`meet_all` and :func:`join_all`.

There is no global table of instances: an automaton's boundary memo
gives its own equal successors one object.  All values are immutable
and the operations below are pure, so they are safe to use from
multiple threads.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import compress
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

Clause = frozenset[str]
_EMPTY: Clause = frozenset()


class Kind(Enum):
    """Coarse shape of a configuration."""

    TOP = "top"
    BOT = "bot"
    STATE = "state"
    COMPOUND = "compound"


_Masks = frozenset[int]  # a mask antichain: clause masks, none containing another


def _mask_antichain(masks: Collection[int]) -> _Masks:
    """The masks of ``masks`` that contain no other one (absorption).

    Two distinct masks with equal bit counts cannot contain each other, so
    each bit-count class is tested only against the strictly smaller masks
    kept so far, and a set of one class is an antichain as it stands.
    """
    if len(masks) <= 1:
        return frozenset(masks)
    ordered = sorted(masks, key=int.bit_count)
    n = ordered[0].bit_count()
    if ordered[-1].bit_count() == n:
        return frozenset(masks)
    kept: list[int] = []
    smaller: tuple[int, ...] = ()  # the kept masks with fewer bits than m
    for m in ordered:
        if m.bit_count() != n:
            n = m.bit_count()
            smaller = tuple(kept)
        for k in smaller:
            if k & m == k:
                break
        else:
            kept.append(m)
    return frozenset(kept)


# bin(m)[:1:-1] is a clause mask's bits, lowest first; this table turns
# each digit into the byte 0 or 1 that itertools.compress selects with
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _selector(m: int) -> bytes:
    return bin(m)[:1:-1].encode().translate(_BIT_BYTES)


class _Numbering:
    """A fixed set of state names as bits, which never grows: encoding any
    other name raises ``KeyError``.  Encoding records each clause object
    under its mask, so decoding gives back the clause frozensets that were
    encoded, the first one per mask; any other clause mask is decoded
    once, selecting the names of its set bits at C level.  A clause mask's
    bit indices are also found once."""

    __slots__ = ("names", "bit", "clauses", "bits")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)  # in bit order
        self.bit = {q: 1 << i for i, q in enumerate(self.names)}
        self.clauses: dict[int, Clause] = {}  # clause mask -> member names
        self.bits: dict[int, tuple[int, ...]] = {}  # clause mask -> bit indices

    def encode(self, clauses: Iterable[Clause]) -> frozenset[int]:
        """The masks of ``clauses``, an antichain if ``clauses`` is one."""
        known, bit = self.clauses, self.bit.__getitem__
        masks = set()
        for c in clauses:
            m = sum(map(bit, c))
            known.setdefault(m, c)
            masks.add(m)
        return frozenset(masks)

    def clause(self, m: int) -> Clause:
        """The state names of a clause mask, one object per clause."""
        names = self.clauses.get(m)
        if names is None:
            names = self.clauses[m] = frozenset(compress(self.names, _selector(m)))
        return names

    def indices(self, m: int) -> tuple[int, ...]:
        """The bits of a clause mask, lowest first: the positions of its
        members in ``names``."""
        bits = self.bits.get(m)
        if bits is None:
            out, c = [], m
            while c:
                low = c & -c
                out.append(low.bit_length() - 1)
                c ^= low
            bits = self.bits[m] = tuple(out)
        return bits

    def decode(self, masks: Iterable[int]) -> Config:
        """The configuration of a mask antichain, without re-canonicalizing."""
        return _from_antichain(frozenset(map(self.clause, masks)))


def _absorb(clauses: Iterable[Clause], numbering: _Numbering) -> frozenset[Clause]:
    """The clauses of ``clauses`` that contain no other one, each as the
    object ``numbering`` first encoded for it, so nothing is decoded again;
    ``numbering`` must cover their names."""
    return frozenset(map(numbering.clause, _mask_antichain(numbering.encode(clauses))))


class Config:
    """One lattice element: its canonical clause antichain ``clauses``,
    with that set's hash computed once.

    Do not mutate.  Build values with :func:`embed`, :func:`top`,
    :func:`bot` and the operations below; the constructor accepts any
    iterable of clauses and canonicalizes it.
    """

    __slots__ = ("clauses", "_hash")

    def __new__(cls, clauses: Iterable[Iterable[str]]):
        clauses = [frozenset(c) for c in clauses]
        return _from_antichain(_absorb(clauses, _Numbering(frozenset().union(*clauses))))

    @property
    def is_top(self) -> bool:
        return self.clauses == _TOP_CLAUSES

    @property
    def is_bot(self) -> bool:
        return not self.clauses

    @property
    def single_state(self) -> Optional[str]:
        """The state q if this is the embedding of a single state, else None."""
        if len(self.clauses) == 1:
            (clause,) = self.clauses
            if len(clause) == 1:
                return next(iter(clause))
        return None

    def states(self) -> frozenset[str]:
        """All state names occurring in the configuration."""
        return frozenset().union(*self.clauses)

    def __eq__(self, other):
        return self is other or (isinstance(other, Config) and self.clauses == other.clauses)

    def __hash__(self):
        return self._hash

    def __or__(self, other: "Config") -> "Config":
        return join(self, other)

    def __and__(self, other: "Config") -> "Config":
        return meet(self, other)

    def __str__(self):
        return _render(self.clauses, str)

    def __repr__(self):
        return f"Config({str(self)!r})"


def _from_antichain(clauses: frozenset[Clause]) -> Config:
    # The unchecked constructor: ``clauses`` must already be an antichain.
    self = object.__new__(Config)
    self.clauses = clauses
    self._hash = hash(clauses)
    return self


_TOP_CLAUSES = frozenset((_EMPTY,))
_BOT = Config(())
_TOP = Config(_TOP_CLAUSES)


def top() -> Config:
    """The greatest element: everything is allowed."""
    return _TOP


def bot() -> Config:
    """The least element: nothing is allowed."""
    return _BOT


def embed(q: str) -> Config:
    """The configuration consisting of the single state ``q``."""
    return _from_antichain(frozenset((frozenset((q,)),)))  # one clause is an antichain


def join(a: Config, b: Config) -> Config:
    """Disjunction of two configurations."""
    return join_all((a, b))


def meet(a: Config, b: Config) -> Config:
    """Conjunction of two configurations (pairwise clause unions)."""
    return meet_all((a, b))


def join_all(items: Iterable[Config]) -> Config:
    """Disjunction of finitely many configurations; empty gives bottom.

    The result holds the union of the operands' clause objects.  Each
    operand is an antichain, so a non-empty clause can absorb, or be
    absorbed by, a clause of another operand only if it touches a state
    that occurs in two or more operands; absorption runs over those
    clauses alone, and not at all when the operands share no state.  An
    empty clause (top) absorbs every other.
    """
    operands = list(items)
    if len(operands) == 1:  # a lone operand is canonical already
        return operands[0]
    clauses = frozenset().union(*(e.clauses for e in operands))
    if _EMPTY in clauses:
        return _TOP
    seen: set[str] = set()
    shared: set[str] = set()
    for e in operands:
        s = e.states()
        shared |= seen.intersection(s)
        seen |= s
    touching = [c for c in clauses if not shared.isdisjoint(c)]
    if len(touching) > 1:
        kept = _absorb(touching, _Numbering(frozenset().union(*touching)))
        clauses = clauses.difference(touching).union(kept)
    return _from_antichain(clauses)


def meet_all(items: Iterable[Config]) -> Config:
    """Conjunction of finitely many configurations; empty gives top.

    The operands are folded by the pairwise unions of their clauses, with
    top as the unit.  A product of antichains over disjoint states is an
    antichain, so a step is absorbed only when its operand shares a state
    with the operands folded in before it, over one numbering of all the
    operands' states; the kept clauses are the product's own objects.
    """
    operands = list(items)
    if len(operands) == 1:  # top and e is e: a lone operand is returned as it is
        return operands[0]
    states = [e.states() for e in operands]
    numbering = _Numbering(frozenset().union(*states))
    out, seen = _TOP_CLAUSES, frozenset()
    for e, s in zip(operands, states):
        if out == _TOP_CLAUSES:
            out = e.clauses
        elif e.clauses != _TOP_CLAUSES:
            out = {x | y for x in out for y in e.clauses}
        if not seen.isdisjoint(s):
            out = _absorb(out, numbering)
        seen |= s
    return _from_antichain(frozenset(out))


def substitute(e: Config, f: Mapping[str, Config]) -> Config:
    """Replace every state in ``e`` by ``f[state]`` and renormalize.

    ``f`` must cover every state occurring in ``e``; a missing state
    surfaces as the mapping's KeyError, which is a caller defect.  Keys
    of ``f`` that do not occur in ``e`` are ignored.

    ``f[q]`` is looked up once per state of ``e``.  The result is the
    join, over the clauses of ``e``, of the meets of their members'
    targets.  When every target is a single state and no two are the
    same, the substitution is an order embedding, a renaming: each clause
    is mapped through one ``{state: name}`` dict, and the images form an
    antichain as they stand.  Otherwise it is computed as that join of
    meets.
    """
    targets = {q: f[q] for q in e.states()}
    names = {q: t.single_state for q, t in targets.items()}
    if None not in names.values() and len(set(names.values())) == len(names):
        return _from_antichain(frozenset(frozenset(map(names.__getitem__, c)) for c in e.clauses))
    return join_all(meet_all(targets[q] for q in c) for c in e.clauses)


def classify(e: Config) -> Kind:
    """Tag a configuration as top, bottom, a single state, or compound."""
    if e.is_bot:
        return Kind.BOT
    if e.is_top:
        return Kind.TOP
    if e.single_state is not None:
        return Kind.STATE
    return Kind.COMPOUND


def dnf(e: Config) -> frozenset[Clause]:
    """The canonical clause set of ``e``.

    Bottom gives the empty set, top the set holding one empty clause.
    Removing any clause would change the element.
    """
    return e.clauses


PLAIN_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_+^.]*")
_RESERVED = {"ia", "aia", "states", "inputs", "outputs", "init", "T", "F"}


def quote_name(name: str) -> str:
    """A state name as a single unambiguous token (quoted when needed)."""
    if PLAIN_NAME.fullmatch(name) and name not in _RESERVED and not name.startswith("~"):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def sorted_clauses(clauses: Iterable[Clause]) -> list[list[str]]:
    """Clauses as sorted name lists, in sorted order: the one order in
    which ``str``, :func:`expr_str`, state names and Graphviz write them."""
    return sorted(sorted(c) for c in clauses)


# The one writer of configurations, in two parts so that a caller can keep
# each clause's text: a clause is its written names, in sorted order,
# joined by "&", or "T" for the empty one; a configuration is its clause
# texts, in sorted clause order, joined by " | ", or "F" for no clause.


def _clause_text(names: Sequence[str]) -> str:
    return "&".join(names) if names else "T"


def _write(clause_texts: Sequence[str]) -> str:
    return " | ".join(clause_texts) if clause_texts else "F"


def _render(clauses: Iterable[Clause], name: Callable[[str], str]) -> str:
    return _write([_clause_text(list(map(name, c))) for c in sorted_clauses(clauses)])


def expr_str(e: Config) -> str:
    """Unambiguous expression rendering of ``e``.

    Like ``str`` but with state names quoted whenever they could be read
    as operators or constants, so distinct configurations never render
    alike; used for file output and for naming synthesized states.
    """
    return _render(e.clauses, quote_name)
