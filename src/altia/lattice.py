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

This name-based form is the public boundary.  Every operation computes
on *mask antichains*: a numbering of the operands' state names turns a
clause into the ``int`` with one bit per member, so ``k & m == k`` tests
containment, and a configuration into the frozenset of its clause masks.
Absorption (``_mask_antichain``) and meet (``_mask_meet``) are defined
once, on masks, and results are decoded unchecked, since a mask
antichain is canonical already; a clause mask decodes to names by its
set bits.  :func:`substitute` is one pass over one numbering of its
targets' states, with one absorption at the end.  Each automaton keeps
one numbering of its own states and steps mask antichains with the
same two functions (see :mod:`altia.aia`).

There is no global table of instances: an automaton's boundary memo
gives its own equal successors one object.  All values are immutable
and the operations below are pure, so they are safe to use from
multiple threads.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import compress
from typing import Callable, Iterable, Mapping, Optional, Sequence

Clause = frozenset[str]


class Kind(Enum):
    """Coarse shape of a configuration."""

    TOP = "top"
    BOT = "bot"
    STATE = "state"
    COMPOUND = "compound"


_Masks = frozenset[int]  # a mask antichain: clause masks, none containing another
_TOP_MASKS: _Masks = frozenset((0,))


def _mask_antichain(masks: set[int]) -> _Masks:
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


def _mask_meet(a: _Masks, b: _Masks) -> _Masks:
    """The meet of two mask antichains, with top ``{0}`` as its unit."""
    if 0 in b:
        return a
    if 0 in a:
        return b
    return _mask_antichain({x | y for x in a for y in b})


# bin(m)[:1:-1] is a clause mask's bits, lowest first; this table turns
# each digit into the byte 0 or 1 that itertools.compress selects with
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _selector(m: int) -> bytes:
    return bin(m)[:1:-1].encode().translate(_BIT_BYTES)


class _Numbering:
    """A fixed set of state names as bits, which never grows: encoding any
    other name raises ``KeyError``.  Decoding reuses the clause frozensets
    that were encoded and decodes any other clause mask once, selecting
    the names of its set bits at C level."""

    __slots__ = ("names", "bit", "clauses")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)  # in bit order
        self.bit = {q: 1 << i for i, q in enumerate(self.names)}
        self.clauses: dict[int, Clause] = {}  # clause mask -> member names

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
        return tuple(compress(range(len(self.names)), _selector(m)))

    def decode(self, masks: Iterable[int]) -> Config:
        """The configuration of a mask antichain, without re-canonicalizing."""
        return _from_antichain(frozenset(map(self.clause, masks)))


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
        numbering = _Numbering(frozenset().union(*clauses))
        return numbering.decode(_mask_antichain(numbering.encode(clauses)))

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


_TOP_CLAUSES = frozenset((frozenset(),))
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
    return Config(a.clauses | b.clauses)


def meet(a: Config, b: Config) -> Config:
    """Conjunction of two configurations (pairwise clause unions)."""
    return meet_all((a, b))


def join_all(items: Iterable[Config]) -> Config:
    """Disjunction of finitely many configurations; empty gives bottom."""
    operands = list(items)
    if len(operands) == 1:  # a lone operand is canonical already
        return operands[0]
    return Config(c for e in operands for c in e.clauses)


def meet_all(items: Iterable[Config]) -> Config:
    """Conjunction of finitely many configurations; empty gives top."""
    operands = list(items)
    if len(operands) == 1:  # top and e is e: a lone operand is returned as it is
        return operands[0]
    numbering = _Numbering(frozenset().union(*(c for e in operands for c in e.clauses)))
    out = _TOP_MASKS
    for e in operands:  # each operand's clauses are an antichain, so are their masks
        out = _mask_meet(out, numbering.encode(e.clauses))
    return numbering.decode(out)


def substitute(e: Config, f: Mapping[str, Config]) -> Config:
    """Replace every state in ``e`` by ``f[state]`` and renormalize.

    ``f`` must cover every state occurring in ``e``; a missing state
    surfaces as the mapping's KeyError, which is a caller defect.  Keys
    of ``f`` that do not occur in ``e`` are ignored.

    One pass over one numbering: ``f[q]`` is looked up and encoded once
    per state of ``e``, over one numbering of the targets' states.  A
    clause's image is the meet of its members' targets: the one-clause
    targets (top among them) are ORed into one mask, ``_mask_meet`` is
    folded over the others only, and a bottom target ends the clause.
    Every clause's image, each mask ORed with that clause's one-clause
    mask, goes into one set, which one absorption makes canonical, since
    absorbing the union gives the same element as absorbing each image
    first.  The result is decoded once.
    """
    targets = {q: f[q] for q in e.states()}
    numbering = _Numbering(frozenset().union(*(c for t in targets.values() for c in t.clauses)))
    one: dict[str, int] = {}  # state -> the mask of its one-clause target
    wide: dict[str, _Masks] = {}  # state -> its other target, bottom included
    for q, t in targets.items():
        masks = numbering.encode(t.clauses)
        if len(masks) == 1:
            (one[q],) = masks
        else:
            wide[q] = masks
    out: set[int] = set()
    for clause in e.clauses:
        acc, img = 0, _TOP_MASKS
        for q in clause:
            m = one.get(q)
            if m is not None:
                acc |= m
                continue
            t = wide[q]
            if not t:  # bottom absorbs the remaining members
                break
            img = _mask_meet(img, t)
        else:
            out.update([x | acc for x in img])
    return numbering.decode(_mask_antichain(out))


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
