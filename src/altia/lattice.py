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

This name-based form is the public boundary.  Absorption is computed
on *mask antichains*: a numbering of state names turns a clause into
the ``int`` with one bit per member, so ``k & m == k`` tests
containment, and a configuration into the frozenset of its clause
masks.  Absorption (``_mask_antichain``) and meet (``_mask_meet``) are
defined once, on masks.  The public operations build their result
clauses as name frozensets directly, carrying each clause mask beside
its names where absorption needs it, and absorb only where the
operands' state sets show that absorption can happen: a join among the
clauses that touch a state of two or more operands, a meet at a factor
that shares a state with the factors before it, and a substitution
unless its targets are one non-empty clause each and pairwise disjoint.
The parser and each automaton's kernel fold the mask functions over
one numbering of their own and decode the result, a clause mask to
names by its set bits; a kernel of few states joins on up-sets (see
:mod:`altia.aia`).

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
_TOP_MASKS: _Masks = frozenset((0,))


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


def _mask_meet(a: _Masks, b: _Masks) -> _Masks:
    """The meet of two mask antichains, with top ``{0}`` as its unit."""
    if 0 in b:
        return a
    if 0 in a:
        return b
    return _mask_antichain({x | y for x in a for y in b})


# Named clauses: each clause's mask, under one numbering, mapped to the
# clause's member names, so that a result is built without decoding.  A
# named antichain is one whose masks form a mask antichain.
_Named = dict[int, Clause]
_TOP_NAMED: _Named = {0: _EMPTY}


def _bits(names: Iterable[str]) -> dict[str, int]:
    """A numbering of ``names``: each name's bit."""
    return {q: 1 << i for i, q in enumerate(names)}


def _named(clauses: Iterable[Clause], bit: Mapping[str, int]) -> _Named:
    """``clauses`` by their masks under ``bit``, keeping the clause objects."""
    bit = bit.__getitem__
    return {sum(map(bit, c)): c for c in clauses}


def _product(a: _Named, b: _Named) -> _Named:
    """The pairwise unions of two named antichains, with top ``{0}`` as unit;
    not absorbed."""
    if 0 in b:
        return a
    if 0 in a:
        return b
    return {x | y: cx | cy for x, cx in a.items() for y, cy in b.items()}


def _absorbed(named: _Named) -> _Named:
    """The clauses of ``named`` that contain no other one."""
    kept = _mask_antichain(named.keys())
    return named if len(kept) == len(named) else {m: named[m] for m in kept}


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
        self.bit = _bits(self.names)
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
        named = _named(clauses, _bits(frozenset().union(*clauses)))
        return _from_antichain(frozenset(_absorbed(named).values()))

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
        named = _named(touching, _bits(frozenset().union(*touching)))
        kept = _mask_antichain(named.keys())
        if len(kept) < len(named):
            clauses = clauses.difference([named[m] for m in named.keys() - kept])
    return _from_antichain(clauses)


def meet_all(items: Iterable[Config]) -> Config:
    """Conjunction of finitely many configurations; empty gives top.

    The operands are folded into a named antichain over one numbering of
    their states: each product mask is carried with its clause, the union
    of its factors' clauses, so the result is never decoded.  A product
    step is absorbed only when the operand shares a state with those
    folded in before it: a product of antichains over disjoint states is
    an antichain.
    """
    operands = list(items)
    if len(operands) == 1:  # top and e is e: a lone operand is returned as it is
        return operands[0]
    states = [e.states() for e in operands]
    bit = _bits(frozenset().union(*states))
    out, seen = _TOP_NAMED, frozenset()
    for e, s in zip(operands, states):
        out = _product(out, _named(e.clauses, bit))
        if not seen.isdisjoint(s):
            out = _absorbed(out)
        seen |= s
    return _from_antichain(frozenset(out.values()))


def substitute(e: Config, f: Mapping[str, Config]) -> Config:
    """Replace every state in ``e`` by ``f[state]`` and renormalize.

    ``f`` must cover every state occurring in ``e``; a missing state
    surfaces as the mapping's KeyError, which is a caller defect.  Keys
    of ``f`` that do not occur in ``e`` are ignored.

    ``f[q]`` is looked up once per state of ``e``.  When every target is
    one non-empty clause and those clauses are pairwise disjoint, the
    substitution is an order embedding: each clause's image is the union
    of its members' target clauses, the images form an antichain, and no
    mask is built.  Otherwise the targets are named antichains over one
    numbering of their states.  A clause's image is the meet of its
    members' targets: the one-clause targets (top among them) are united
    into one mask and clause, the others are multiplied and absorbed, and
    a bottom target ends the clause.  Every clause's image goes into one
    named antichain, which one absorption makes canonical, since
    absorbing the union gives the same element as absorbing each image
    first.
    """
    targets = {q: f[q] for q in e.states()}
    if all(len(t.clauses) == 1 for t in targets.values()):
        image = {q: next(iter(t.clauses)) for q, t in targets.items()}
        members = image.values()
        if all(members) and len(frozenset().union(*members)) == sum(map(len, members)):
            return _from_antichain(frozenset(frozenset().union(*map(image.__getitem__, c))
                                             for c in e.clauses))
    bit = _bits(frozenset().union(*(t.states() for t in targets.values())))
    one: dict[str, tuple[int, Clause]] = {}  # state -> its one-clause target
    wide: dict[str, _Named] = {}  # state -> its other target, bottom included
    for q, t in targets.items():
        named = _named(t.clauses, bit)
        if len(named) == 1:
            (one[q],) = named.items()
        else:
            wide[q] = named
    out: _Named = {}
    for clause in e.clauses:
        acc, acc_clause, img = 0, _EMPTY, _TOP_NAMED
        for q in clause:
            p = one.get(q)
            if p is not None:
                acc |= p[0]
                acc_clause |= p[1]
                continue
            t = wide[q]
            if not t:  # bottom absorbs the remaining members
                break
            img = _absorbed(_product(img, t))
        else:
            out.update({x | acc: c | acc_clause for x, c in img.items()})
    return _from_antichain(frozenset(_absorbed(out).values()))


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
