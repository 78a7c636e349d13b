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
element, so ``==`` on clause sets decides lattice equality.  Clause order
is computed only where text is produced (:func:`sorted_clauses`).

This name-based form is the public boundary.  Exploration does not run
on it: each automaton numbers its states once and steps *mask
antichains*, a clause being an ``int`` with one bit per member (see
:mod:`altia.aia`).  Clause images and steps are computed on masks only.
Conversion happens only in the automaton's boundary memo, which encodes
a configuration given to ``AIA.step`` or ``after`` and decodes each
successor once, through an unchecked constructor, since a mask antichain
is canonical already; ``induce_ia`` reads the member names of a clause
mask from the same kernel.  The operations below (:func:`meet_all`,
:func:`join_all`, :func:`substitute`, ...) are not on that path: they
build configurations for parsing, composition, translation and
state renaming.

There is no global table of instances: an automaton's boundary memo
gives its own equal successors one object.  All values are immutable
and the operations below are pure, so they are safe to use from
multiple threads.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional

Clause = frozenset[str]


class Kind(Enum):
    """Coarse shape of a configuration."""

    TOP = "top"
    BOT = "bot"
    STATE = "state"
    COMPOUND = "compound"


def _minimize(clauses: Iterable[Clause]) -> frozenset[Clause]:
    # Absorption: a clause that contains another clause is redundant.  Two
    # distinct clauses of equal size cannot absorb each other, so each size
    # class is tested only against the strictly smaller clauses kept so far.
    by_size: dict[int, set[Clause]] = {}
    for c in clauses:
        by_size.setdefault(len(c), set()).add(c)
    kept: list[Clause] = []
    for size in sorted(by_size):
        kept.extend([c for c in by_size[size] if not any(k <= c for k in kept)])
    return frozenset(kept)


class Config:
    """One lattice element: its canonical clause antichain ``clauses``,
    with that set's hash computed once.

    Do not mutate.  Build values with :func:`embed`, :func:`top`,
    :func:`bot` and the operations below; the constructor accepts any
    iterable of clauses and canonicalizes it.
    """

    __slots__ = ("clauses", "_hash")

    def __new__(cls, clauses: Iterable[Iterable[str]]):
        return _from_antichain(_minimize(frozenset(c) for c in clauses))

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
        return _render(self, str)

    def __repr__(self):
        return f"Config({str(self)!r})"


def _from_antichain(clauses: frozenset[Clause]) -> Config:
    # The unchecked constructor: ``clauses`` must already be an antichain.
    # An automaton's mask kernel decodes through it, since a mask antichain
    # is canonical by construction (see altia.aia).
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
    return Config((frozenset((q,)),))


def join(a: Config, b: Config) -> Config:
    """Disjunction of two configurations."""
    return Config(a.clauses | b.clauses)


def meet(a: Config, b: Config) -> Config:
    """Conjunction of two configurations (pairwise clause unions)."""
    return Config(c1 | c2 for c1 in a.clauses for c2 in b.clauses)


def join_all(items: Iterable[Config]) -> Config:
    """Disjunction of finitely many configurations; empty gives bottom."""
    operands = list(items)
    if len(operands) == 1:  # a lone operand is canonical already
        return operands[0]
    return Config(c for e in operands for c in e.clauses)


def meet_all(items: Iterable[Config]) -> Config:
    """Conjunction of finitely many configurations; empty gives top."""
    out = None
    for e in items:  # top and e is e: a lone operand is returned as it is
        out = e if out is None else meet(out, e)
    return _TOP if out is None else out


def substitute(e: Config, f: Mapping[str, Config]) -> Config:
    """Replace every state in ``e`` by ``f[state]`` and renormalize.

    ``f`` must cover every state occurring in ``e``; a missing state
    surfaces as the mapping's KeyError, which is a caller defect.
    """
    return join_all(meet_all(f[q] for q in clause) for clause in e.clauses)


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


def sorted_clauses(e: Config) -> list[list[str]]:
    """The clauses of ``e`` as sorted name lists, in sorted order: the one
    order in which ``str``, :func:`expr_str` and Graphviz write it out."""
    return sorted(sorted(c) for c in e.clauses)


def _render(e: Config, name: Callable[[str], str]) -> str:
    if e.is_bot or e.is_top:
        return "F" if e.is_bot else "T"
    return " | ".join("&".join(map(name, clause)) for clause in sorted_clauses(e))


def expr_str(e: Config) -> str:
    """Unambiguous expression rendering of ``e``.

    Like ``str`` but with state names quoted whenever they could be read
    as operators or constants, so distinct configurations never render
    alike; used for file output and for naming synthesized states.
    """
    return _render(e, quote_name)
