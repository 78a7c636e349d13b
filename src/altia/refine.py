"""Input-failure refinement: a complete decision procedure.

Refinement holds when every observation of the left model is also an
observation of the right one.  Both sides are driven through their
canonical configurations in lockstep: because configurations are
canonical and only finitely many are reachable on each side, a breadth
first search over configuration pairs (one :class:`~altia.search.Search`)
decides trace-set inclusion exactly, and the first offending pair yields
a shortest counterexample.  Each side steps its mask antichains through
its automaton's mask kernel, whose memos are shared with every other
search on the same automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import aia as _aia
from .aia import AIA, induce_aia
from .errors import AlphabetError
from .ia import IA, FTrace, Label
from .search import DEFAULT_CAP, Search


@dataclass
class RefinementResult:
    """Outcome of a refinement check.

    ``counterexample`` is present exactly when the check fails; it is an
    observation of the left side that the right side does not allow.
    """

    holds: bool
    counterexample: Optional[FTrace] = None
    pairs_explored: int = 0

    def __bool__(self):
        return self.holds


def leq_aia(s1: AIA, s2: AIA, cap: int = DEFAULT_CAP) -> RefinementResult:
    """Decide whether every observation of ``s1`` is allowed by ``s2``."""
    _aia._require_same_alphabets(s1, s2)
    labels = [Label(a, True) for a in sorted(s1.inputs)] + [
        Label(x, False) for x in sorted(s1.outputs)
    ]

    if s1.initial.is_bot:
        return RefinementResult(True)
    if s2.initial.is_bot:
        return RefinementResult(False, FTrace())

    # The pairs are the two sides' mask antichains (see altia.aia): bottom
    # is the empty set, top the set holding the empty clause 0.
    k1, k2 = s1._masks(), s2._masks()
    search = Search([(k1.initial, k2.initial)], cap)
    for i, (e1, e2) in search:
        for lab in labels:
            t1 = k1.step(e1, lab.name)
            if not t1:
                continue
            t2 = k2.step(e2, lab.name)
            if not t2:
                return RefinementResult(False, FTrace(search.path(i) + (lab,)), i + 1)
            if 0 in t1:
                if 0 in t2:
                    continue
                # A refusal the left side allows must be allowed on the
                # right: both sides must be underspecified on this input.
                if lab.is_input:
                    return RefinementResult(False, FTrace(search.path(i), lab.name), i + 1)
            search.push((t1, t2), i, lab)
    return RefinementResult(True, None, len(search.nodes))


def leq_ia_aia(i: IA, s: AIA, cap: int = DEFAULT_CAP) -> RefinementResult:
    """Decide whether implementation behaviour ``i`` refines ``s``.

    A counterexample is an observation of ``i`` itself: a configuration
    the alternating view of ``i`` reaches is top or the join of the states
    ``i`` reaches by the same trace, only an input one of them refuses
    leads to top, and :func:`leq_aia` explores no further from a left
    side that became top.
    """
    if i.inputs != s.inputs or i.outputs != s.outputs:
        raise AlphabetError(f"{i.name!r} and {s.name!r} have different alphabets")
    return leq_aia(induce_aia(i), s, cap)


def leq_ia(i1: IA, i2: IA, cap: int = DEFAULT_CAP) -> RefinementResult:
    """Refinement between two interface automata.

    The right side is taken up to input-failure closure: an input the
    right side may refuse is treated as unconstrained once accepted.
    """
    if i1.inputs != i2.inputs or i1.outputs != i2.outputs:
        raise AlphabetError(f"{i1.name!r} and {i2.name!r} have different alphabets")
    return leq_ia_aia(i1, induce_aia(i2), cap)


def equiv(s1: AIA, s2: AIA, cap: int = DEFAULT_CAP) -> bool:
    """Mutual refinement of two alternating automata."""
    return leq_aia(s1, s2, cap).holds and leq_aia(s2, s1, cap).holds
