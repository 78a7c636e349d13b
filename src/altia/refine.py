"""Input-failure refinement: a complete decision procedure.

Refinement holds when every observation of the left model is also an
observation of the right one.  Both sides are driven through their
canonical configurations in lockstep: because configurations are
canonical and only finitely many are reachable on each side, a breadth
first search over configuration pairs (one :class:`~altia.search.Search`)
decides trace-set inclusion exactly, and the first offending pair yields
a shortest counterexample.  Each side steps its configurations as the
ids of its automaton's mask kernel, whose memos are shared with every
other search on the same automaton, and a pair of ids is searched as one
int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import aia as _aia
from ._kernel import _ID_BITS
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


# bounded only so that a process meeting ever new alphabets does not grow
@lru_cache(maxsize=256)
def _labels(names: tuple[str, ...], n_inputs: int) -> tuple[Label, ...]:
    """The ``Label`` of each name of a kernel's ``labels``, whose first
    ``n_inputs`` are the inputs, built once per alphabet: building them
    took about 4.8 us of a 30 us cold leq_aia of two 5-state views (2-core
    Xeon host)."""
    return tuple(Label(l, j < n_inputs) for j, l in enumerate(names))


def leq_aia(s1: AIA, s2: AIA, cap: int = DEFAULT_CAP) -> RefinementResult:
    """Decide whether every observation of ``s1`` is allowed by ``s2``."""
    _aia._require_same_alphabets(s1, s2)

    if s1.initial.is_bot:
        return RefinementResult(True)
    if s2.initial.is_bot:
        return RefinementResult(False, FTrace())

    # A pair of kernel ids (e1, e2) is the int e1 << _ID_BITS | e2: every
    # id is below 2**_ID_BITS.  Every kernel numbers top 0 and bottom 1.
    # Each side steps a row slot only where the search reads it.
    k1, k2 = s1._masks(), s2._masks()
    labels = _labels(k1.labels, len(s1.inputs))
    top, bottom, low = k1.top, k1.bottom, (1 << _ID_BITS) - 1
    row1, row2, step1, step2 = k1.row, k2.row, k1.step, k2.step
    search = Search([k1.initial << _ID_BITS | k2.initial], cap)
    push = search.push
    for i, pair in search:
        e1, e2 = pair >> _ID_BITS, pair & low
        r1, r2 = row1(e1), row2(e2)
        for j, lab in enumerate(labels):
            t1 = r1[j]
            if t1 is None:
                t1 = step1(e1, j)
            if t1 == bottom:
                continue
            t2 = r2[j]
            if t2 is None:
                t2 = step2(e2, j)
            if t2 == bottom:
                return RefinementResult(False, FTrace(search.path(i) + (lab,)), i + 1)
            if t1 == top:
                if t2 == top:
                    continue
                # A refusal the left side allows must be allowed on the
                # right: both sides must be underspecified on this input.
                if lab.is_input:
                    return RefinementResult(False, FTrace(search.path(i), lab.name), i + 1)
            push(t1 << _ID_BITS | t2, i, lab)
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
