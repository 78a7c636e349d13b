"""Input-failure refinement: a complete decision procedure.

Refinement holds when every observation of the left model is also an
observation of the right one.  Both sides are driven through their
canonical configurations in lockstep: because configurations are
canonical and only finitely many are reachable on each side, a breadth
first search over configuration pairs (one :class:`~altia.search.Search`)
decides trace-set inclusion exactly, and the first offending pair yields
a shortest counterexample.  Each side steps its configurations as the
ids of its automaton's mask kernel, whose memos are shared with every
other search on the same automaton, and a pair of ids is searched as a
tuple, reached by a label's index.
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


def _trace(names: tuple[str, ...], n_inputs: int, path: tuple[int, ...]) -> tuple[Label, ...]:
    """The labels of the label indices ``path`` into a kernel's ``labels``
    ``names``, whose first ``n_inputs`` are the inputs.  The search pushes
    indices and builds labels only along a counterexample's path: a
    ``Label`` per name took about 4.8 us of a 30 us cold leq_aia of two
    5-state views (2-core Xeon host)."""
    return tuple([Label(names[j], j < n_inputs) for j in path])


def leq_aia(s1: AIA, s2: AIA, cap: int = DEFAULT_CAP) -> RefinementResult:
    """Decide whether every observation of ``s1`` is allowed by ``s2``."""
    _aia._require_same_alphabets(s1, s2)

    if s1.initial.is_bot:
        return RefinementResult(True)
    if s2.initial.is_bot:
        return RefinementResult(False, FTrace())

    # Every kernel numbers top 0 and bottom 1.  Each side steps a row slot
    # only where the search reads it.
    k1, k2 = s1._masks(), s2._masks()
    names, n_inputs = k1.labels, len(s1.inputs)
    top, bottom = k1.top, k1.bottom
    row1, row2, step1, step2 = k1.row, k2.row, k1.step, k2.step
    search = Search([(k1.initial, k2.initial)], cap)
    push = search.push
    for i, (e1, e2) in search:
        r1, r2 = row1(e1), row2(e2)
        for j in range(len(names)):
            t1 = r1[j]
            if t1 is None:
                t1 = step1(e1, j)
            if t1 == bottom:
                continue
            t2 = r2[j]
            if t2 is None:
                t2 = step2(e2, j)
            if t2 == bottom:
                body = _trace(names, n_inputs, search.path(i) + (j,))
                return RefinementResult(False, FTrace(body), i + 1)
            if t1 == top:
                if t2 == top:
                    continue
                # A refusal the left side allows must be allowed on the
                # right: both sides must be underspecified on this input.
                if j < n_inputs:
                    body = _trace(names, n_inputs, search.path(i))
                    return RefinementResult(False, FTrace(body, names[j]), i + 1)
            push((t1, t2), i, j)
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
