"""The exploration core: one breadth-first search over reachable nodes.

Determinization, tester synthesis, refinement, the interface-automaton
view and test execution all explore what is reachable from a start:
canonical configurations, clauses, configuration pairs or product
states.  They differ only in what a node is and how its successors are
found, so each is a loop over one :class:`Search` that owns the queue,
the seen-set, the parent links for shortest witnesses and the cap.

The search is breadth-first: nodes are visited in the order they were
first pushed, so the first node found with some property is one of the
fewest steps from a start, and :meth:`Search.path` rebuilds such a
shortest label sequence.

Configurations are searched as the ids of the automaton's mask kernel
(see :mod:`altia._kernel`): dense ints, 0 for top and 1 for bottom.
:func:`_rows` starts from the kernel's initial id and reads each id's
row of successor ids, which the kernel fills on a miss, so a search over
an automaton already explored pushes ints and computes nothing.  Its
callers name, relabel or test ids through the kernel; none decodes them.
``refine.leq_aia`` searches pairs of ids packed into one int.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .errors import ExplorationLimitError

DEFAULT_CAP = 100_000


class Search:
    """Breadth-first search with de-duplication and parent links.

    Iterating yields ``(index, node)`` for every node pushed so far and
    every node pushed while iterating, each once, in first-push order.
    With a ``cap``, visiting more than ``cap`` nodes raises
    :class:`ExplorationLimitError` instead of silently truncating.
    """

    __slots__ = ("nodes", "_seen", "_parents", "_labels", "_cap")

    def __init__(self, starts: Iterable[Hashable], cap: Optional[int] = None):
        self.nodes: list = []
        self._seen: set = set()
        self._parents: list[int] = []
        self._labels: list = []
        self._cap = cap
        for node in starts:
            self.push(node)

    def push(self, node: Hashable, parent: int = -1, label=None) -> None:
        """Queue ``node``, reached from node ``parent`` by ``label``,
        unless it was pushed before."""
        if node not in self._seen:
            self._seen.add(node)
            self.nodes.append(node)
            self._parents.append(parent)
            self._labels.append(label)

    def __iter__(self) -> Iterator[tuple[int, Hashable]]:
        i = 0
        while i < len(self.nodes):
            if self._cap is not None and i >= self._cap:
                raise ExplorationLimitError(self._cap)
            yield i, self.nodes[i]
            i += 1

    def path(self, i: int) -> tuple:
        """The labels from a start to node ``i``: a shortest witness."""
        out = []
        while self._parents[i] >= 0:
            out.append(self._labels[i])
            i = self._parents[i]
        return tuple(reversed(out))


def _rows(k, cap: int = DEFAULT_CAP) -> Iterator[tuple[int, Sequence[int]]]:
    """The determinization table of the automaton of kernel ``k``, row by
    row as it is reached.

    Each nontrivial (neither top nor bottom) configuration id reachable
    from the initial one, with its successor ids by label index (the
    order of ``k.labels``), in breadth-first discovery order; nothing when
    the initial configuration is top or bottom.  Each row is the kernel's
    own list.  Visiting more than ``cap`` configurations raises
    :class:`ExplorationLimitError`.
    """
    if k.initial <= k.bottom:
        return
    full_row, bottom = k.full_row, k.bottom
    search = Search([k.initial], cap)
    push = search.push
    for _, e in search:
        r = full_row(e)
        for t in r:
            if t > bottom:  # neither top nor bottom
                push(t)
        yield e, r
