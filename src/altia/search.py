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

Configurations are searched as mask antichains, the integer form each
automaton steps internally (see :mod:`altia.aia`): :func:`reachable`
starts from the kernel's encoding of the initial configuration and
explores, steps and returns masks only.  Its rows hold the table's own
key objects, since the kernel keeps one object per successor value, so
the seen-set and every dict keyed by the table find a successor by
identity.  Its callers name, relabel or test the masks; none decodes
them.  ``refine.leq_aia`` searches pairs of mask antichains the same
way.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional

from .errors import ExplorationLimitError
from .lattice import _Masks

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


def reachable(s, cap: int = DEFAULT_CAP) -> dict[_Masks, dict[str, _Masks]]:
    """The determinization table of ``s`` on its kernel's mask antichains.

    Maps every nontrivial (neither top nor bottom) configuration
    reachable from the initial one to its successor row, one entry per
    label, in breadth-first discovery order.  Empty when the initial
    configuration is itself top or bottom.
    """
    labels = sorted(s.inputs) + sorted(s.outputs)
    table: dict = {}
    kernel = s._masks()
    if not kernel.initial or 0 in kernel.initial:  # bottom or top
        return table
    step = kernel.step
    search = Search([kernel.initial], cap)
    for _, e in search:
        row = {label: step(e, label) for label in labels}
        for t in row.values():
            if t and 0 not in t:  # neither bottom nor top
                search.push(t)
        table[e] = row
    return table
