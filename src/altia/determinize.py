"""Determinization of alternating interface automata.

The determinized automaton has one state per nontrivial configuration
reachable from the initial one; following any trace then lands on top,
bottom, or a single such state.  Only the reachable part is built: the
full configuration space is astronomically large, but the observable
behaviour depends only on configurations that some trace actually
reaches.
"""

from __future__ import annotations

from .aia import AIA
from .lattice import _TOP_MASKS, bot, embed, top
from .search import DEFAULT_CAP, Search, reachable


def check_deterministic(s: AIA, cap: int = DEFAULT_CAP) -> bool:
    """Whether every reachable configuration is top, bottom or one state.

    The search stops at the first compound configuration it steps to, so
    a ``cap`` counts the configurations stepped until then: a spec that
    is not deterministic may give ``False`` under a cap its whole
    determinization table exceeds.
    """

    def simple(m) -> bool:  # no clause, or one of at most one state bit
        return len(m) <= 1 and all(c & (c - 1) == 0 for c in m)

    k = s._masks()
    if not simple(k.initial):  # a compound initial configuration fails before any search
        return False
    if not k.initial or 0 in k.initial:  # bottom or top: nothing to search
        return True
    labels = sorted(s.inputs) + sorted(s.outputs)
    step = k.step
    search = Search([k.initial], cap)
    for _, e in search:
        for label in labels:
            t = step(e, label)
            if not simple(t):
                return False
            if t and 0 not in t:  # neither bottom nor top
                search.push(t)
    return True


def _relabelled(s: AIA, table, wrap, top_target, bot_target):
    """The names and targets of the configurations of ``table``, the
    ``reachable`` table of ``s``.

    Each reachable configuration is named by the kernel's mask renderer,
    once per automaton, and its target is ``wrap`` of its name; top and
    bottom target ``top_target`` and ``bot_target``.  Both dicts are keyed
    by the table's own mask antichains, which its rows hold, so a lookup
    of a successor hits by identity.
    """
    k = s._masks()
    names = {m: k.name(m) for m in table}
    target = {m: wrap(name) for m, name in names.items()}
    target[_TOP_MASKS] = top_target
    target[frozenset()] = bot_target
    return names, target


def det(s: AIA, cap: int = DEFAULT_CAP) -> AIA:
    """The determinization of ``s``.

    Each reachable nontrivial configuration becomes a state, named by
    its canonical expression string (quoted where ambiguous, so distinct
    configurations get distinct names); successors are re-wrapped as
    single states (or kept as top/bottom).  The result is always
    deterministic and has the same input-failure traces as ``s``.

    The result is valid by construction and built without the
    constructor's checks.  It arrives with its kernel's step memo filled:
    the same table over the result's own one-state mask antichains, each
    one object of the new kernel's successor memo, so searches over it
    compute no step of a state again.  It holds no reference to ``s``.
    """
    table = reachable(s, cap)
    names, target = _relabelled(s, table, embed, top(), bot())
    trans = {names[m]: {l: target[t] for l, t in row.items()} for m, row in table.items()}
    initial = target[s._masks().initial]
    d = AIA._valid(trans, s.inputs, s.outputs, trans, initial, f"det({s.name})")
    k = d._masks()
    bit, one = k.numbering.bit, k.successors
    single = {_TOP_MASKS: _TOP_MASKS, frozenset(): frozenset()}
    for m, name in names.items():
        mask = frozenset((bit[name],))
        single[m] = one.setdefault(mask, mask)
    k.steps.update(
        {(single[m], l): single[t] for m, row in table.items() for l, t in row.items()}
    )
    return d
