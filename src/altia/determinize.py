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
from .search import DEFAULT_CAP, reachable


def check_deterministic(s: AIA, cap: int = DEFAULT_CAP) -> bool:
    """Whether every reachable configuration is top, bottom or one state."""

    def simple(m) -> bool:  # no clause, or one of at most one state bit
        return len(m) <= 1 and all(c & (c - 1) == 0 for c in m)

    # a compound initial configuration fails before any search
    return simple(s._masks().initial) and all(map(simple, reachable(s, cap)))


def _relabelled(s: AIA, cap: int, wrap, top_target, bot_target):
    """``reachable(s, cap)`` with its configurations replaced by targets.

    Each reachable configuration is named once, by the kernel's mask
    renderer; a successor becomes ``wrap`` of its name, or ``top_target``
    or ``bot_target`` for top and bottom, each one shared object.  Returns
    the initial configuration's target and the rows by name.
    """
    k = s._masks()
    reach = reachable(s, cap)
    names = {m: k.name(m) for m in reach}
    target = {m: wrap(name) for m, name in names.items()}
    target.update({_TOP_MASKS: top_target, frozenset(): bot_target})
    rows = {names[m]: {label: target[t] for label, t in row.items()} for m, row in reach.items()}
    return target[k.initial], rows


def det(s: AIA, cap: int = DEFAULT_CAP) -> AIA:
    """The determinization of ``s``.

    Each reachable nontrivial configuration becomes a state, named by
    its canonical expression string (quoted where ambiguous, so distinct
    configurations get distinct names); successors are re-wrapped as
    single states (or kept as top/bottom).  The result is always
    deterministic and has the same input-failure traces as ``s``.
    """
    initial, trans = _relabelled(s, cap, embed, top(), bot())
    return AIA(trans, s.inputs, s.outputs, trans, initial, name=f"det({s.name})")
