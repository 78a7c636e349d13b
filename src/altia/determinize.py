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
from .lattice import bot, embed, top
from .search import DEFAULT_CAP, _rows


def check_deterministic(s: AIA, cap: int = DEFAULT_CAP) -> bool:
    """Whether every reachable configuration is top, bottom or one state.

    A compound initial configuration fails before any search, which stops
    at the first row holding a compound configuration: a ``cap`` counts
    the configurations stepped until then, so a spec that is not
    deterministic may give ``False`` under a cap its table exceeds.
    """
    k = s._masks()
    one = k.at_most_one_state
    return one(k.initial) and all(all(map(one, row)) for _, row in _rows(k, cap))


def _relabelled(k, table, wrap, top_target, bot_target):
    """The names and targets of the configuration ids of ``table``, a
    table of :func:`~altia.search._rows` over kernel ``k``.

    Each reachable configuration is named by the kernel's name memo, once
    per automaton, and its target is ``wrap`` of its name; top and bottom
    target ``top_target`` and ``bot_target``.  Both dicts are keyed by id.
    """
    names = {m: k.name(m) for m in table}
    target = {m: wrap(name) for m, name in names.items()}
    target[k.top] = top_target
    target[k.bottom] = bot_target
    return names, target


def det(s: AIA, cap: int = DEFAULT_CAP) -> AIA:
    """The determinization of ``s``.

    Each reachable nontrivial configuration becomes a state, named by
    its canonical expression string (quoted where ambiguous, so distinct
    configurations get distinct names); successors are re-wrapped as
    single states (or kept as top/bottom).  The result is always
    deterministic and has the same input-failure traces as ``s``.

    The result is valid by construction and built without the
    constructor's checks.  It arrives with its kernel's rows seeded from
    the same table (see ``_MaskKernel.seed``), so searches over it
    compute no step of a state again.  It holds no reference to ``s``.
    """
    k = s._masks()
    table = dict(_rows(k, cap))
    names, target = _relabelled(k, table, embed, top(), bot())
    labels = k.labels
    trans = {names[m]: {l: target[t] for l, t in zip(labels, row)} for m, row in table.items()}
    d = AIA._valid(
        frozenset(trans), s.inputs, s.outputs, trans, target[k.initial], f"det({s.name})"
    )
    d._masks().seed(table, names)
    return d
