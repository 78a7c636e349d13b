"""Alternating interface automata.

Transitions target lattice configurations instead of state sets, so
nondeterminism (disjunction) and view composition (conjunction) live
uniformly in the transition function.  An input mapped to top is
underspecified (accepting it leads to unconstrained behaviour); an
output mapped to bottom is forbidden.  Inputs may never map to bottom:
refusing an input is expressed by the environment's failure observation,
not by the model.

Configurations are name-based :class:`~altia.lattice.Config` values at
the public boundary only.  Inside, each automaton steps the lattice's
*mask antichains* over one numbering of its states (see
:mod:`altia.lattice`): bottom is the empty set and top ``{0}``, the
empty clause.  A clause's image under a label, the meet of its members'
targets, exists only there: :meth:`AIA.step` joins clause images,
:func:`induce_ia` searches clauses by them, and the kernel names mask
antichains, so no search that writes states converts to ``Config``.  A
kernel of few states joins three or more clause images on up-sets, the
2**n-bit truth tables of the configurations as monotone functions, where
join is ``|``, and decodes each successor's up-set to its mask antichain
once.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .errors import AlphabetError, ModelError
from .ia import IA, FTrace, _check_label
from .lattice import (
    _TOP_MASKS,
    Config,
    _Masks,
    _mask_antichain,
    _mask_meet,
    _Numbering,
    _clause_text,
    _from_antichain,
    _write,
    bot,
    quote_name,
    top,
)
from .search import Search

# Clause images with more clauses than this are recomputed, not memoised:
# they are seldom met again and would hold most of the memo's memory.
# The bound governs the mask images of one- and two-clause joins, of
# induce_ia's clauses, and of every join in kernels above _UP_MAX_STATES
# states.  Measured there on a 2-core Xeon host, bounds 4 / 8 / none:
# det(rand_aia(SplitMix64(4), n_states=30), cap=600), 29 states, which
# hits the cap, took 8.0 / 8.9 / 9.6 s and peaked at 56 / 69 / 159 MB;
# det of 8 exactly-14-state rand_aia specs drawn from SplitMix64(5)
# (cap 4000, 7,337 states, 5 specs capped) took 6.7 / 4.5 / 3.5 s at
# 85 / 87 / 91 MB.
_IMAGE_MEMO_MAX_CLAUSES = 8

# Kernels of at most this many states join three or more clause images
# on up-sets (see _UpSets).  An up-set has 2**n bits and the up-set memos
# keep one per clause image and per successor, so their memory grows as
# 2**n times the configurations met, up to DEFAULT_CAP of them: at 12
# states 512 bytes each, about 50 MB for a capped search.  det of 8
# rand_aia specs of exactly n states drawn from SplitMix64(5) (cap 4000),
# absorption -> up-sets, time and peak RSS on a 2-core Xeon host:
#   n =  8:  3,007 states, 0.19 -> 0.14 s,  20 ->  20 MB
#   n = 10:  8,127 states, 0.71 -> 0.30 s,  31 ->  32 MB
#   n = 12: 11,244 states, 1.38 -> 0.57 s,  43 ->  53 MB
#   n = 13:  8,750 states, 2.78 -> 1.30 s,  60 ->  96 MB (2 specs capped)
#   n = 14:  7,337 states, 4.64 -> 2.88 s,  87 -> 220 MB (5 capped)
#   n = 16:  2,920 states, 8.04 -> 12.7 s, 127 -> 986 MB (6 capped)
# Above 12 states the memory grows faster than the time falls.
_UP_MAX_STATES = 12

_UP_HAS: dict[int, tuple[tuple[int, int], ...]] = {}  # n -> ((NotHas_i, 2**i), ...)


def _up_tables(n: int) -> tuple[tuple[int, int], ...]:
    """Per bit i of n states, the 2**n-bit table of the subsets without
    state i (NotHas_i), paired with 2**i, the shift from such a subset
    to the one with i added; computed once per n."""
    tables = _UP_HAS.get(n)
    if tables is None:
        full = (1 << (1 << n)) - 1
        # Has_i repeats 2**i zeros, then 2**i ones, from subset 0 upwards
        tables = _UP_HAS[n] = tuple(
            (full ^ full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)), 1 << i)
            for i in range(n)
        )
    return tables


class _MaskKernel:
    """One automaton's states as bits, its transitions as mask antichains,
    and the memos of its steps and names; see :class:`AIA`.

    Every successor the step memo holds is one object per value: the
    successor memo ``successors``, seeded with top, bottom and
    ``initial``, gives each new successor the first object of its value.
    The table that :func:`~altia.search.reachable` returns therefore holds
    its own key objects in its rows, and every dict or set keyed by those
    keys finds a successor by identity instead of comparing clause masks.

    The name memo renders a mask antichain from per-clause entries kept
    once per kernel: each clause mask's bit indices, which sort exactly
    like its sorted member names, since bits are numbered in sorted-name
    order, and its text, from the members' quoted names, each state quoted
    once per kernel.

    A kernel of at most ``_UP_MAX_STATES`` states joins three or more
    clause images on up-sets (:class:`_UpSets`): ``|`` of per-label
    memoised clause-image up-sets, then one lookup of the up-set's mask
    antichain, decoded once, instead of absorbing the union of the
    images.  The up-set memos are built on the first such join and the
    targets' up-sets on first use.  Both gates are measured.  Larger
    kernels keep absorption, since an up-set has 2**n bits (see
    ``_UP_MAX_STATES``).  One- and two-clause joins keep it too: with
    every multi-clause join on up-sets, the benchmark's ``conjoin``
    op_p50_ms, whose median operation steps cold 5-state views'
    two-clause configurations, read 0.099 ms against 0.064 ms with this
    gate (medians of 3 alternating pairs, 2-core Xeon host).  Either
    path's successor goes through the successor memo, so both keep one
    object per value.

    The step memo may hold entries that this kernel never computed:
    :func:`~altia.determinize.det` seeds its automaton's kernel with the
    determinization table.  A count of step computations must therefore
    not read the step memo's size as the number of steps computed; the
    seeded entries were computed by the spec's kernel.
    """

    __slots__ = (
        "numbering", "transitions", "images", "steps", "successors", "configs", "masks",
        "initial", "names", "clause_texts", "quoted", "small", "up",
    )

    def __init__(self, s: AIA):
        self.numbering = _Numbering(sorted(s.states))
        self.transitions = s.transitions  # targets are encoded when first met
        # the boundary memo, both ways; top and bottom decode to the
        # lattice's own objects, every other successor equal to the
        # initial configuration to that object
        self.configs: dict[_Masks, Config] = {_TOP_MASKS: top(), frozenset(): bot()}
        self.masks: dict[Config, _Masks] = {e: m for m, e in self.configs.items()}
        self.initial = self.encode(s.initial)  # where every search starts
        self.images: dict[str, dict[int, _Masks]] = {l: {} for l in s.labels}
        self.steps: dict[tuple[_Masks, str], _Masks] = {}
        bottom, initial = frozenset(), self.initial
        # initial last: a top or bottom initial configuration is its own object
        self.successors: dict[_Masks, _Masks] = {
            _TOP_MASKS: _TOP_MASKS, bottom: bottom, initial: initial,
        }
        self.names: dict[_Masks, str] = {}
        # clause mask -> (its bit indices, its text)
        self.clause_texts: dict[int, tuple[tuple[int, ...], str]] = {}
        self.quoted: Optional[tuple[str, ...]] = None  # the states' quoted names, in bit order
        # the numbering never grows: whether wide joins go on up-sets is
        # fixed per kernel, and their memos are built on the first one
        self.small = len(self.numbering.names) <= _UP_MAX_STATES
        self.up: Optional[_UpSets] = None

    def encode(self, e: Config) -> _Masks:
        """The mask antichain of a configuration over this automaton's states."""
        m = self.masks.get(e)
        if m is None:
            try:
                m = self.numbering.encode(e.clauses)
            except KeyError as missing:
                raise ModelError(f"configuration uses undeclared state {missing}") from None
            self.masks[e] = m
            self.configs.setdefault(m, e)
        return m

    def decode(self, m: _Masks) -> Config:
        """The configuration of a mask antichain, one object per value."""
        e = self.configs.get(m)
        if e is None:
            e = self.configs.setdefault(m, self.numbering.decode(m))
            self.masks[e] = m
        return e

    def name(self, m: _Masks) -> str:
        """The expression string of the mask antichain ``m`` (see expr_str),
        rendered once per kernel: every later call returns that object."""
        name = self.names.get(m)
        if name is None:
            texts = self.clause_texts
            # bit-index tuples of distinct clauses differ: no text is compared
            entries = sorted([texts.get(c) or self._clause_entry(c) for c in m])
            name = self.names[m] = _write([text for _, text in entries])
        return name

    def _clause_entry(self, c: int) -> tuple[tuple[int, ...], str]:
        quoted = self.quoted
        if quoted is None:
            quoted = self.quoted = tuple(map(quote_name, self.numbering.names))
        bits = self.numbering.indices(c)
        entry = self.clause_texts[c] = (bits, _clause_text([quoted[i] for i in bits]))
        return entry

    def image(self, c: int, label: str) -> _Masks:
        """The meet of the targets of clause ``c``'s members under ``label``."""
        images = self.images[label]
        img = images.get(c)
        if img is None:
            img = _TOP_MASKS
            for q in self.numbering.clause(c):
                img = _mask_meet(img, self.encode(self.transitions[q][label]))
                if not img:  # bottom absorbs the remaining members
                    break
            if len(img) <= _IMAGE_MEMO_MAX_CLAUSES:
                images[c] = img
        return img

    def step(self, e: _Masks, label: str) -> _Masks:
        """The successor of ``e`` under ``label``: the join of its clauses'
        images; a one-clause configuration's image as it is, and three or
        more clauses of a small kernel joined on up-sets."""
        key = (e, label)
        succ = self.steps.get(key)
        if succ is None:
            if len(e) > 2 and self.small:
                up = self.up
                if up is None:
                    up = self.up = _UpSets(self)
                succ = up.join(self, e, label)
            else:
                images = self.images[label]
                joined: set[int] = set()
                for c in e:
                    img = images.get(c)  # image()'s own lookup, without the call
                    if img is None:
                        img = self.image(c, label)
                    joined |= img
                # one clause's image is an antichain already
                succ = img if len(e) == 1 else _mask_antichain(joined)
            succ = self.steps[key] = self.successors.setdefault(succ, succ)
        return succ


class _UpSets:
    """A small kernel's configurations as up-sets, for joins of three or
    more clause images; see :class:`_MaskKernel`.

    Over n states a subset is an index below 2**n, and a mask antichain
    is the 2**n-bit ``int`` of the subsets that contain one of its
    clauses: its monotone Boolean function as a truth table.  Meet is
    then ``&`` and join ``|``.  A clause's image is the ``&`` of its
    members' target up-sets, a successor the ``|`` of its clauses'
    images, and each up-set met is decoded once to the mask antichain of
    its minimal subsets.
    """

    __slots__ = ("full", "tables", "targets", "images", "antichains")

    def __init__(self, k: _MaskKernel):
        n = len(k.numbering.names)
        self.full = (1 << (1 << n)) - 1  # top: every subset
        self.tables = _up_tables(n)
        self.targets: dict[str, list[Optional[int]]] = {l: [None] * n for l in k.images}
        self.images: dict[str, dict[int, int]] = {l: {} for l in k.images}
        self.antichains: dict[int, _Masks] = {}

    def join(self, k: _MaskKernel, e: _Masks, label: str) -> _Masks:
        """The successor of ``e`` under ``label``, one object per up-set."""
        images = self.images[label]
        u = 0
        for c in e:
            img = images.get(c)
            if img is None:
                img = images[c] = self._image(k, c, label)
            u |= img
        succ = self.antichains.get(u)
        if succ is None:
            succ = self.antichains[u] = self._antichain(u)
        return succ

    def _image(self, k: _MaskKernel, c: int, label: str) -> int:
        targets, names = self.targets[label], k.numbering.names
        img = self.full
        for i in k.numbering.indices(c):
            t = targets[i]
            if t is None:
                t = targets[i] = self._up_set(k.encode(k.transitions[names[i]][label]))
            img &= t
            if not img:  # bottom absorbs the remaining members
                break
        return img

    def _up_set(self, m: _Masks) -> int:
        """The up-set of the mask antichain ``m``: per clause, the subsets
        in no NotHas_i of its members."""
        tables, full, u = self.tables, self.full, 0
        for c in m:
            out = 0
            for i, (not_has, _) in enumerate(tables):
                if c >> i & 1:
                    out |= not_has
            u |= full ^ out
        return u

    def _antichain(self, u: int) -> _Masks:
        """The minimal subsets of the up-set ``u`` as clause masks: those
        with no one-smaller subset in ``u``."""
        covered = 0
        for not_has, shift in self.tables:
            covered |= (u & not_has) << shift
        low = u & ~covered
        masks = []
        while low:
            bit = low & -low
            masks.append(bit.bit_length() - 1)
            low ^= bit
        return frozenset(masks)


class AIA:
    """An alternating interface automaton.

    ``transitions`` maps state -> label name -> Config; omitted entries
    default to top for inputs and bottom for outputs, matching the
    convention that an undrawn input is underspecified and an undrawn
    output is forbidden.  The stored table is total.  Instances are
    immutable and all operations on them are pure.

    The one piece of internal state is the mask kernel, built on first
    use.  It keeps one lattice numbering of the declared states, which
    never grows, so a configuration with an undeclared state is refused
    with :class:`~altia.errors.ModelError`, and five memos: the step
    memo by ``(mask antichain, label)``, so every search over the
    automaton computes each step once, joining three or more clauses of
    a kernel of at most ``_UP_MAX_STATES`` states on up-sets, with their
    own memos (per label, the up-sets of each state's target and of each
    clause image, and the mask antichain of each up-set met; see
    :class:`_MaskKernel`); the successor memo, seeded with
    top, bottom and the initial configuration, which gives every new
    successor the first object of its value, so the determinization
    table's rows hold its own keys, and the searches' seen-sets and the
    relabellings of ``det`` and ``build_tester`` find each successor by
    identity; per label, the images (the meet of the members' targets)
    of clauses, when of at most ``_IMAGE_MEMO_MAX_CLAUSES`` clauses,
    since a successor is the join of its clauses' images; the name memo,
    the expression string of each mask antichain the kernel has named,
    built from each clause's text and sort key and each state's quoted
    name, all kept once per kernel, so ``det`` and ``build_tester`` on
    one automaton render each configuration once and share the strings;
    and the boundary memo between mask antichains and ``Config``, keyed
    by value and seeded with ``initial``, which decodes each mask
    antichain once, so equal successors are one object, also from a
    configuration built apart.  The boundary memo stays for
    the step memo's sake: a ``Config`` a public step returned encodes back
    to the very mask antichain the searches step, so their step-memo keys
    hit by identity instead of comparing thousands of clause masks.
    Without it, on ``conjoin``'s 8- and 9-fold conjunctions, a
    ``leq_aia(c, view)`` after public steps of ``c`` took a median 0.05
    and 0.12 ms against 0.01 ms, and the benchmark's ``conjoin`` op_p50_ms
    went from 0.06 to 0.22 ms (2-core Xeon host).  The automaton that
    ``det`` returns arrives with its kernel built and its step memo
    seeded: the determinization table over its own one-state mask
    antichains, one object of its successor memo each, so the searches
    over it find every step of a state computed already.  All memos are
    freed with the automaton.  They cache pure functions of the immutable
    transitions and the state names: a race between threads can at worst
    build two kernels or two sets of up-set memos, compute a successor,
    an image, an up-set, an up-set's mask antichain, a clause's names or
    text, the quoted state names or a configuration's name twice, or keep
    two equal objects, and equal objects still compare equal.  A seeded
    kernel is filled before ``det`` returns its automaton, so no other
    thread sees it unseeded.
    """

    def __init__(self, states, inputs, outputs, transitions, initial, name="aia"):
        self.name = name
        self.states = frozenset(states)
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        overlap = self.inputs & self.outputs
        if overlap:
            raise AlphabetError(f"inputs and outputs overlap: {sorted(overlap)}")
        if not isinstance(initial, Config):
            raise ModelError("initial configuration must be a Config")
        if not initial.states() <= self.states:
            raise ModelError(
                f"initial configuration uses undeclared states "
                f"{sorted(initial.states() - self.states)}"
            )
        self.initial = initial

        for q in transitions:
            if q not in self.states:
                raise ModelError(f"transition from undeclared state {q!r}")
        table: dict[str, dict[str, Config]] = {}
        for q in self.states:
            given = transitions.get(q, {})
            for label in given:
                if label not in self.inputs and label not in self.outputs:
                    raise AlphabetError(f"transition on undeclared label {label!r}")
            row: dict[str, Config] = {}
            for a in self.inputs:
                cfg = given.get(a, top())
                if cfg.is_bot:
                    raise ModelError(f"input transition {q!r} --{a}--> may not be bottom")
                row[a] = cfg
            for x in self.outputs:
                row[x] = given.get(x, bot())
            for label, cfg in row.items():
                if not cfg.states() <= self.states:
                    raise ModelError(
                        f"transition {q!r} --{label}--> uses undeclared states "
                        f"{sorted(cfg.states() - self.states)}"
                    )
            table[q] = row
        self.transitions = table
        self._kernel: Optional[_MaskKernel] = None

    @classmethod
    def _valid(cls, states, inputs, outputs, transitions, initial, name) -> AIA:
        """An automaton from parts that are valid by construction, taken as
        they are: frozenset alphabets, a total table over ``states`` and
        configurations over them, no input to bottom."""
        self = object.__new__(cls)
        self.name = name
        self.states = frozenset(states)
        self.inputs = inputs
        self.outputs = outputs
        self.initial = initial
        self.transitions = transitions
        self._kernel = None
        return self

    @property
    def labels(self) -> frozenset[str]:
        return self.inputs | self.outputs

    def _masks(self) -> _MaskKernel:
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = _MaskKernel(self)
        return kernel

    def step(self, e: Config, label_name: str) -> Config:
        """One-step successor configuration of ``e`` under a label name:
        ``e`` with each state replaced by its target, renormalized."""
        k = self._masks()
        if label_name not in k.images:
            raise AlphabetError(f"{label_name!r} is not a label of {self.name!r}")
        return k.decode(k.step(k.encode(e), label_name))

    def __eq__(self, other):
        if not isinstance(other, AIA):
            return NotImplemented
        return (
            self.states == other.states
            and self.inputs == other.inputs
            and self.outputs == other.outputs
            and self.initial == other.initial
            and self.transitions == other.transitions
        )

    __hash__ = None

    def __repr__(self):
        return f"AIA({self.name!r}, {len(self.states)} states)"


def _walk(s: AIA, m: _Masks, trace) -> _Masks:
    """The mask antichain reached from ``m`` along a label sequence."""
    step = s._masks().step
    for lab in trace:
        _check_label(s, lab)
        m = step(m, lab.name)
    return m


def after(s: AIA, e: Config, trace) -> Config:
    """The configuration reached from ``e`` along a label sequence."""
    k = s._masks()
    return k.decode(_walk(s, k.encode(e), trace))


def after_trace(s: AIA, trace) -> Config:
    """``after`` from the initial configuration."""
    k = s._masks()
    return k.decode(_walk(s, k.initial, trace))


def ftrace_member(s: AIA, ft: FTrace) -> bool:
    """Input-failure trace membership.

    A plain trace belongs iff it does not reach bottom; a
    failure-terminated one iff accepting the refused input would reach
    top (the input is underspecified there).
    """
    if ft.failure is not None and ft.failure not in s.inputs:
        raise AlphabetError(f"~{ft.failure} does not refuse an input of {s.name!r}")
    k = s._masks()
    m = _walk(s, k.initial, ft.body)
    if ft.failure is None:
        return bool(m)  # not bottom
    return 0 in k.step(m, ft.failure)  # top


class TraceStatus(Enum):
    ALLOWED = "Allowed"
    FORBIDDEN = "Forbidden"
    UNDERSPECIFIED = "Underspecified"


def trace_verdict(s: AIA, trace) -> tuple[TraceStatus, Config]:
    """Three-way verdict for a plain trace, with the reached configuration."""
    e = after_trace(s, trace)
    if e.is_bot:
        return TraceStatus.FORBIDDEN, e
    if e.is_top:
        return TraceStatus.UNDERSPECIFIED, e
    return TraceStatus.ALLOWED, e


def _require_same_alphabets(a, b):
    if a.inputs != b.inputs or a.outputs != b.outputs:
        raise AlphabetError(
            f"{a.name!r} and {b.name!r} have different alphabets; "
            "composition and refinement need identical inputs and outputs"
        )


def rename_states(s: AIA, mapping) -> AIA:
    """Copy of ``s`` with states renamed by an injective mapping."""
    if len(set(mapping[q] for q in s.states)) != len(s.states):
        raise ModelError("state renaming must be injective")

    def rename(cfg: Config) -> Config:  # injective: an antichain maps to an antichain
        return _from_antichain(frozenset(frozenset(mapping[q] for q in c) for c in cfg.clauses))

    trans = {
        mapping[q]: {l: rename(cfg) for l, cfg in row.items()}
        for q, row in s.transitions.items()
    }
    return AIA(
        [mapping[q] for q in s.states],
        s.inputs,
        s.outputs,
        trans,
        rename(s.initial),
        name=s.name,
    )


def _force_disjoint(s1: AIA, s2: AIA) -> tuple[AIA, AIA]:
    if s1.states & s2.states:
        s1 = rename_states(s1, {q: q + "#1" for q in s1.states})
        s2 = rename_states(s2, {q: q + "#2" for q in s2.states})
    return s1, s2


def _compose(s1: AIA, s2: AIA, combine, name: str) -> AIA:
    _require_same_alphabets(s1, s2)
    a, b = _force_disjoint(s1, s2)
    trans = {q: dict(row) for q, row in a.transitions.items()}
    trans.update({q: dict(row) for q, row in b.transitions.items()})
    return AIA(
        a.states | b.states,
        s1.inputs,
        s1.outputs,
        trans,
        combine(a.initial, b.initial),
        name=name,
    )


def conj(s1: AIA, s2: AIA, name: Optional[str] = None) -> AIA:
    """Conjunction: behaviour allowed by both operands."""
    return _compose(s1, s2, lambda a, b: a & b, name or f"({s1.name} and {s2.name})")


def disj(s1: AIA, s2: AIA, name: Optional[str] = None) -> AIA:
    """Disjunction: behaviour allowed by either operand."""
    return _compose(s1, s2, lambda a, b: a | b, name or f"({s1.name} or {s2.name})")


def aia_top(inputs, outputs, name="top") -> AIA:
    """The specification that allows everything."""
    return AIA((), inputs, outputs, {}, top(), name=name)


def aia_bot(inputs, outputs, name="bottom") -> AIA:
    """The specification that allows nothing."""
    return AIA((), inputs, outputs, {}, bot(), name=name)


def _states_join(names) -> Config:
    # distinct single-state clauses contain no other: an antichain as it stands
    return _from_antichain(frozenset(frozenset((q,)) for q in names))


def induce_aia(i: IA) -> AIA:
    """The alternating view of an interface automaton.

    Successor sets become disjunctions; an input without transitions
    becomes top (underspecified), an output without transitions bottom
    (forbidden, since an empty disjunction is bottom).
    """
    trans: dict[str, dict[str, Config]] = {}
    for q in i.states:
        row: dict[str, Config] = {}
        for a in i.inputs:
            succs = i.succ(q, a)
            row[a] = _states_join(succs) if succs else top()
        for x in i.outputs:
            row[x] = _states_join(i.succ(q, x))
        trans[q] = row
    return AIA(
        i.states,
        i.inputs,
        i.outputs,
        trans,
        _states_join(i.initial),
        name=f"aia({i.name})",
    )


def induce_ia(s: AIA) -> IA:
    """The interface-automaton view of an alternating one.

    States are the clauses reachable from the initial configuration's
    normal form; each acts as the conjunction of its members.  The empty
    clause is chaotic: all its behaviour is unconstrained.  Moving to a
    fully underspecified input is expressed by removing the transition
    rather than by an edge, so only reachable clauses are materialized.
    The clauses are searched as masks, each stepped to its image in the
    mask kernel.
    """
    k = s._masks()
    search = Search(k.initial)
    trans: dict[str, dict[str, set[str]]] = {}
    labels = sorted(s.inputs) + sorted(s.outputs)
    for _, c in search:
        row: dict[str, set[str]] = {}
        for label in labels:
            succs = k.image(c, label)
            if label in s.inputs:
                succs = succs - _TOP_MASKS
            if succs:
                row[label] = {k.name(frozenset((d,))) for d in succs}
                for d in succs:
                    search.push(d)
        trans[k.name(frozenset((c,)))] = row
    return IA(
        set(trans),
        s.inputs,
        s.outputs,
        trans,
        {k.name(frozenset((c,))) for c in k.initial},
        name=f"ia({s.name})",
    )
