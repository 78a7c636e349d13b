"""The mask kernel: how one automaton steps its configurations.

Every search over an automaton steps its configurations through the
automaton's kernel, built on first use and freed with it.  The kernel
numbers the declared states once, in sorted-name order, and never grows,
so a configuration with an undeclared state is refused with
:class:`~altia.errors.ModelError`.  A clause is the ``int`` with one bit
per member, a configuration the frozenset of its clause masks, a *mask
antichain* (see :mod:`altia.lattice`).  Only this module and the lattice
read masks, and only this module imports a mask name: it meets mask
antichains with :func:`_mask_meet`, defined here, and absorbs them with
the lattice's ``_mask_antichain``.  The parser builds configurations
with the lattice's ``meet_all`` and ``join_all``.

The searches see a configuration as its *id*, a plain int: the kernel
numbers every configuration value it meets densely, in the order it
meets them, with 0 for top and 1 for bottom in every kernel (``k.top``
and ``k.bottom``), so an id above ``k.bottom`` is a nontrivial
configuration.  Other modules use this interface and nothing else of a
kernel:

- ``top``, ``bottom`` and ``initial``, the ids of top, bottom and the
  automaton's initial configuration;
- ``labels``, the sorted inputs, then the sorted outputs, and ``index``,
  label -> its index there;
- ``step(e, j)``, the successor id of ``e`` under the label of index
  ``j``; ``row(e)``, the successor ids by label index as far as they are
  filled, and ``full_row(e)``, the row with every slot filled;
- ``clauses(e)``, the ids of ``e``'s clauses as one-clause
  configurations, each of which steps to its clause's image;
- ``at_most_one_state(e)`` and ``name(e)``, its expression string;
- ``encode`` and ``decode``, the boundary with ``Config``, and
  ``seed``, which fills rows from a determinization table.

The memos:

- ``records``, one per label, built by the first clause image under
  that label in one pass over the states, not when the kernel is built,
  which every cold automaton pays for (a small kernel's first packed
  row, below, builds the records of every label at once):
  ``(dead, free, targets, images)``.
  ``dead`` is the mask of the states whose target is bottom and ``free``
  of those whose target is top; ``targets`` holds each state's target by
  state bit, bottom and top as ``bottom_masks`` and ``top_masks``
  themselves; ``images`` memoises each clause's image (the meet of its
  members' targets) of at most ``_IMAGE_MEMO_MAX_CLAUSES`` clauses.  A
  clause that meets ``dead`` has the image ``bottom_masks`` and one within
  ``free`` the image ``top_masks``, each found with one ``&`` and not
  memoised; any other clause meets the targets of its members outside
  ``free`` only.  After ``?b`` a conjunction of views has hundreds of
  clauses, nearly all of them with a member whose target is bottom;
- ``ids``, mask antichain -> id, and ``objs``, id -> the first mask
  antichain of its value, which the miss path steps;
- ``rows``, id -> successor ids by label index, one list per id made
  when the id is numbered, each slot filled by the first step that
  misses it, or all of them at once for a packed row (below); the rows
  of top and bottom, which step to themselves, are filled when the
  kernel is built.  ``det`` seeds its automaton's rows
  (:meth:`_MaskKernel.seed`), so their filled slots count no steps;
- in a kernel of at most ``_UP_MAX_STATES`` states, the memos of the
  packed rows of :class:`_UpSets`, which fill the whole row of a
  configuration of three or more clauses on its first step: per state,
  its target up-sets under every label in one int; per clause, its
  image under every label in one int; and up-set -> successor id;
- the name memo by id, built from per-state quoted names and per-clause
  texts, sorted by bit indices, which sort like the member names since
  bits follow sorted-name order; ``det`` and ``build_tester`` share its
  strings;
- the boundary memo between mask antichains and ``Config``, keyed by
  value, which decodes each mask antichain once: a ``Config`` a public
  step returned encodes back to the very id the searches step.  Without
  it, the benchmark's ``conjoin`` op_p50_ms went from 0.06 to 0.22 ms
  (2-core Xeon host).

A race between threads can at worst build a kernel or an entry twice, or
keep two equal objects; new values are numbered, and their rows made,
under a lock, so no value gets two ids and a row list is never replaced
once it can be read: a slot two threads step gets the same id from
each.  Each search holds one kernel throughout, since ids of two
kernels of one automaton differ.  ``det`` seeds a kernel before
it returns its automaton, so no other thread sees it unseeded.
"""

from __future__ import annotations

from _thread import allocate_lock
from typing import Optional, Sequence

from .errors import ModelError
from .lattice import (
    Config,
    _Masks,
    _mask_antichain,
    _Numbering,
    _clause_text,
    _write,
    bot,
    quote_name,
    top,
)


def _mask_meet(a: _Masks, b: _Masks) -> _Masks:
    """The meet of two mask antichains, with top ``{0}`` as its unit."""
    if 0 in b:
        return a
    if 0 in a:
        return b
    return _mask_antichain({x | y for x in a for y in b})


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

# Kernels of at most this many states fill the rows of configurations of
# three or more clauses on packed up-sets (see _UpSets).  An up-set has
# 2**n bits and the packed memos keep one per label for each clause image
# met, and one per successor, so their memory grows as 2**n times the
# configurations met, up to DEFAULT_CAP of them: at 12 states 512 bytes
# each, about 50 MB for a capped search.  det of 8 rand_aia specs (2
# inputs, 2 outputs) of exactly n states drawn from SplitMix64(5), cap
# 4000, absorption -> packed up-sets, time (two runs) and peak RSS on a
# 2-core Xeon host:
#   n =  8:  3,007 states, 0.08-0.11 -> 0.05-0.06 s, 19 ->  19 MB
#   n = 10:  8,127 states, 0.41-0.43 -> 0.16-0.18 s, 27 ->  29 MB
#   n = 12: 11,244 states, 0.85-0.88 -> 0.39 s,      37 ->  49 MB
#   n = 13:  8,750 states, 1.89-2.47 -> 0.78-0.79 s, 53 ->  95 MB (2 specs capped)
#   n = 14:  7,337 states, 3.11-3.56 -> 2.04-2.36 s, 76 -> 218 MB (5 capped)
# On the earlier per-label up-sets, n = 16 (2,920 states, 6 capped) took
# 8.04 -> 12.7 s at 127 -> 986 MB.  At 14 states and above the memory
# grows faster than the time falls; no workload runs a kernel of 13.
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
    """One automaton's states as bits, its configurations as ids, and the
    memos of its steps and names; see the module docstring.

    A kernel of at most ``_UP_MAX_STATES`` states fills the whole row of
    a configuration of three or more clauses at once, on packed up-sets
    (:class:`_UpSets`), instead of absorbing the union of its clause
    images label by label; larger kernels, whose up-sets would have 2**n
    bits, and configurations of one or two clauses keep absorption, one
    slot per step.  With every multi-clause join on up-sets, the
    benchmark's ``conjoin`` op_p50_ms, whose median operation steps cold
    5-state views' two-clause configurations, read 0.099 ms against
    0.064 ms with this gate (medians of 3 alternating pairs, 2-core Xeon
    host); with every small kernel's row packed, whatever its clause
    count, it read 0.28-0.30 ms against 0.055-0.057 ms (3 alternating
    pairs of 12 s runs, same host).  Either path's successors are
    numbered by ``intern``.
    """

    __slots__ = (
        "numbering", "trans", "labels", "index", "records", "ids", "objs", "rows", "lock",
        "configs", "masks", "initial", "names", "clause_texts", "quoted", "small", "up",
    )
    top, bottom = 0, 1  # the ids of top and bottom in every kernel
    # the same two objects in every kernel: top is the one empty clause
    top_masks, bottom_masks = frozenset((0,)), frozenset()

    def __init__(self, s):
        states = sorted(s.states)
        self.numbering = _Numbering(states)
        self.trans = [s.transitions[q] for q in states]  # by bit
        self.labels = (*sorted(s.inputs), *sorted(s.outputs))  # by label index
        self.index = {l: j for j, l in enumerate(self.labels)}
        # label -> (dead, free, targets, images), see _record()
        self.records: dict[str, tuple[int, int, list[_Masks], dict[int, _Masks]]] = {}
        # top and bottom are ids 0 and 1; intern numbers the others
        self.ids: dict[_Masks, int] = {self.top_masks: 0, self.bottom_masks: 1}
        self.objs: list[_Masks] = [self.top_masks, self.bottom_masks]
        # top and bottom step to themselves; intern makes every other row
        width = len(self.labels)
        self.rows: list[list[Optional[int]]] = [[0] * width, [1] * width]
        self.names: dict[int, str] = {}
        self.lock = allocate_lock()
        self.configs: dict[_Masks, Config] = {self.top_masks: top(), self.bottom_masks: bot()}
        self.masks: dict[Config, _Masks] = {top(): self.top_masks, bot(): self.bottom_masks}
        self.initial = self.encode(s.initial)  # where every search starts
        # clause mask -> (its bit indices, its text)
        self.clause_texts: dict[int, tuple[tuple[int, ...], str]] = {}
        self.quoted: Optional[tuple[str, ...]] = None  # the states' quoted names, in bit order
        # the numbering never grows: whether wide rows are packed is fixed
        # per kernel, and their memos are built on the first one
        self.small = len(states) <= _UP_MAX_STATES
        self.up: Optional[_UpSets] = None

    def intern(self, m: _Masks) -> int:
        """The id of the mask antichain ``m``; a new value gets the next id,
        a row with no slot filled and ``m`` as the object the miss path
        steps."""
        i = self.ids.get(m)
        if i is None:
            with self.lock:
                i = self.ids.get(m)
                if i is None:
                    i = len(self.objs)
                    self.objs.append(m)
                    self.rows.append([None] * len(self.labels))
                    self.ids[m] = i
        return i

    def encode(self, e: Config) -> int:
        """The id of a configuration over this automaton's states."""
        m = self.masks.get(e)
        if m is None:
            try:
                m = self.numbering.encode(e.clauses)
            except KeyError as missing:
                raise ModelError(f"configuration uses undeclared state {missing}") from None
            self.masks[e] = m
            self.configs.setdefault(m, e)
        return self.intern(m)

    def decode(self, e: int) -> Config:
        """The configuration of id ``e``, one object per value."""
        m = self.objs[e]
        c = self.configs.get(m)
        if c is None:
            c = self.configs.setdefault(m, self.numbering.decode(m))
            self.masks[c] = m
        return c

    def clauses(self, e: int) -> list[int]:
        """The ids of the clauses of id ``e``, each as a one-clause
        configuration, whose step is that clause's image."""
        intern = self.intern
        return [intern(frozenset((c,))) for c in self.objs[e]]

    def at_most_one_state(self, e: int) -> bool:
        """Whether id ``e`` is top, bottom or a single state."""
        m = self.objs[e]
        return len(m) <= 1 and all(c & (c - 1) == 0 for c in m)

    def name(self, e: int) -> str:
        """The expression string of id ``e`` (see expr_str), rendered once
        per kernel: every later call returns that object."""
        name = self.names.get(e)
        if name is None:
            texts = self.clause_texts
            # bit-index tuples of distinct clauses differ: no text is compared
            entries = sorted([texts.get(c) or self._clause_entry(c) for c in self.objs[e]])
            name = self.names[e] = _write([text for _, text in entries])
        return name

    def _clause_entry(self, c: int) -> tuple[tuple[int, ...], str]:
        quoted = self.quoted
        if quoted is None:
            quoted = self.quoted = tuple(map(quote_name, self.numbering.names))
        bits = self.numbering.indices(c)
        entry = self.clause_texts[c] = (bits, _clause_text([quoted[i] for i in bits]))
        return entry

    def _record(self, label: str) -> tuple:
        """The record ``(dead, free, targets, images)`` of ``label`` (see
        the module docstring), with every target encoded here once and an
        empty image memo; built by the first image under ``label``, whose
        caller looks it up first."""
        dead = free = 0
        targets: list[_Masks] = []
        for i, row in enumerate(self.trans):
            t = row[label]
            if t.is_bot:
                dead |= 1 << i
                targets.append(self.bottom_masks)
            elif t.is_top:
                free |= 1 << i
                targets.append(self.top_masks)
            else:
                targets.append(self.numbering.encode(t.clauses))
        record = self.records[label] = (dead, free, targets, {})
        return record

    def image(self, c: int, label: str) -> _Masks:
        """The meet of the targets of clause ``c``'s members under ``label``,
        in one of three ways: ``bottom_masks`` itself if a member's target is
        bottom (``c & dead``), ``top_masks`` itself if every member's target
        is top (``c & ~free == 0``), and otherwise the meet of the targets of
        the members outside ``free``, memoised if of at most
        ``_IMAGE_MEMO_MAX_CLAUSES`` clauses; see :meth:`_record`."""
        dead, free, targets, images = self.records.get(label) or self._record(label)
        img = images.get(c)
        if img is None:
            if c & dead:
                return self.bottom_masks
            rest = c & ~free
            if not rest:
                return self.top_masks
            img = self.top_masks
            for i in self.numbering.indices(rest):
                img = _mask_meet(img, targets[i])
            if len(img) <= _IMAGE_MEMO_MAX_CLAUSES:
                images[c] = img
        return img

    def row(self, e: int) -> Sequence[Optional[int]]:
        """The row of id ``e``: its successor ids by label index, ``None``
        in a slot not stepped yet.  It is the kernel's own and may be filled
        later: read it, never write it, and step a ``None`` slot with
        :meth:`step`."""
        return self.rows[e]

    def full_row(self, e: int) -> Sequence[int]:
        """The row of id ``e`` with every slot filled."""
        r = self.rows[e]
        if None in r:
            for j, t in enumerate(r):
                if t is None:
                    self.step(e, j)
        return r

    def step(self, e: int, j: int) -> int:
        """The id of the successor of id ``e`` under the label of index
        ``j``, computed on the first call and then read from the row: the
        join of its clauses' images under that label's record (see
        :meth:`image`), which is top as soon as one image is top; a
        one-clause configuration's image as it is.  Three or more clauses
        of a small kernel fill the whole row at once (:meth:`_UpSets.fill`)."""
        t = self.rows[e][j]
        if t is not None:
            return t
        m = self.objs[e]
        if len(m) > 2 and self.small:
            up = self.up
            if up is None:
                up = self.up = _UpSets(self)
            return up.fill(self, e)[j]
        label = self.labels[j]
        images = (self.records.get(label) or self._record(label))[3]
        top_masks, joined = self.top_masks, set()
        for c in m:
            img = images.get(c)  # image()'s own lookup, without the call
            if img is None:
                img = self.image(c, label)
            if img is top_masks:  # top absorbs the remaining clauses
                succ = img
                break
            joined |= img
        else:
            # one clause's image is an antichain already
            succ = img if len(m) == 1 else _mask_antichain(joined)
        t = self.ids.get(succ)  # intern()'s own lookup, without the call
        if t is None:
            t = self.intern(succ)
        self.rows[e][j] = t
        return t

    def seed(self, table: dict, states: dict) -> None:
        """Fill the rows from ``table``, the reachable table of another
        kernel with the same labels, whose id ``m`` is this kernel's state
        ``states[m]``: each row becomes the row of that state's one-state
        configuration.  Top and bottom have the same ids in both kernels.
        The states are numbered under one hold of the lock, and each row
        is written once."""
        to = {self.top: self.top, self.bottom: self.bottom}
        bit, ids, objs, rows = self.numbering.bit, self.ids, self.objs, self.rows
        with self.lock:
            for m, q in states.items():
                c = frozenset((bit[q],))
                i = ids.get(c)
                if i is None:
                    i = ids[c] = len(objs)
                    objs.append(c)
                    rows.append(None)  # every state has a row in table
                to[m] = i
            for m, row in table.items():
                rows[to[m]] = [to[t] for t in row]


class _UpSets:
    """A small kernel's configurations as up-sets, for rows of three or
    more clauses, filled a whole row at a time; see :class:`_MaskKernel`.

    Over n states a subset is an index below 2**n, and a mask antichain
    is the 2**n-bit ``int`` of the subsets that contain one of its
    clauses: its monotone Boolean function as a truth table.  Meet is
    then ``&`` and join ``|``.  A *packed* int holds one up-set per label
    side by side, the label of index ``j`` at bits ``j * 2**n``, so one
    ``&`` or ``|`` of two packed ints meets or joins under every label at
    once.  Each state keeps its targets under every label packed, read
    from the kernel's records on its first use; a clause's packed image
    is the ``&`` of its members', memoised per clause, and a row the
    ``|`` of its clauses' images, cut into one up-set per label.  Each
    up-set maps to its successor id, decoded to the mask antichain of
    its minimal subsets and numbered by ``intern`` on its first meeting.
    """

    __slots__ = ("width", "full", "tables", "targets", "states", "images", "ids")

    def __init__(self, k: _MaskKernel):
        n = len(k.numbering.names)
        self.width = 1 << n  # the bits of one up-set
        self.full = (1 << self.width) - 1  # top: every subset
        self.tables = _up_tables(n)
        # per label index, every state's target mask antichain by bit
        self.targets = [(k.records.get(l) or k._record(l))[2] for l in k.labels]
        self.states: list[Optional[int]] = [None] * n  # state bit -> its packed targets
        self.images: dict[int, int] = {}  # clause mask -> its packed image
        # up-set -> successor id; top and bottom are known
        self.ids: dict[int, int] = {self.full: k.top, 0: k.bottom}

    def fill(self, k: _MaskKernel, e: int) -> list[Optional[int]]:
        """Fill every slot of id ``e``'s row and return the row."""
        images, u = self.images, 0
        for c in k.objs[e]:
            img = images.get(c)
            if img is None:
                img = images[c] = self._image(k, c)
            u |= img
        row, ids, full, width = k.rows[e], self.ids, self.full, self.width
        for j in range(len(row)):
            chunk = u & full
            t = ids.get(chunk)
            if t is None:
                t = ids[chunk] = k.intern(self._antichain(chunk))
            row[j] = t
            u >>= width
        return row

    def _image(self, k: _MaskKernel, c: int) -> int:
        states, img = self.states, -1  # every bit set: top under every label
        for i in k.numbering.indices(c):
            p = states[i]
            if p is None:
                p = states[i] = self._pack(i)
            img &= p
            if not img:  # bottom under every label absorbs the remaining members
                break
        return img

    def _pack(self, i: int) -> int:
        """State ``i``'s target up-sets under every label, packed."""
        p, width = 0, self.width
        for targets in reversed(self.targets):
            p = p << width | self._up_set(targets[i])
        return p

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
