"""Batched tag-hierarchy kernel: the one LRU simulator of the timing path.

Every timing statistic (Figures 4 and 10–12) is a count of hits and
misses of an access stream through tag-only L1/L2/L3 LRU caches.  The
stream is a sequence of ``EV_*`` records, defined here.  The trace layer
decodes whole epochs into parallel numpy columns
(:class:`repro.traces.format.RecordColumns`), and the live writers (the
workload generator, the attack driver and the loadgen composer) emit
their records into a :class:`RecordBuffer` that hands them over as the
same columns in blocks.  Either way the columns reach one
:class:`TimingAccountant` — the single rule that turns records into
counts: warm reset, CFORM line expansion (:func:`expand_touches`), and
the CFORM/ALLOC tallies.  The kernel under it resolves set indices, tag
matches, LRU victim selection and miss accounting over those arrays in
vectorized batches.

Exactness is the design constraint, not an aspiration: every statistic a
kernel produces is **bit-identical** to a one-access-at-a-time LRU
ladder's, for any ordered stream cut into any blocks.  The per-record
ladder survives as the differential-test oracle (``tests/oracle.py``),
and ``replay_timing`` verifies replayed counts against recorded footers.
The vectorization therefore rests only on facts that hold access for
access:

* address → ``(set, tag)`` resolution is pure arithmetic → vectorized;
* an access to the **same line as the previous access to the same set**
  is a guaranteed hit on that set's MRU way: the line is resident (the
  previous access either hit it or allocated it) and re-promoting the
  MRU entry is a no-op, so collapsing these accesses to a vectorized
  count changes neither contents nor order (consecutive global repeats
  — scans, CFORM line walks, pre-warm sweeps — are a subset);
* cache **sets are independent**: an access only reads and writes its
  own set's state, so accesses to *different* sets may be decided in
  any order without changing any per-access hit/miss outcome.  The
  kernel sorts each batch by set, stably, so a set's own accesses stay
  in stream order;
* LRU has the **inclusion property** (Mattson et al., "Evaluation
  techniques for storage hierarchies", 1970): an access hits iff fewer
  than ``assoc`` distinct other lines of its set were used since its
  line's previous use, its *stack distance*.  So every access of a
  block is decided at once, with no per-access simulation.  A repeat
  inside the block counts the distinct lines of its window (the
  accesses since its line's previous use); a first touch of a line
  absent at block entry misses; a first touch of a line resident at
  column ``col`` has distance ``q + f − c``, where ``q = assoc − 1 −
  col`` residents are more recent, ``f`` first touches came earlier in
  the set's block, and ``c`` of those re-touched one of the ``q``.
  Cheap bounds decide nearly all of them; the rest walk their windows,
  about ``assoc·m`` work at most for ``m`` accesses;
* each set's row is kept in **recency order** (column 0 least recently
  used, the last column most recently used, empty ways at the least
  recent end), so the end of a block rewrites a touched row with slot
  arithmetic: the last ``assoc`` of its untouched residents, in order,
  then the block's distinct lines in last-use order;
* a block whose lines, after the MRU collapse, are **strictly ascending
  and start above every resident line** misses on every access: no line
  of it is resident at entry, and none recurs within the block.  Such a
  block skips the line sort and the residency probe: each set's row
  takes its last ``min(k, assoc)`` lines above its residents.  Every
  pre-warm sweep block has this shape at every level (a level below
  passes on the ascending misses of the one above).  When the last
  ``num_sets·assoc`` lines of a longer ascending block give every set
  ``assoc`` lines, each earlier line is evicted within the block, so
  that tail alone is the new contents;
* within the set-grouped stream, a **stable sort by tag** keeps each
  line's accesses contiguous and in stream order (equal tags of
  different sets stay apart, in set order), so it yields every access's
  previous same-line access.  It runs as LSD radix passes over the
  16-bit digits of the tag less the block's least tag: one pass while
  tags span less than 2**16, at most four;
* each level of a ladder is an **independent LRU filter of its ordered
  input**, and the kernel is exact for any cut of that input, so a
  lower level may take its input in other blocks than the level above
  emitted it.  A 3-level :class:`LadderKernel` collects L1's misses as
  a pending block of at most :data:`TOUCH_BLOCK` touches and runs L2,
  then L3, on it whole.
"""

from __future__ import annotations

from array import array
from itertools import islice

import numpy as np

from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import HierarchyConfig
from repro.telemetry.runtime import active as telemetry_active
from repro.telemetry.runtime import span as telemetry_span

# -- the record stream --------------------------------------------------------
#
# Every workload is a stream of ``(kind, address, arg)`` records, defined
# here because this module interprets them (``repro.workloads.generator``
# and ``repro.traces.format`` re-export them; the codes are frozen by the
# trace container magic).  One LOAD/STORE record per cache touch; one
# CFORM record per (de)allocation-side califorming (it expands to ``arg``
# line touches); ALLOC/FREE carry the carved object size and touch
# nothing; WARM marks the end-of-warmup counter reset; EPOCH markers sit
# between bursts and delimit shard boundaries.
EV_LOAD = 0
EV_STORE = 1
EV_ALLOC = 2
EV_FREE = 3
EV_CFORM = 4
EV_WARM = 5
EV_EPOCH = 6

#: Byte stride of one CFORM line touch during replay (the trace format
#: defines CFORM expansion as ``address + i * 64`` regardless of the
#: simulated geometry's line size).
CFORM_LINE_STRIDE = 64

#: Records a :class:`RecordBuffer` collects before it hands them to its
#: consumers.  The buffer is flushed at the first burst end or column
#: block that reaches this size, and the column writers cut their blocks
#: at about this size, so a live run holds about one block of its stream
#: at a time.  An accountant hands its simulator at most this many
#: records at once, and a 3-level ladder's pending block holds at most
#: this many L1 misses.  The statistics do not depend on the value.
TOUCH_BLOCK = 16384

#: Records a :meth:`RecordBuffer.sweep` appends between flushes, so a
#: long sweep reaches the consumers in bounded blocks (peak memory).
SWEEP_BLOCK = TOUCH_BLOCK


#: Largest set count whose set indices fit the int16 sort key that
#: numpy sorts by radix (``set * associativity`` would not fit, so the
#: narrow copy is the sort key only).
_NARROW_SETS = int(np.iinfo(np.int16).max)

#: Sentinel stored in the line slot of an empty way.  No address can
#: floor-divide (line size ≥ 2) to the int64 minimum, so a plain
#: equality match can never hit an empty way and liveness checks drop
#: out of the hot matching loops entirely.
_EMPTY_LINE = int(np.iinfo(np.int64).min)


class LruTagKernel:
    """One LRU tag array, accessed a column of addresses at a time.

    State is one ``(num_sets, associativity)`` array of resident lines,
    each row in recency order: column 0 holds the least recently used
    line, the last column the most recently used, and empty ways
    (:data:`_EMPTY_LINE`, unmatched by any real address) sit at the
    least-recently-used end.  A line resident at column ``col`` has
    ``associativity - 1 - col`` more recently used lines above it.
    """

    __slots__ = (
        "geometry", "accesses", "hits", "misses", "total_accesses",
        "walk_accesses", "ascending_accesses",
        "_line_size", "_num_sets", "_associativity", "_way_lines",
    )

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self._line_size = geometry.line_size
        self._num_sets = geometry.num_sets
        self._associativity = geometry.associativity
        self._way_lines = np.full(
            (geometry.num_sets, geometry.associativity),
            _EMPTY_LINE,
            dtype=np.int64,
        )
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        #: Accesses since construction (``accesses`` restarts at each
        #: :meth:`reset_counters`).
        self.total_accesses = 0
        #: Instrumentation: accesses whose stack distance needed the
        #: window walk (no cheap bound decided them).  A few int adds
        #: per batch; kept unconditional.
        self.walk_accesses = 0
        #: Accesses of ascending blocks, applied in closed form (the
        #: pre-warm sweep's share of the stream).
        self.ascending_accesses = 0

    def access_block(self, addresses):
        """Touch every address in order; return the miss mask.

        ``addresses`` is an int64 array; the returned boolean array marks
        the accesses that missed this level (the residual stream a lower
        level must see, in order).  Counters and contents update exactly
        as ``len(addresses)`` sequential per-access LRU lookups would.

        The inclusion property (module docstring) decides the whole
        block at once:

        1. collapse global MRU repeats;
        2. an ascending block misses on every access
           (:meth:`_apply_ascending`); the rest of the steps are skipped;
        3. sort by set, stably, and collapse per-set MRU repeats;
        4. one stable radix sort by tag gives each access its previous
           same-line access; a repeat hits iff its window holds fewer
           than ``assoc`` distinct lines (:meth:`_repeat_misses`, at
           most ``assoc·m`` work);
        5. a first touch misses unless resident; a resident one at
           column ``col`` has distance ``q + f − c``
           (:meth:`_first_touches`);
        6. :meth:`_rewrite_rows` rewrites each touched row.
        """
        n = len(addresses)
        self.accesses += n
        self.total_accesses += n
        miss_mask = np.zeros(n, dtype=bool)
        if n == 0:
            return miss_mask
        lines = addresses // self._line_size
        # Global MRU collapse: a repeat of the immediately preceding
        # line is a guaranteed hit that leaves the LRU state untouched.
        work = np.empty(n, dtype=bool)
        work[0] = True
        np.not_equal(lines[1:], lines[:-1], out=work[1:])
        work_idx = np.flatnonzero(work)
        work_lines = lines[work_idx]
        if (work_lines[1:] > work_lines[:-1]).all() and (
            work_lines[0] > self._way_lines.max()
        ):
            # Ascending block: every line is new to the block and above
            # every resident line, so every access misses and is its
            # line's last use.
            self._apply_ascending(work_lines)
            miss_mask[work_idx] = True
            m = work_lines.size
            self.ascending_accesses += n
            self.misses += m
            self.hits += n - m
            return miss_mask
        set_column = work_lines % self._num_sets
        # Stable sort by set: each set's accesses stay in stream order,
        # different sets are independent, so deciding grouped-by-set
        # cannot change any outcome.
        order = self._set_order(set_column)
        grouped_sets = set_column[order]
        grouped_lines = work_lines[order]
        grouped_positions = work_idx[order]

        # Per-set MRU collapse: a repeat of the previous access *to the
        # same set* is likewise a guaranteed hit on that set's MRU way.
        m = len(grouped_sets)
        keep = np.empty(m, dtype=bool)
        keep[0] = True
        keep[1:] = (grouped_sets[1:] != grouped_sets[:-1]) | (
            grouped_lines[1:] != grouped_lines[:-1]
        )
        if not keep.all():
            grouped_sets = grouped_sets[keep]
            grouped_lines = grouped_lines[keep]
            grouped_positions = grouped_positions[keep]
            m = len(grouped_sets)
        set_boundary = np.empty(m, dtype=bool)
        set_boundary[0] = True
        np.not_equal(grouped_sets[1:], grouped_sets[:-1], out=set_boundary[1:])
        set_starts = np.flatnonzero(set_boundary)
        set_ids = grouped_sets[set_starts]

        # Previous same-line access of every access (-1 for a line's
        # first touch in the block).  The stream is grouped by set, so a
        # stable sort by tag keeps each line's accesses contiguous and in
        # stream order.
        by_line = self._tag_order(grouped_lines)
        sorted_lines = grouped_lines[by_line]
        new_line = np.empty(m, dtype=bool)
        new_line[0] = True
        np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=new_line[1:])
        previous_sorted = np.empty(m, dtype=np.int64)
        previous_sorted[1:] = by_line[:-1]
        previous_sorted[new_line] = -1
        previous = np.empty(m, dtype=np.int64)
        previous[by_line] = previous_sorted
        first = previous < 0
        first_idx = np.flatnonzero(first)
        repeat_idx = np.flatnonzero(~first)
        # A set's first access is a first touch, so each set's first
        # touches are one run of ``first_idx``: ``distinct`` long, from
        # ``set_first`` on.
        set_first = np.searchsorted(first_idx, set_starts)
        distinct = np.diff(set_first, append=first_idx.size)

        touched, first_hits = self._first_touches(
            first_idx, grouped_sets, grouped_lines, set_first
        )
        first_missed = np.ones(first_idx.size, dtype=bool)
        first_missed[first_hits] = False
        missed = first_idx[first_missed]
        last_use = np.ones(m, dtype=bool)
        if repeat_idx.size:
            starts = previous[repeat_idx]
            last_use[starts] = False
            missed = np.concatenate([missed, self._repeat_misses(
                repeat_idx, starts, previous, first_idx, set_starts,
                set_first,
            )])

        self._rewrite_rows(
            set_ids, touched, distinct, grouped_lines[last_use]
        )
        miss_count = missed.size
        miss_mask[grouped_positions[missed]] = True
        self.misses += miss_count
        self.hits += n - miss_count
        return miss_mask

    def _first_touches(self, first_idx, grouped_sets, grouped_lines,
                       set_first):
        """Decide the first touch of each line in the block.

        Returns ``((set, column), hits)``: the set ordinal and column of
        every resident line the block touches, and the first touches
        that hit, as indices into ``first_idx``.
        """
        associativity = self._associativity
        rows = np.take(self._way_lines, grouped_sets[first_idx], axis=0)
        which, column = np.divmod(
            np.flatnonzero(rows == grouped_lines[first_idx, None]),
            associativity,
        )
        set_ordinal = np.searchsorted(set_first, which, side="right") - 1
        touched = (set_ordinal, column)
        # f: first touches earlier in the same set's block.
        earlier = which - set_first[set_ordinal]
        above = associativity - 1 - column
        hit = above + earlier < associativity
        pending = np.flatnonzero(~hit & (earlier < associativity))
        if pending.size:
            # c: earlier first touches that found their line resident
            # above this one; there are at most assoc − 1 first touches
            # before it in its set.
            columns = np.full(first_idx.size, -1, dtype=np.int64)
            columns[which] = column
            back = np.arange(1, associativity)
            prior = columns[np.maximum(which[pending, None] - back, 0)]
            retouched = np.count_nonzero(
                (back <= earlier[pending, None])
                & (prior > column[pending, None]),
                axis=1,
            )
            hit[pending] = (
                above[pending] + earlier[pending] - retouched < associativity
            )
        return touched, which[hit]

    def _set_order(self, sets):
        """The stable order of ``sets``: a narrow key sorts by radix."""
        if self._num_sets <= _NARROW_SETS:
            sets = sets.astype(np.int16)
        return np.argsort(sets, kind="stable")

    def _tag_order(self, lines):
        """The stable order of ``lines`` by tag: LSD radix passes over the
        16-bit digits of the tag less the block's least (one pass while
        tags span less than 2**16, at most four)."""
        tags = lines // self._num_sets
        tags -= tags.min()
        span = int(tags.max())
        order = np.argsort(tags.astype(np.uint16), kind="stable")
        shift = 16
        while span >> shift:
            digit = (tags[order] >> shift).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
            shift += 16
        return order

    def _repeat_misses(self, repeat_idx, starts, previous, first_idx,
                       set_starts, set_first):
        """The repeats (grouped-stream indices) that miss.

        ``starts`` holds each repeat's previous same-line access, and
        ``previous`` every access's.  A window position brings a line
        new to the window iff its own previous use lies before the
        window.
        """
        associativity = self._associativity
        long = repeat_idx - starts - 1 >= associativity
        ends = repeat_idx[long]
        starts = starts[long]
        if ends.size == 0:
            return ends
        # Bounds: the window's first touches are distinct lines, and the
        # window holds no other line than those and the lines its set's
        # block used up to the window (less the repeat's own line).
        upto = np.searchsorted(first_idx, starts, side="right")
        fresh = np.searchsorted(first_idx, ends) - upto
        seen = upto - 1 - set_first[
            np.searchsorted(set_starts, starts, side="right") - 1
        ]
        miss = fresh >= associativity
        walk = np.flatnonzero(~miss & (fresh + seen >= associativity))
        self.walk_accesses += walk.size
        if walk.size:
            miss[walk] = self._window_reaches(
                previous, starts[walk], ends[walk]
            )
        return ends[miss]

    def _window_reaches(self, previous, starts, ends):
        """Whether each window ``(starts[i], ends[i])`` (both exclusive)
        holds at least ``assoc`` distinct lines.

        Walks the windows ``assoc`` positions per step, dropping each
        that reaches ``assoc`` or runs out, until what is left of them
        is no longer than the block; one exact ``reduceat`` counts that.
        """
        associativity = self._associativity
        reaches = np.zeros(ends.size, dtype=bool)
        active = np.arange(ends.size)
        cursor = starts + 1
        count = np.zeros(ends.size, dtype=np.int64)
        step = np.arange(associativity)
        while (ends[active] - cursor).sum() > previous.size:
            position = cursor[:, None] + step
            stop = ends[active, None]
            count += np.count_nonzero(
                (previous[np.minimum(position, stop - 1)]
                 <= starts[active, None])
                & (position < stop),
                axis=1,
            )
            cursor += associativity
            full = count >= associativity
            reaches[active[full]] = True
            going = ~full & (cursor < ends[active])
            active = active[going]
            cursor = cursor[going]
            count = count[going]
        if active.size:
            lengths = ends[active] - cursor
            offsets = np.cumsum(lengths) - lengths
            position = np.arange(int(lengths.sum())) + np.repeat(
                cursor - offsets, lengths
            )
            inside = previous[position] <= np.repeat(starts[active], lengths)
            count += np.add.reduceat(inside, offsets, dtype=np.int64)
            reaches[active] = count >= associativity
        return reaches

    def _apply_ascending(self, lines):
        """Write an ascending block's strictly increasing ``lines`` (all
        misses) into the rows: each set takes its last ``assoc`` lines
        above its residents."""
        num_sets = self._num_sets
        associativity = self._associativity
        capacity = num_sets * associativity
        if lines.size > capacity:
            # When its last ``capacity`` lines give every set ``assoc``
            # lines, every earlier line is evicted within the block.
            # (A pre-warm sweep's blocks at L1 and L2; an L3 block, at
            # most TOUCH_BLOCK touches, is shorter than L3's capacity.)
            tail = lines[-capacity:]
            sets = tail % num_sets
            if np.bincount(sets, minlength=num_sets).min() >= associativity:
                self._way_lines[:] = tail[self._set_order(sets)].reshape(
                    num_sets, associativity
                )
                return
        sets = lines % num_sets
        order = self._set_order(sets)
        grouped_sets = sets[order]
        boundary = np.empty(lines.size, dtype=bool)
        boundary[0] = True
        np.not_equal(grouped_sets[1:], grouped_sets[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        self._rewrite_rows(
            grouped_sets[starts], None, np.diff(starts, append=lines.size),
            lines[order],
        )

    def _rewrite_rows(self, set_ids, touched, distinct, lines):
        """Write the block's effect into the rows of ``set_ids``.

        ``set_ids`` are the touched sets in grouped order; ``touched`` is
        ``(set ordinal, column)`` of each resident line the block touched
        (``None``: none); ``lines`` holds the block's distinct lines set
        by set, ``distinct`` of them per set, each set's in last-use
        order.  Each row becomes the last ``assoc`` of: its untouched
        residents in order, then the block's lines.
        """
        associativity = self._associativity
        count = len(set_ids)
        rows = np.take(self._way_lines, set_ids, axis=0)
        kept = rows != _EMPTY_LINE
        if touched is not None:
            kept[touched] = False
        # Slot arithmetic over the flattened rows: the block's lines
        # fill a row from its most recent end down, the untouched
        # residents sit right below them, the rest of the row is empty.
        base = np.arange(0, count * associativity, associativity)
        rank = np.cumsum(kept, dtype=np.int32).reshape(count, associativity)
        target = rank + (base + associativity - 1 - distinct - rank[:, -1])[
            :, None
        ]
        place = np.flatnonzero(kept & (target >= base[:, None]))
        out = np.full(count * associativity, _EMPTY_LINE, dtype=np.int64)
        out[target.ravel()[place]] = rows.ravel()[place]
        placed = np.minimum(distinct, associativity)
        first_placed = np.cumsum(placed) - placed
        offset = np.arange(first_placed[-1] + placed[-1])
        out[offset + np.repeat(
            base + associativity - placed - first_placed, placed
        )] = lines[offset + np.repeat(
            np.cumsum(distinct) - placed - first_placed, placed
        )]
        self._way_lines[set_ids] = out.reshape(count, associativity)

    def reset_counters(self) -> None:
        """Zero the counters, keep the tag contents warm (end of warmup)."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0


class LadderKernel:
    """A stack of :class:`LruTagKernel` levels filtering a touch stream.

    ``levels=3`` is the single-core L1→L2→L3 ladder (timing replay);
    ``levels=2`` is a multi-core private L1+L2 ladder whose residual —
    the shared-L3 request stream — the caller collects via the returned
    indices.

    A 3-level ladder defers its lower levels: L1's misses collect as a
    pending block of at most :data:`TOUCH_BLOCK` touches, and
    :meth:`flush` runs L2 on it, then L3 on L2's misses.  Its L2 and L3
    counters are current after :meth:`flush`, which :meth:`events`,
    :meth:`reset_counters`, :meth:`instrumentation` and :meth:`report`
    call first.
    """

    __slots__ = ("config", "l1", "l2", "l3", "_pending", "_pending_count")

    def __init__(self, config: HierarchyConfig, levels: int = 3):
        if levels not in (2, 3):
            raise ValueError("LadderKernel supports 2 or 3 levels")
        self.config = config
        self.l1 = LruTagKernel(config.l1_geometry)
        self.l2 = LruTagKernel(config.l2_geometry)
        self.l3 = LruTagKernel(config.l3_geometry) if levels == 3 else None
        self._pending: list = []
        self._pending_count = 0

    def touch_block(self, addresses):
        """Run one touch column through the ladder, top to bottom.

        A 2-level ladder returns the indices (into ``addresses``) of the
        touches that missed both levels, in stream order: the shared-L3
        request stream.  A 3-level ladder adds L1's misses to its
        pending block, first flushing the block if they would take it
        past :data:`TOUCH_BLOCK`, and returns no indices.  L2 and L3
        never take more than :data:`TOUCH_BLOCK` touches at once.
        """
        with telemetry_span("memory.kernel", accesses=len(addresses)):
            missed = np.flatnonzero(self.l1.access_block(addresses))
            if self.l3 is None:
                if missed.size:
                    missed = missed[
                        np.flatnonzero(self.l2.access_block(addresses[missed]))
                    ]
                return missed
            if self._pending_count + missed.size > TOUCH_BLOCK:
                self._run_pending()
            if missed.size:
                self._pending.append(addresses[missed])
                self._pending_count += missed.size
                if self._pending_count >= TOUCH_BLOCK:
                    self._run_pending()
            return missed[:0]

    def flush(self) -> None:
        """Run the pending L1 misses through L2, then L2's through L3."""
        if self._pending:
            with telemetry_span("memory.kernel", pending=self._pending_count):
                self._run_pending()

    def _run_pending(self) -> None:
        """:meth:`flush` without its span (the caller holds one)."""
        pending = self._pending
        if not pending:
            return
        block = pending[0] if len(pending) == 1 else np.concatenate(pending)
        self._pending = []
        self._pending_count = 0
        # Only a single L1 miss column can exceed TOUCH_BLOCK.
        for start in range(0, block.size, TOUCH_BLOCK):
            part = block[start : start + TOUCH_BLOCK]
            part = part[self.l2.access_block(part)]
            if part.size:
                self.l3.access_block(part)

    def reset_counters(self) -> None:
        self.flush()
        self.l1.reset_counters()
        self.l2.reset_counters()
        if self.l3 is not None:
            self.l3.reset_counters()

    def events(self) -> MemoryEventCounts:
        """A 3-level ladder's counters as the pipeline model's events."""
        self.flush()
        return MemoryEventCounts(
            l1_accesses=self.l1.accesses,
            l1_misses=self.l1.misses,
            l2_misses=self.l2.misses,
            l3_misses=self.l3.misses,
        )

    @property
    def levels(self) -> tuple:
        """The live kernel levels as ``(name, kernel)`` pairs."""
        pairs = [("l1", self.l1), ("l2", self.l2)]
        if self.l3 is not None:
            pairs.append(("l3", self.l3))
        return tuple(pairs)

    def instrumentation(self) -> dict:
        """Per-level batch-algorithm health, as counts over the ladder's
        life (warm-up included): accesses whose stack distance needed
        the window walk, accesses of ascending blocks applied in closed
        form, and all accesses — the denominator of the walk and
        ascending shares."""
        self.flush()
        return {
            name: {
                "walk_accesses": level.walk_accesses,
                "ascending_accesses": level.ascending_accesses,
                "accesses": level.total_accesses,
            }
            for name, level in self.levels
        }

    def report(self) -> None:
        """Add :meth:`instrumentation` to the active telemetry sink as
        ``kernel_<field>_total{level=}`` counters; without one it only
        flushes."""
        self.flush()
        tel = telemetry_active()
        if tel is None:
            return
        for name, fields in self.instrumentation().items():
            for field, value in fields.items():
                tel.inc(f"kernel_{field}_total", value, level=name)


class RecordBuffer:
    """The writers' record stream, handed to its consumers in blocks.

    A live writer emits ``(kind, address, arg)`` records in one of two
    ways.  Column writers (the workload renderer and the loadgen
    composer's merge) hand over whole blocks with :meth:`extend`, kept
    as the arrays they arrived in.  Scalar writers (the attack driver)
    use :meth:`append` for one record, :meth:`run` for a burst of
    same-kind touches (one ``array('q').extend`` of addresses plus one
    ``(kind, arg, count)`` triple, expanded with ``np.repeat`` when the
    records join the block list) and :meth:`sweep` for a long same-kind
    run, and end each burst with :meth:`burst_end`.

    Every consumer is an object with ``consume(kinds, addresses, args)``
    receiving each block as uint8/int64/int64 columns in stream order.
    A consumer may also define ``bursts(ends)``, called with a batch of
    burst ends: an int64 array of stream positions, each the
    :attr:`count` at the end of one burst.  It returns ``None``, or
    marker records to insert after some of those bursts as
    ``(which, kinds, addresses, args)``: ``which`` indexes ``ends``, the
    rest are the markers' columns (the recorder's EPOCH markers).  A
    later hook sees the ends moved past an earlier hook's markers, as if
    each burst's markers were appended at its end.

    Blocks reach the consumers once :data:`TOUCH_BLOCK` records are
    pending, at a burst end or an :meth:`extend`; :meth:`flush` hands
    over whatever is pending.
    """

    __slots__ = (
        "_consumers", "_burst_hooks", "_blocks", "_block_records",
        "_addresses", "_runs", "flushed",
    )

    def __init__(self, *consumers):
        self._consumers = [consumer.consume for consumer in consumers]
        self._burst_hooks = [
            consumer.bursts
            for consumer in consumers
            if hasattr(consumer, "bursts")
        ]
        #: Pending column blocks, oldest first, then the scalar records.
        self._blocks: list[tuple] = []
        self._block_records = 0
        self._addresses = array("q")
        self._runs = array("q")  # (kind, arg, count) triples
        #: Records already handed to the consumers.
        self.flushed = 0

    def append(self, kind: int, address: int, arg: int) -> None:
        self._addresses.append(address)
        self._runs.extend((kind, arg, 1))

    def run(self, kind: int, addresses, arg: int) -> None:
        """Append one record per address (a list or range), all of
        ``kind`` and ``arg``."""
        self._addresses.extend(addresses)
        self._runs.extend((kind, arg, len(addresses)))

    def sweep(self, kind: int, addresses, arg: int) -> None:
        """:meth:`run` for a long iterable (a pre-warm sweep of a
        multi-MB heap), flushed every :data:`SWEEP_BLOCK` records."""
        addresses = iter(addresses)
        pending = self._addresses
        while True:
            before = len(pending)
            pending.extend(islice(addresses, SWEEP_BLOCK))
            if len(pending) == before:
                return
            self._runs.extend((kind, arg, len(pending) - before))
            if self._pending >= TOUCH_BLOCK:
                self.flush()

    def extend(self, kinds, addresses, args, ends=None) -> None:
        """Append record columns: uint8 kinds, int64 addresses and args.

        ``ends``, when given, says the block is whole bursts: an int64
        array of block positions, each the exclusive end of one burst,
        ascending, the last equal to the block's length.  The burst
        hooks run on it before the block joins the pending ones.
        """
        kinds = np.asarray(kinds, dtype=np.uint8)
        addresses = np.asarray(addresses, dtype=np.int64)
        args = np.asarray(args, dtype=np.int64)
        if ends is not None:
            base = self.count
            for hook in self._burst_hooks:
                markers = hook(base + ends)
                if markers is None:
                    continue
                which, marker_kinds, marker_addresses, marker_args = markers
                at = ends[which]
                kinds = np.insert(kinds, at, marker_kinds)
                addresses = np.insert(addresses, at, marker_addresses)
                args = np.insert(args, at, marker_args)
                ends = ends + np.searchsorted(at, ends, side="right")
        if len(kinds):
            self._seal()
            self._blocks.append((kinds, addresses, args))
            self._block_records += len(kinds)
        if self._pending >= TOUCH_BLOCK:
            self.flush()

    @property
    def _pending(self) -> int:
        """Records emitted but not yet handed over."""
        return self._block_records + len(self._addresses)

    @property
    def count(self) -> int:
        """Records emitted so far, handed over or pending."""
        return self.flushed + self._pending

    def burst_end(self) -> None:
        """A scalar writer's burst ends: run the burst hooks on it, then
        flush if a full block is pending."""
        for hook in self._burst_hooks:
            markers = hook(np.array([self.count], dtype=np.int64))
            if markers is not None:
                for kind, address, arg in zip(
                    *(column.tolist() for column in markers[1:])
                ):
                    self.append(kind, address, arg)
        if self._pending >= TOUCH_BLOCK:
            self.flush()

    def _seal(self) -> None:
        """Move the pending scalar records to the block list as columns."""
        pending = self._addresses
        if not pending:
            return
        runs = np.frombuffer(self._runs, dtype=np.int64).reshape(-1, 3)
        counts = runs[:, 2]
        kinds = np.repeat(runs[:, 0].astype(np.uint8), counts)
        args = np.repeat(runs[:, 1], counts)
        addresses = np.frombuffer(pending, dtype=np.int64).copy()
        del runs, counts  # release the buffer views before resizing
        del pending[:]
        del self._runs[:]
        self._blocks.append((kinds, addresses, args))
        self._block_records += len(addresses)

    def flush(self) -> None:
        self._seal()
        blocks = self._blocks
        if not blocks:
            return
        if len(blocks) == 1:
            kinds, addresses, args = blocks[0]
        else:
            kinds, addresses, args = (
                np.concatenate(column) for column in zip(*blocks)
            )
        self._blocks = []
        self._block_records = 0
        self.flushed += len(kinds)
        for consume in self._consumers:
            consume(kinds, addresses, args)


def check_kinds(kinds) -> None:
    """Reject a record column holding a kind beyond the ``EV_*`` codes."""
    unknown = np.flatnonzero(kinds > EV_EPOCH)
    if unknown.size:
        # The trace layer imports this module, so its error is resolved
        # late.
        from repro.traces.format import TraceFormatError

        raise TraceFormatError(f"unknown record kind {int(kinds[unknown[0]])}")


class RecordAccountant:
    """The one walk that turns record columns into run statistics.

    :meth:`consume` rejects unknown kinds, splits each block at EV_WARM
    records (only when ``honor_warm``: a whole trace or live run honours
    its warmup boundary, a shard region counts every record) and into
    segments of :data:`TOUCH_BLOCK` records, the last taking the rest
    (a block below 2·:data:`TOUCH_BLOCK` records stays whole), tallies the
    touches, CFORM lines and ALLOC events of each segment, and hands the
    segment to :meth:`segment`, the subclass's simulator.  At a
    warm record the tallies restart and :meth:`warm` resets the
    simulator's counters.
    """

    def __init__(self, honor_warm: bool = True):
        self.honor_warm = honor_warm
        self.touches = 0
        self.cform_lines = 0
        self.alloc_events = 0

    def consume(self, kinds, addresses, args) -> None:
        check_kinds(kinds)
        end = len(kinds)
        warm = []
        if self.honor_warm:
            warm = np.flatnonzero(kinds == EV_WARM).tolist()
        start = 0
        for stop in warm + [end]:
            # Segments of TOUCH_BLOCK records, the last taking the rest
            # (below 2·TOUCH_BLOCK): a whole decoded group would mix a
            # pre-warm sweep with the bursts after it, and a live block
            # stays whole.
            size = stop - start
            parts = max(1, size // TOUCH_BLOCK) if size else 0
            for part in range(parts):
                low = start + part * TOUCH_BLOCK
                high = stop if part == parts - 1 else low + TOUCH_BLOCK
                segment_kinds = kinds[low:high]
                segment_args = args[low:high]
                lines = int(segment_args[segment_kinds == EV_CFORM].sum())
                accesses = np.count_nonzero(
                    (segment_kinds == EV_LOAD) | (segment_kinds == EV_STORE)
                )
                self.touches += lines + int(accesses)
                self.cform_lines += lines
                self.alloc_events += int(
                    np.count_nonzero(segment_kinds == EV_ALLOC)
                )
                self.segment(
                    low, segment_kinds, addresses[low:high], segment_args
                )
            if stop < end:
                self.warm(stop)
                self.touches = 0
                self.cform_lines = 0
                self.alloc_events = 0
            start = stop + 1

    def segment(self, start: int, kinds, addresses, args) -> None:
        """Simulate one warm-free segment starting at block index ``start``."""
        raise NotImplementedError

    def warm(self, position: int) -> None:
        """The EV_WARM record at block index ``position``: reset counters."""
        raise NotImplementedError


class TimingAccountant(RecordAccountant):
    """The accountant every timing ``RunResult`` comes from.

    Expands each segment's touches (:func:`expand_touches`) into a cold
    3-level :class:`LadderKernel`; live writers, whole-trace replay and
    shard replay all read their events and tallies from it.
    """

    def __init__(self, config: HierarchyConfig, honor_warm: bool = True):
        super().__init__(honor_warm)
        self.ladder = LadderKernel(config, levels=3)

    def segment(self, start, kinds, addresses, args) -> None:
        self.ladder.touch_block(expand_touches(kinds, addresses, args)[0])

    def warm(self, position) -> None:
        self.ladder.reset_counters()

    def events(self) -> MemoryEventCounts:
        return self.ladder.events()


def expand_touches(kinds, addresses, args):
    """Expand one record column into its cache-touch column.

    LOAD/STORE records contribute one touch at their address; CFORM
    records contribute ``arg`` touches at ``address + i * 64`` (the
    format's replay expansion); ALLOC/FREE/WARM/EPOCH contribute none.
    Returns ``(touch_addresses, counts)`` where ``counts`` holds each
    record's touch count — ``np.repeat(per_record_value, counts)``
    carries any per-record annotation (e.g. a multi-core slot) onto the
    touch column.
    """
    single = (kinds == EV_LOAD) | (kinds == EV_STORE)
    cform = kinds == EV_CFORM
    if not cform.any():
        return np.compress(single, addresses), single.astype(np.int64)
    counts = np.where(cform, args, single)
    touch_addresses = np.repeat(addresses, counts)
    # Line walks: the i-th touch of a CFORM record steps 64 bytes per
    # line.  Only the (few) CFORM touches are indexed.
    lines = counts[cform]
    first = (np.cumsum(counts) - counts)[cform]
    walk = np.arange(int(lines.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(lines) - lines, lines
    )
    touch_addresses[np.repeat(first, lines) + walk] += walk * CFORM_LINE_STRIDE
    return touch_addresses, counts
