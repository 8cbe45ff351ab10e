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
The vectorization therefore only removes work that provably cannot
change LRU state:

* address → ``(set, tag)`` resolution is pure arithmetic → vectorized;
* an access to the **same line as the previous access to the same set**
  is a guaranteed hit on that set's MRU way: the line is resident (the
  previous access either hit it or allocated it) and re-promoting the
  MRU entry is a no-op, so collapsing these accesses to a vectorized
  count changes neither contents nor order (consecutive global repeats
  — scans, CFORM line walks, pre-warm sweeps — are a subset);
* cache **sets are independent**: an access only reads and writes its
  own set's state, so accesses to *different* sets may be processed in
  any order without changing any per-access hit/miss outcome.  The
  kernel sorts each batch by set (stably, so a set's own accesses stay
  in stream order) and then simulates **one access per set per round**
  as whole-matrix operations over a ``(num_sets, associativity)`` pair
  of line/timestamp arrays — exact LRU, because a per-round timestamp
  is strictly increasing along every set's stream and the victim is the
  minimum-stamp way.  Skewed tails (a few hot sets with long streams
  left) finish in a tight per-set Python loop over the same state;
* a block whose lines, after the MRU collapse, are **strictly ascending
  and start above every resident line** misses on every access: no line
  of it is resident at entry, and none recurs within the block to be
  inserted earlier, so each set's accesses are one run of distinct
  absent lines.  Such a run's LRU update has a closed form — its last
  ``min(k, assoc)`` lines replace the set's oldest ways, stamped in
  stream order — so the block skips the line sort, the residency probe
  and the rounds.  Every pre-warm sweep block has this shape at every
  level (a level below passes on the ascending misses of the one above).
"""

from __future__ import annotations

from array import array
from itertools import islice

import numpy as np

from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import HierarchyConfig
from repro.telemetry.runtime import active as telemetry_active

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
#: at a time; the statistics do not depend on the value.
TOUCH_BLOCK = 16384

#: Records a :meth:`RecordBuffer.sweep` appends between flushes, so a
#: long sweep reaches the consumers in bounded blocks (peak memory).
SWEEP_BLOCK = TOUCH_BLOCK


#: Below this many concurrently active sets, a vectorized round costs
#: more in numpy dispatch than the per-set Python tail loop it replaces.
_ROUND_MIN_SETS = 12

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

    State is a pair of ``(num_sets, associativity)`` arrays: the
    resident line per way (:data:`_EMPTY_LINE` marks an empty way,
    unmatched by any real address) and a strictly increasing last-use
    timestamp per way (``-1`` for empty ways, so they fill before any
    resident line is evicted).  A victim is the minimum-stamp way — exactly the least
    recently used — so hit/miss outcomes and retained contents are
    identical to sequential per-access LRU.
    """

    __slots__ = (
        "geometry", "accesses", "hits", "misses", "total_accesses",
        "rounds", "tail_accesses", "ascending_accesses",
        "_line_size", "_num_sets", "_associativity",
        "_way_lines", "_way_stamps", "_clock",
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
        self._way_stamps = np.full(
            (geometry.num_sets, geometry.associativity), -1, dtype=np.int64
        )
        self._clock = 0
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        #: Accesses since construction (``accesses`` restarts at each
        #: :meth:`reset_counters`).
        self.total_accesses = 0
        #: Instrumentation: cumulative vectorized (rank, kind) round
        #: groups executed, and accesses that fell to the per-set Python
        #: tail — their share of :attr:`total_accesses` is the batch
        #: algorithm's "tail fraction", the telemetry layer's
        #: vectorization-health signal.  A few int adds per batch; kept
        #: unconditional.
        self.rounds = 0
        self.tail_accesses = 0
        #: Accesses of ascending blocks, applied in closed form (the
        #: pre-warm sweep's share of the stream).
        self.ascending_accesses = 0

    def access_block(self, addresses):
        """Touch every address in order; return the miss mask.

        ``addresses`` is an int64 array; the returned boolean array marks
        the accesses that missed this level (the residual stream a lower
        level must see, in order).  Counters update exactly as ``len(
        addresses)`` sequential per-access LRU lookups would.

        The batch algorithm, each step exactness-preserving:

        1. collapse MRU repeats (global, then per set after the stable
           set sort) — guaranteed hits with no state effect;
        2. an **ascending block** — lines strictly increasing after the
           global collapse, the first above every resident line — is all
           guaranteed misses, each set's stream one run: step 4's closed
           form applies to every set at once and steps 3–4 are skipped;
        3. classify every **first batch occurrence of a line that is not
           resident at batch entry** as a *guaranteed miss*: nothing but
           an access to that line can insert it, so whatever happened
           earlier in the batch, the line is absent when reached;
        4. cut each set's stream into segments — maximal guaranteed-miss
           runs and single *unknown* accesses — and process segment
           round ``r`` of every set as one vectorized step.  A
           guaranteed-miss run of ``k`` distinct lines has a closed-form
           LRU update: its last ``min(k, assoc)`` lines replace the
           ``min(k, assoc)`` least-recently-stamped ways; an unknown
           access is resolved against the live state.  Stamps are the
           batch stream position, strictly increasing along every set's
           stream, so victim selection stays exact LRU.

        Skewed leftovers (a few sets with many more segments than the
        rest) finish in a per-set Python loop over the same state.
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
        set_column = work_lines % self._num_sets
        # Stable sort by set: each set's accesses stay in stream order,
        # different sets are independent, so processing grouped-by-set
        # cannot change any outcome.  A narrow key sorts by radix.
        set_key = (
            set_column.astype(np.int16)
            if self._num_sets <= _NARROW_SETS
            else set_column
        )
        order = np.argsort(set_key, kind="stable")
        grouped_sets = set_column[order]
        grouped_lines = work_lines[order]
        grouped_positions = work_idx[order]
        clock = self._clock
        way_lines = self._way_lines
        way_stamps = self._way_stamps

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

        if (work_lines[1:] > work_lines[:-1]).all() and (
            work_lines[0] > way_lines.max()
        ):
            # Ascending block: every line is new to the batch and above
            # every resident line, so every access is a guaranteed miss
            # and each set's stream is a single guaranteed-miss run.
            set_starts = np.flatnonzero(set_boundary)
            self._fill_oldest(
                grouped_sets[set_starts],
                set_starts,
                np.append(set_starts[1:], m),
                grouped_lines,
                clock,
            )
            miss_mask[work_idx] = True
            self.ascending_accesses += n
            self._clock = clock + m
            self.misses += m
            self.hits += n - m
            return miss_mask

        # First batch occurrence of each line (same line ⇒ same set, so
        # a stable sort by line keeps every line's accesses in order).
        by_line = np.argsort(grouped_lines, kind="stable")
        lines_by_line = grouped_lines[by_line]
        new_line = np.empty(m, dtype=bool)
        new_line[0] = True
        np.not_equal(lines_by_line[1:], lines_by_line[:-1], out=new_line[1:])
        first_occurrence = np.empty(m, dtype=bool)
        first_occurrence[by_line] = new_line
        # Guaranteed miss: first occurrence of a line absent at entry.
        # A line value pins its set (line mod sets), so each first
        # occurrence is probed against its own set's row only; an empty
        # way's sentinel matches nothing.
        first_idx = np.flatnonzero(first_occurrence)
        first_lines = grouped_lines[first_idx]
        resident = (
            way_lines[grouped_sets[first_idx]] == first_lines[:, None]
        ).any(axis=1)
        guaranteed = np.zeros(m, dtype=bool)
        guaranteed[first_idx[~resident]] = True
        miss_mask[grouped_positions[guaranteed]] = True
        miss_count = int(guaranteed.sum())

        # Segments: maximal guaranteed-miss runs; unknowns stand alone.
        # Unknown accesses record their *hits* here as they resolve; a
        # single vectorized pass at the end books the complement as
        # misses.
        unknown = ~guaranteed
        unknown_hit = np.zeros(m, dtype=bool)
        seg_start = set_boundary | unknown
        seg_start[1:] |= unknown[:-1]
        seg_starts = np.flatnonzero(seg_start)
        seg_count = seg_starts.size
        seg_ends = np.append(seg_starts[1:], m)
        seg_sets = grouped_sets[seg_starts]
        seg_unknown = unknown[seg_starts]
        first_seg = np.flatnonzero(set_boundary[seg_starts])
        per_set_segments = np.diff(np.append(first_seg, seg_count))
        seg_rank = np.arange(seg_count) - np.repeat(
            first_seg, per_set_segments
        )
        # Ranks are consecutive per set, so the per-rank population is
        # non-increasing: vectorize the well-populated rounds, leave the
        # skewed tail ranks to the Python loop below.
        rank_counts = np.bincount(seg_rank)
        thin = rank_counts < _ROUND_MIN_SETS
        cutoff = int(np.argmax(thin)) if thin.any() else len(rank_counts)

        in_rounds = seg_rank < cutoff
        round_segments = np.flatnonzero(in_rounds)
        if round_segments.size:
            # Group by (rank, kind): each group holds distinct sets, so
            # one fancy-indexed update per group is conflict-free.
            key = seg_rank[round_segments] * 2 + seg_unknown[round_segments]
            key_order = np.argsort(key, kind="stable")
            round_order = round_segments[key_order]
            key_sorted = key[key_order]
            bounds = np.flatnonzero(key_sorted[1:] != key_sorted[:-1]) + 1
            group_starts = np.append(0, bounds).tolist()
            group_ends = np.append(bounds, key_sorted.size).tolist()
            self.rounds += len(group_starts)
            for group_start, group_end in zip(group_starts, group_ends):
                segments = round_order[group_start:group_end]
                set_ids = seg_sets[segments]
                starts = seg_starts[segments]
                if key_sorted[group_start] & 1:  # unknown singletons
                    line = grouped_lines[starts]
                    match = way_lines[set_ids] == line[:, None]
                    hit = match.any(axis=1)
                    way = np.where(
                        hit,
                        match.argmax(axis=1),
                        way_stamps[set_ids].argmin(axis=1),
                    )
                    way_lines[set_ids, way] = line
                    way_stamps[set_ids, way] = clock + starts
                    unknown_hit[starts[hit]] = True
                else:  # guaranteed-miss runs: closed-form LRU update
                    self._fill_oldest(
                        set_ids, starts, seg_ends[segments], grouped_lines,
                        clock,
                    )
        if cutoff < len(rank_counts):
            # Tail: per set, every access from its first thin-rank
            # segment to the end of its stream, simulated sequentially.
            tail_segments = np.flatnonzero(~in_rounds)
            tail_sets = seg_sets[tail_segments]
            head = np.empty(tail_segments.size, dtype=bool)
            head[0] = True
            np.not_equal(tail_sets[1:], tail_sets[:-1], out=head[1:])
            heads = np.flatnonzero(head)
            first_of_set = tail_segments[heads]
            last_of_set = tail_segments[
                np.append(heads[1:] - 1, tail_segments.size - 1)
            ]
            for first_segment, last_segment in zip(
                first_of_set.tolist(), last_of_set.tolist()
            ):
                set_id = int(seg_sets[first_segment])
                start = int(seg_starts[first_segment])
                self.tail_accesses += int(seg_ends[last_segment]) - start
                row = way_lines[set_id].tolist()
                stamps = way_stamps[set_id].tolist()
                for offset, line in enumerate(
                    grouped_lines[start : int(seg_ends[last_segment])].tolist()
                ):
                    if line in row:  # hits are unknowns by construction
                        way = row.index(line)
                        unknown_hit[start + offset] = True
                    else:
                        way = stamps.index(min(stamps))
                        row[way] = line
                    stamps[way] = clock + start + offset
                way_lines[set_id] = row
                way_stamps[set_id] = stamps
        unknown_miss = unknown & ~unknown_hit
        miss_count += int(unknown_miss.sum())
        miss_mask[grouped_positions[unknown_miss]] = True
        self._clock = clock + m
        self.misses += miss_count
        self.hits += n - miss_count
        return miss_mask

    def _fill_oldest(self, set_ids, starts, ends, lines, clock) -> None:
        """Apply one guaranteed-miss run per set in closed form.

        ``set_ids`` are distinct sets; set ``i``'s run is ``lines[
        starts[i]:ends[i]]``, distinct lines absent from the set.  Its
        last ``min(k, assoc)`` lines replace the set's ``min(k, assoc)``
        least-recently-stamped ways, stamped ``clock`` plus their index.
        Which of those ways takes which line cannot matter: the new
        stamps exceed every old one, and a lookup matches by line.
        """
        associativity = self._associativity
        stamps = self._way_stamps[set_ids]
        fill = np.minimum(ends - starts, associativity)
        if (fill == 1).all():
            way = stamps.argmin(axis=1)
            self._way_lines[set_ids, way] = lines[ends - 1]
            self._way_stamps[set_ids, way] = clock + ends - 1
            return
        way_columns = np.arange(associativity)
        oldest_first = np.argsort(stamps, axis=1)
        chosen = way_columns < fill[:, None]
        source = (ends - fill)[:, None] + way_columns
        flat = (set_ids[:, None] * associativity + oldest_first)[chosen]
        self._way_lines.reshape(-1)[flat] = lines[source[chosen]]
        self._way_stamps.reshape(-1)[flat] = clock + source[chosen]

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
    """

    __slots__ = ("config", "l1", "l2", "l3")

    def __init__(self, config: HierarchyConfig, levels: int = 3):
        if levels not in (2, 3):
            raise ValueError("LadderKernel supports 2 or 3 levels")
        self.config = config
        self.l1 = LruTagKernel(config.l1_geometry)
        self.l2 = LruTagKernel(config.l2_geometry)
        self.l3 = LruTagKernel(config.l3_geometry) if levels == 3 else None

    def touch_block(self, addresses):
        """Run one touch column through the ladder, top to bottom.

        Returns the indices (into ``addresses``) of the touches that
        missed every level of this ladder, in stream order — empty for a
        3-level ladder's caller to ignore, the shared-L3 request stream
        for a 2-level one.
        """
        indices = np.flatnonzero(self.l1.access_block(addresses))
        for level in (self.l2, self.l3):
            if level is None:
                break
            if indices.size == 0:
                return indices
            indices = indices[np.flatnonzero(level.access_block(addresses[indices]))]
        return indices

    def reset_counters(self) -> None:
        self.l1.reset_counters()
        self.l2.reset_counters()
        if self.l3 is not None:
            self.l3.reset_counters()

    def events(self) -> MemoryEventCounts:
        """A 3-level ladder's counters as the pipeline model's events."""
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
        life (warm-up included): vectorized rounds, accesses that fell
        to the per-set Python tail, accesses of ascending blocks applied
        in closed form, and all accesses — the denominator of the tail
        and ascending shares."""
        return {
            name: {
                "rounds": level.rounds,
                "tail_accesses": level.tail_accesses,
                "ascending_accesses": level.ascending_accesses,
                "accesses": level.total_accesses,
            }
            for name, level in self.levels
        }

    def report(self) -> None:
        """Add :meth:`instrumentation` to the active telemetry sink as
        ``kernel_<field>_total{level=}`` counters; a no-op without one."""
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
    its warmup boundary, a shard region counts every record), tallies
    the touches, CFORM lines and ALLOC events of each segment, and hands
    the segment to :meth:`segment`, the subclass's simulator.  At a
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
            if stop > start:
                segment_kinds = kinds[start:stop]
                segment_args = args[start:stop]
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
                    start, segment_kinds, addresses[start:stop], segment_args
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
