"""Batched tag-hierarchy kernel: the one LRU simulator of the timing path.

Every timing statistic (Figures 4 and 10–12) is a count of hits and
misses of an access stream through tag-only L1/L2/L3 LRU caches.  This
module computes those counts a column of addresses at a time: the trace
layer decodes whole epochs into parallel numpy arrays
(:class:`repro.traces.format.RecordColumns`), and the live writers (the
workload generator, the attack driver and the loadgen composer) append
their touches to a :class:`TouchBuffer` that hands them over in blocks.
The kernel resolves set indices, tag matches, LRU victim selection and
miss accounting over those arrays in vectorized batches.

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
  left) finish in a tight per-set Python loop over the same state.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.cpu.pipeline import MemoryEventCounts
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import HierarchyConfig

#: The trace event kinds, as the kernel's own vocabulary.  These mirror
#: the ``EV_*`` constants of :mod:`repro.workloads.generator` (re-exported
#: by :mod:`repro.traces.format`); the memory layer cannot import the
#: workload engine without an import cycle, and the codes are frozen by
#: the trace container magic anyway.  A unit test pins the two sets to
#: each other so they cannot drift.
KIND_LOAD = 0
KIND_STORE = 1
KIND_ALLOC = 2
KIND_FREE = 3
KIND_CFORM = 4
KIND_WARM = 5
KIND_EPOCH = 6

#: Byte stride of one CFORM line touch during replay (the trace format
#: defines CFORM expansion as ``address + i * 64`` regardless of the
#: simulated geometry's line size).
CFORM_LINE_STRIDE = 64

#: Touches a :class:`TouchBuffer` collects before it hands them to the
#: kernel.  The buffer is flushed at the first burst end that reaches
#: this size, so a live run holds about one block of its stream at a
#: time; the statistics do not depend on the value.
TOUCH_BLOCK = 16384


#: Below this many concurrently active sets, a vectorized round costs
#: more in numpy dispatch than the per-set Python tail loop it replaces.
_ROUND_MIN_SETS = 12

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
        "geometry", "accesses", "hits", "misses",
        "rounds", "tail_accesses",
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
        #: Instrumentation: cumulative vectorized (rank, kind) round
        #: groups executed, and accesses that fell to the per-set Python
        #: tail — their ratio is the batch algorithm's "tail fraction",
        #: the telemetry layer's vectorization-health signal.  Two int
        #: adds per batch; kept unconditional.
        self.rounds = 0
        self.tail_accesses = 0

    def access_block(self, addresses):
        """Touch every address in order; return the miss mask.

        ``addresses`` is an int64 array; the returned boolean array marks
        the accesses that missed this level (the residual stream a lower
        level must see, in order).  Counters update exactly as ``len(
        addresses)`` sequential per-access LRU lookups would.

        The batch algorithm, each step exactness-preserving:

        1. collapse MRU repeats (global, then per set after the stable
           set sort) — guaranteed hits with no state effect;
        2. classify every **first batch occurrence of a line that is not
           resident at batch entry** as a *guaranteed miss*: nothing but
           an access to that line can insert it, so whatever happened
           earlier in the batch, the line is absent when reached;
        3. cut each set's stream into segments — maximal guaranteed-miss
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
        # cannot change any outcome.
        order = np.argsort(set_column, kind="stable")
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

        way_lines = self._way_lines
        way_stamps = self._way_stamps
        associativity = self._associativity

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
        # A line value pins its set (line mod sets), so a sorted global
        # list of resident lines answers per-set residency in one
        # searchsorted — and a fully cold cache skips the probe.
        live = way_stamps >= 0
        if live.any():
            resident_lines = np.sort(way_lines[live])
            first_idx = np.flatnonzero(first_occurrence)
            first_lines = grouped_lines[first_idx]
            slot = np.minimum(
                np.searchsorted(resident_lines, first_lines),
                resident_lines.size - 1,
            )
            resident = resident_lines[slot] == first_lines
            guaranteed = np.zeros(m, dtype=bool)
            guaranteed[first_idx[~resident]] = True
        else:
            guaranteed = first_occurrence.copy()
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

        clock = self._clock
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
            way_columns = np.arange(associativity)
            flat_lines = way_lines.reshape(-1)
            flat_stamps = way_stamps.reshape(-1)
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
                    ends = seg_ends[segments]
                    fill = np.minimum(ends - starts, associativity)
                    oldest_first = np.argsort(way_stamps[set_ids], axis=1)
                    chosen = way_columns < fill[:, None]
                    source = ends[:, None] - fill[:, None] + way_columns
                    new_lines = grouped_lines[np.where(chosen, source, 0)]
                    flat = (set_ids[:, None] * associativity + oldest_first)[
                        chosen
                    ]
                    flat_lines[flat] = new_lines[chosen]
                    flat_stamps[flat] = clock + source[chosen]
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
        """Per-level batch-algorithm health: rounds and tail fraction.

        ``tail_accesses`` / ``accesses`` is the share of the touch
        stream that fell out of the vectorized rounds into the per-set
        Python tail (``accesses`` here counts from the last counter
        reset, so a warmed replay reports the measured region — the
        fraction is a health signal, not an accounting quantity).
        """
        report = {}
        for name, level in self.levels:
            accesses = level.accesses
            report[name] = {
                "rounds": level.rounds,
                "tail_accesses": level.tail_accesses,
                "tail_fraction": (
                    level.tail_accesses / accesses if accesses else 0.0
                ),
            }
        return report


class TouchBuffer:
    """Buffered front end of a 3-level :class:`LadderKernel` for writers.

    A live writer calls :attr:`touch` once per cache touch: it is the
    bound ``append`` of an ``array('q')``, so the hot loop does no cache
    work.  :meth:`burst_end` hands the buffered touches to
    :meth:`LadderKernel.touch_block` once :data:`TOUCH_BLOCK` of them
    have accumulated; :meth:`reset_counters` (the warm boundary) and
    :meth:`events` flush whatever is pending first, so counters always
    describe the whole stream appended so far.
    """

    __slots__ = ("ladder", "touch", "_pending")

    def __init__(self, config: HierarchyConfig):
        self.ladder = LadderKernel(config, levels=3)
        self._pending = array("q")
        self.touch = self._pending.append

    def burst_end(self) -> None:
        """Flush if a full block is pending."""
        if len(self._pending) >= TOUCH_BLOCK:
            self.flush()

    def flush(self) -> None:
        pending = self._pending
        if pending:
            self.ladder.touch_block(np.frombuffer(pending, dtype=np.int64))
            del pending[:]

    def reset_counters(self) -> None:
        """End of warmup: simulate the pending touches, then zero."""
        self.flush()
        self.ladder.reset_counters()

    def events(self) -> MemoryEventCounts:
        """Flush, then report the ladder's event counts."""
        self.flush()
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
    counts = np.zeros(len(kinds), dtype=np.int64)
    counts[(kinds == KIND_LOAD) | (kinds == KIND_STORE)] = 1
    cform = kinds == KIND_CFORM
    if cform.any():
        counts[cform] = args[cform]
    total = int(counts.sum())
    base = np.repeat(addresses, counts)
    if total and cform.any():
        # Intra-record index: 0 for single touches, 0..arg-1 inside a
        # CFORM line walk, stepping the touch address by 64 per line.
        starts = np.cumsum(counts) - counts
        intra = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        touch_addresses = base + intra * CFORM_LINE_STRIDE
    else:
        touch_addresses = base
    return touch_addresses, counts
