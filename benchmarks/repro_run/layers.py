"""Per-layer tracing for the ``repro run`` benchmark.

The program carries no tracing of its own here: :class:`Tracer`
replaces the public entry point of each layer, on the attribute the
caller looks it up through (a module global or a class method), with a
wrapper that records one span per call and counts the work the call
did.  Spans stay in memory -- name, start, end and parent id -- and
:func:`layer_metrics` turns them into the benchmark's per-layer
figures.  :meth:`Tracer.restore` puts every wrapped attribute back.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

#: Span of one experiment section: the denominator of ``trace.coverage``.
SECTION = "experiments.section"
#: Span of one figure cell (one benchmark under one configuration).
CELL = "analysis.cell"
#: Layer spans: their union over a section is the traced coverage.
LAYERS = (
    "corpus.ensure",
    "corpus.digest",
    "corpus.manifest",
    "traces.record",
    "traces.replay",
    "traces.decode",
    "memory.kernel",
    "workloads.run_trace",
)

#: ``count(args, result) -> {counter: amount}`` for one wrapped call.
CountFn = Callable[[tuple, object], dict]


@dataclass
class Span:
    """One timed call into a layer; ``parent`` is the enclosing span's id."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and counters for wrapped layer functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add(self, counts: dict) -> None:
        for key, amount in counts.items():
            self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self, owner, attr: str, name: str, count: CountFn | None = None
    ) -> None:
        """Make every call of ``owner.attr`` one ``name`` span."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                self.add(count(args, result))
            return result

        self._install(owner, attr, original, wrapper)

    def wrap_iteration(
        self, owner, attr: str, name: str, count: CountFn | None = None
    ) -> None:
        """Make each step of the iterator ``owner.attr`` returns a span.

        For producers such as a batch decoder, whose work happens while
        the caller pulls items rather than inside the call itself.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._steps(iter(original(*args, **kwargs)), name, args, count)

        self._install(owner, attr, original, wrapper)

    def _steps(self, iterator: Iterator, name: str, args: tuple, count) -> Iterator:
        while True:
            span = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(span)
            if count is not None:
                self.add(count(args, item))
            yield item

    def _install(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# -- span arithmetic ---------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        )
        for span in spans
    }


def coverage(spans: list[Span]) -> float:
    """Share of section wall time covered by the layer spans inside it."""
    sections = [span for span in spans if span.name == SECTION]
    total = sum(span.duration for span in sections)
    if total <= 0:
        return 0.0
    layers = [
        (span.start, span.end) for span in spans if span.name in LAYERS
    ]
    covered = sum(
        union_length(
            (max(start, section.start), min(end, section.end))
            for start, end in layers
            if end > section.start and start < section.end
        )
        for section in sections
    )
    return covered / total


def _rate(amount: float, per: float, scale: float = 1.0) -> float:
    """``amount / scale`` per unit of ``per``; 0 when nothing ran."""
    return amount / scale / per if per > 0 else 0.0


def layer_metrics(tracer: Tracer, heals: int) -> dict[str, float]:
    """The per-layer figures of one traced run (``heals`` from the store)."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
    counts = tracer.counts
    ensure_calls = calls.get("corpus.ensure", 0)
    digest_s = busy.get("corpus.digest", 0.0)
    decode_s = busy.get("traces.decode", 0.0)
    kernel_s = busy.get("memory.kernel", 0.0)
    record_s = busy.get("traces.record", 0.0)
    run_trace_s = busy.get("workloads.run_trace", 0.0)
    return {
        "corpus.ensure_calls": ensure_calls,
        "corpus.hit_ratio": _rate(counts.get("corpus.hits", 0), ensure_calls),
        "corpus.builds": counts.get("corpus.builds", 0),
        "corpus.heals": heals,
        "corpus.digest_calls": calls.get("corpus.digest", 0),
        "corpus.digest_s": digest_s,
        "corpus.digest_mb_per_s": _rate(
            counts.get("corpus.digest_bytes", 0), digest_s, 1e6
        ),
        "corpus.manifest_calls": calls.get("corpus.manifest", 0),
        "corpus.manifest_s": busy.get("corpus.manifest", 0.0),
        "traces.decode_s": decode_s,
        "traces.decode_records_per_s": _rate(
            counts.get("traces.decode_records", 0), decode_s
        ),
        "traces.replay_calls": calls.get("traces.replay", 0),
        "traces.replay_self_s": self_s.get("traces.replay", 0.0),
        "memory.kernel_calls": calls.get("memory.kernel", 0),
        "memory.kernel_s": kernel_s,
        "memory.kernel_accesses_per_s": _rate(
            counts.get("memory.kernel_accesses", 0), kernel_s
        ),
        "traces.record_calls": calls.get("traces.record", 0),
        "traces.record_self_s": self_s.get("traces.record", 0.0),
        "traces.record_records_per_s": _rate(
            counts.get("traces.record_records", 0), record_s
        ),
        "workloads.run_trace_calls": calls.get("workloads.run_trace", 0),
        "workloads.run_trace_s": run_trace_s,
        "workloads.sim_minstr_per_s": _rate(
            counts.get("workloads.instructions", 0), run_trace_s, 1e6
        ),
        "analysis.cells": calls.get(CELL, 0),
        "experiments.section_s": busy.get(SECTION, 0.0),
        "trace.coverage": coverage(spans),
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several runs' metric dicts (same keys)."""
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def install_repro_wrappers(tracer: Tracer) -> None:
    """Wrap the layer entry points of ``repro`` that a figure sweep calls.

    Each wrapper sits on the name its caller looks up: the store calls
    ``canonical_digest``, ``record_spec``, ``replay_timing`` and the
    manifest functions through its own module globals; the recorder and
    the live ``slowdown`` each call ``run_trace`` through theirs.
    """
    from repro.analysis import suite
    from repro.corpus import store
    from repro.experiments import registry
    from repro.memory.kernel import LadderKernel
    from repro.traces import recorder
    from repro.traces.format import TraceReader
    from repro.workloads import generator

    def ensured(args, result):
        return {
            "corpus.builds": int(result.built),
            "corpus.hits": int(not result.built),
            "traces.record_records": result.entry.records if result.built else 0,
        }

    def simulated(args, result):
        return {"workloads.instructions": result.instructions}

    tracer.wrap(registry.Experiment, "run", SECTION)
    tracer.wrap(suite, "slowdown", CELL)
    tracer.wrap(store.CorpusStore, "slowdown", CELL)
    tracer.wrap(store.CorpusStore, "ensure", "corpus.ensure", ensured)
    tracer.wrap(
        store, "canonical_digest", "corpus.digest",
        lambda args, result: {"corpus.digest_bytes": result[1]},
    )
    tracer.wrap(store, "load_manifest", "corpus.manifest")
    tracer.wrap(store, "save_manifest", "corpus.manifest")
    tracer.wrap(store, "record_spec", "traces.record")
    tracer.wrap(store, "replay_timing", "traces.replay")
    tracer.wrap_iteration(
        TraceReader, "column_batches", "traces.decode",
        lambda args, batch: {"traces.decode_records": len(batch)},
    )
    tracer.wrap(
        LadderKernel, "touch_block", "memory.kernel",
        lambda args, result: {"memory.kernel_accesses": len(args[1])},
    )
    tracer.wrap(generator, "run_trace", "workloads.run_trace", simulated)
    tracer.wrap(recorder, "run_trace", "workloads.run_trace", simulated)
