"""Microbenchmarks: the trace engine, the CALTRC02 encoder and the
traffic composer.

Each probe times one production entry point on a fixed, seeded workload
and asserts one result of it, so a probe that silently does nothing
fails instead of reporting a fast time.
"""

from io import BytesIO

import numpy as np

from repro.loadgen.compose import compose_spec
from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
from repro.traces.compress import CompressedTraceWriter
from repro.traces.format import TraceReader
from repro.traces.recorder import record_spec
from repro.traces.registry import corpus_spec
from repro.traces.replayer import replay_multicore, replay_timing


def _record(spec) -> tuple[bytes, object]:
    """``spec`` recorded to memory: (trace bytes, live result)."""
    buffer = BytesIO()
    live = record_spec(spec, buffer)
    return buffer.getvalue(), live


def _replays_to(raw: bytes, live) -> bool:
    return replay_timing(BytesIO(raw)) == live


def test_trace_record(benchmark):
    """Record one allocator-stress run to an in-memory CALTRC02 trace."""
    spec = corpus_spec("allocator-stress").scaled(10_000)

    assert _replays_to(*benchmark(_record, spec))


def test_trace_file_replay(benchmark):
    """Streaming replay of a recorded server-churn trace: frame inflate,
    columnar decode and the tag kernel, verified against the footer."""
    raw, live = _record(corpus_spec("server-churn").scaled(10_000))

    assert benchmark(_replays_to, raw, live)


def test_trace_multicore_replay(benchmark):
    """2-core shared-L3 replay of a server-churn + pointer-chase pair."""
    raws = [
        _record(corpus_spec(name).scaled(8_000))[0]
        for name in ("server-churn", "pointer-chase")
    ]

    def replay_once():
        return replay_multicore([BytesIO(raw) for raw in raws], jobs=1)

    result = benchmark(replay_once)
    assert result.cores == 2 and result.merged.touches > 0


def test_trace_compress(benchmark):
    """CALTRC02 encode: tokenise and deflate a recording's decoded columns."""
    raw, _live = _record(corpus_spec("server-churn").scaled(10_000))
    with TraceReader(BytesIO(raw)) as reader:
        header = reader.header
        batches = list(reader.column_batches())
        footer = reader.footer
    kinds, addresses, args = (
        np.concatenate([getattr(batch, column) for batch in batches])
        for column in ("kind", "address", "arg")
    )

    def compress_once():
        buffer = BytesIO()
        with CompressedTraceWriter(buffer, header) as writer:
            writer.append_columns(kinds, addresses, args)
            writer.set_footer(footer)
        return buffer.getvalue()

    assert benchmark(compress_once) == raw


def test_loadgen_generate(benchmark):
    """Compose a 2-tenant open-loop scenario and record it as one trace."""
    load = LoadScenario(
        name="perf-loadgen",
        description="2-tenant allocator-stress composition",
        arrival=ArrivalSpec(kind="poisson", lambda_per_s=300.0),
        mix=(MixEntry(profile="allocator-stress", weight=1.0),),
        tenants=2,
        duration_s=0.5,
        seed=5,
    )
    spec = compose_spec(load)

    assert _replays_to(*benchmark(_record, spec))
