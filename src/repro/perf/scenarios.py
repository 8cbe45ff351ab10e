"""Perf scenarios: the simulator's hot paths, packaged for the harness.

Each scenario builds a deterministic workload (fixed RNG seeds) and
returns a zero-argument callable plus the number of logical operations
one call performs, so the harness can report ops/sec.  The codec
scenarios deliberately mirror ``benchmarks/test_microbench_codec.py`` —
the trajectory produced here is the regression record for those
microbenchmarks.

Scenario families:

``codec_*``
    The sentinel spill/fill paths (Algorithms 1 and 2) — the conversion
    work Table 2 prices in hardware.
``normalize``
    Security-byte zeroing, the L1-side canonicalisation step.
``hierarchy_*`` / ``trace_replay``
    The functional memory stack: hit path, califormed eviction pressure,
    and a mixed load/store trace replayed through the batched API when
    the hierarchy provides one.
``trace_record`` / ``trace_file_replay`` / ``trace_multicore_replay``
    The trace engine (``repro.traces``): recording a registry scenario
    to an in-memory CALTRC02 trace, the streaming bit-identical replay
    of it (frame inflate, columnar decode, batched tag kernel), and the
    2-core shared-L3 interleaved replay of an antagonist pair.
``trace_compress``
    The CALTRC02 encoder: a recorded trace's decoded record columns
    written through ``CompressedTraceWriter.append_columns``
    (delta/run-length tokenisation + zlib) — the corpus store's write
    side.
``loadgen_generate``
    The open-loop traffic engine (``repro.loadgen``): composing a
    2-tenant scenario's merged arrival stream and recording it as one
    compressed CALTRC02 trace.
``serve_fetch`` / ``serve_results``
    The corpus/experiment service (``repro.serve``), measured over real
    sockets against an in-process server: fetch-by-digest object reads
    on a keep-alive connection, and the results cache's 304
    revalidation path.
``codec_reference``
    The retained pure-reference codec, measured with the same workload
    as ``codec_encode``/``codec_decode`` so every report carries its own
    optimized-vs-reference speedup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.core import bitvector as bv
from repro.core import line_formats, sentinel
from repro.core.cform import CformRequest
from repro.core.line_formats import BitvectorLine
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

#: (callable, ops_per_iteration) returned by each scenario factory.
Workload = tuple[Callable[[], object], int]


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    build: Callable[[bool], Workload]
    default_iterations: int = 30
    default_warmup: int = 3


def _random_lines(count: int, security_bytes: int, seed: int = 0) -> list[BitvectorLine]:
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        data = bytearray(rng.randrange(256) for _ in range(64))
        indices = rng.sample(range(64), security_bytes)
        lines.append(BitvectorLine(data, bv.mask_from_indices(indices)))
    return lines


def _codec_encode(quick: bool) -> Workload:
    count = 64 if quick else 256
    lines = _random_lines(count, security_bytes=6)
    encode = sentinel.encode

    def spill_all() -> None:
        for line in lines:
            encode(line)

    return spill_all, count


def _codec_decode(quick: bool) -> Workload:
    count = 64 if quick else 256
    encoded = [sentinel.encode(line) for line in _random_lines(count, security_bytes=6)]
    decode = sentinel.decode

    def fill_all() -> None:
        for line in encoded:
            decode(line)

    return fill_all, count


def _codec_roundtrip_dense(quick: bool) -> Workload:
    count = 32 if quick else 128
    lines = _random_lines(count, security_bytes=24, seed=1)
    encode, decode = sentinel.encode, sentinel.decode

    def roundtrip_all() -> None:
        for line in lines:
            decode(encode(line))

    return roundtrip_all, count


def _codec_reference(quick: bool) -> Workload:
    # Before the fast-path rewrite the reference IS the production codec;
    # afterwards the retained *_reference functions keep this comparable.
    encode = getattr(sentinel, "encode_reference", sentinel.encode)
    decode = getattr(sentinel, "decode_reference", sentinel.decode)
    count = 64 if quick else 256
    lines = _random_lines(count, security_bytes=6)
    encoded = [encode(line) for line in lines]

    def reference_both() -> None:
        for line in lines:
            encode(line)
        for enc in encoded:
            decode(enc)

    return reference_both, 2 * count


def _normalize(quick: bool) -> Workload:
    count = 64 if quick else 256
    rng = random.Random(3)
    pairs = []
    for _ in range(count):
        data = bytes(rng.randrange(256) for _ in range(64))
        pairs.append((data, rng.getrandbits(64) & bv.FULL_MASK))
    normalize = line_formats.normalize_security_bytes

    def normalize_all() -> None:
        for data, mask in pairs:
            normalize(data, mask)

    return normalize_all, count


def _hierarchy_l1_hits(quick: bool) -> Workload:
    count = 64 if quick else 256
    hierarchy = MemoryHierarchy()
    hierarchy.store_or_raise(0x1000, b"warm")
    load = hierarchy.load

    def hit_loop() -> None:
        for _ in range(count):
            load(0x1000, 8)

    return hit_loop, count


def _hierarchy_califormed_evictions(quick: bool) -> Workload:
    lines = 32 if quick else 64
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(8 * 64, 2),
        l2_geometry=CacheGeometry(32 * 64, 4),
        l3_geometry=CacheGeometry(128 * 64, 8),
    )
    hierarchy = MemoryHierarchy(config)
    for index in range(lines):
        hierarchy.cform(CformRequest.set_bytes(index * 64, [1, 2, 3]))
    load = hierarchy.load

    def thrash() -> None:
        for index in range(lines):
            load(index * 64 + 8, 4)

    return thrash, lines


def _make_trace(ops: int, seed: int = 7) -> list[tuple]:
    """Mixed load/store trace over 512 lines, ~10% of them califormed."""
    rng = random.Random(seed)
    trace: list[tuple] = []
    for _ in range(ops):
        line = rng.randrange(512)
        offset = rng.randrange(56)
        address = line * 64 + offset
        if rng.random() < 0.5:
            trace.append(("L", address, rng.choice((1, 2, 4, 8))))
        else:
            trace.append(("S", address, bytes([rng.randrange(256)] * 4)))
    return trace


def _trace_replay(quick: bool) -> Workload:
    ops = 512 if quick else 4096
    trace = _make_trace(ops)
    hierarchy = MemoryHierarchy()
    for line in range(0, 512, 10):
        hierarchy.cform(CformRequest.set_bytes(line * 64, [62, 63]))
    replay = getattr(hierarchy, "replay_trace", None)
    if replay is not None:
        def run_trace() -> None:
            replay(trace)
    else:
        # Pre-batched-API fallback: the per-op public interface.
        def run_trace() -> None:
            for op in trace:
                if op[0] == "L":
                    hierarchy.load(op[1], op[2])
                else:
                    hierarchy.store(op[1], op[2])

    return run_trace, ops


def _trace_record(quick: bool) -> Workload:
    from io import BytesIO

    from repro.traces.recorder import record_spec
    from repro.traces.registry import corpus_spec

    spec = corpus_spec("allocator-stress").scaled(2_000 if quick else 10_000)

    def record_once() -> None:
        record_spec(spec, BytesIO())

    return record_once, 1


def _trace_file_replay(quick: bool) -> Workload:
    from io import BytesIO

    from repro.traces.format import TraceReader
    from repro.traces.recorder import record_spec
    from repro.traces.registry import corpus_spec
    from repro.traces.replayer import replay_timing

    spec = corpus_spec("server-churn").scaled(2_000 if quick else 10_000)
    buffer = BytesIO()
    record_spec(spec, buffer)
    raw = buffer.getvalue()
    records = TraceReader(BytesIO(raw)).read_footer()["records"]

    def replay_once() -> None:
        replay_timing(BytesIO(raw))

    return replay_once, records


def _trace_multicore_replay(quick: bool) -> Workload:
    from io import BytesIO

    from repro.traces.format import TraceReader
    from repro.traces.recorder import record_spec
    from repro.traces.registry import corpus_spec
    from repro.traces.replayer import replay_multicore

    length = 2_000 if quick else 8_000
    raws: list[bytes] = []
    records = 0
    for name in ("server-churn", "pointer-chase"):
        buffer = BytesIO()
        record_spec(corpus_spec(name).scaled(length), buffer)
        raws.append(buffer.getvalue())
        records += TraceReader(BytesIO(raws[-1])).read_footer()["records"]

    def replay_once() -> None:
        replay_multicore([BytesIO(raw) for raw in raws], jobs=1)

    return replay_once, records


def _trace_compress(quick: bool) -> Workload:
    from io import BytesIO

    import numpy as np

    from repro.traces.compress import CompressedTraceWriter
    from repro.traces.format import TraceReader
    from repro.traces.recorder import record_spec
    from repro.traces.registry import corpus_spec

    spec = corpus_spec("server-churn").scaled(2_000 if quick else 10_000)
    buffer = BytesIO()
    record_spec(spec, buffer)
    buffer.seek(0)
    with TraceReader(buffer) as reader:
        header = reader.header
        batches = list(reader.column_batches())
    kinds, addresses, args = (
        np.concatenate([getattr(batch, column) for batch in batches])
        for column in ("kind", "address", "arg")
    )

    def compress_once() -> None:
        with CompressedTraceWriter(BytesIO(), header) as writer:
            writer.append_columns(kinds, addresses, args)

    return compress_once, len(kinds)


def _loadgen_generate(quick: bool) -> Workload:
    from io import BytesIO

    from repro.loadgen.compose import compose_spec
    from repro.loadgen.schema import ArrivalSpec, LoadScenario, MixEntry
    from repro.traces.recorder import record_spec

    load = LoadScenario(
        name="perf-loadgen",
        description="perf harness: 2-tenant allocator-stress composition",
        arrival=ArrivalSpec(kind="poisson", lambda_per_s=300.0),
        mix=(MixEntry(profile="allocator-stress", weight=1.0),),
        tenants=2,
        duration_s=0.25 if quick else 0.5,
        seed=5,
    )
    spec = compose_spec(load)

    def generate_once() -> None:
        record_spec(spec, BytesIO())

    return generate_once, 1


def _start_serve(corpus_root: str, results_dir: str) -> int:
    """Run a :class:`~repro.serve.app.ServeApp` in a daemon thread.

    Returns the ephemeral port once the server is accepting.  The thread
    lives for the rest of the process — fine for a perf run, where the
    harness process exits after the report is written.
    """
    import asyncio
    import threading

    from repro.serve.app import ServeApp

    app = ServeApp(corpus_root, results_dir)
    ready = threading.Event()
    bound: dict[str, int] = {}

    def run() -> None:
        async def serve() -> None:
            server = await app.start("127.0.0.1", 0)
            bound["port"] = server.sockets[0].getsockname()[1]
            ready.set()
            async with server:
                await server.serve_forever()

        asyncio.run(serve())

    threading.Thread(target=run, daemon=True, name="perf-serve").start()
    if not ready.wait(timeout=30):
        raise RuntimeError("serve app failed to start within 30s")
    return bound["port"]


def _serve_fetch(quick: bool) -> Workload:
    import http.client
    import tempfile

    from repro.corpus.store import CorpusStore
    from repro.traces.registry import corpus_spec

    root = tempfile.mkdtemp(prefix="repro-perf-serve-")
    store = CorpusStore(root)
    spec = corpus_spec("pointer-chase").scaled(2_000 if quick else 8_000)
    digest = store.ensure(spec).entry.digest
    port = _start_serve(root, root)  # no results dir needed here
    count = 8 if quick else 32

    def fetch_all() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for _ in range(count):
                connection.request("GET", f"/objects/{digest}")
                response = connection.getresponse()
                response.read()
                assert response.status == 200, response.status
        finally:
            connection.close()

    return fetch_all, count


def _serve_results(quick: bool) -> Workload:
    import http.client
    import json as json_module
    import os
    import tempfile

    from repro.experiments.results import RESULT_SCHEMA

    results_dir = tempfile.mkdtemp(prefix="repro-perf-results-")
    document = {
        "schema": RESULT_SCHEMA,
        "section": "perf",
        "title": "perf harness serve_results section",
        "data": {"series": list(range(64))},
    }
    with open(os.path.join(results_dir, "perf.json"), "w") as handle:
        json_module.dump(document, handle, indent=2, sort_keys=True)
    port = _start_serve(results_dir, results_dir)
    count = 8 if quick else 64

    def revalidate_all() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("GET", "/results/perf")
            response = connection.getresponse()
            response.read()
            assert response.status == 200, response.status
            etag = response.getheader("ETag")
            for _ in range(count - 1):
                connection.request(
                    "GET", "/results/perf", headers={"If-None-Match": etag}
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 304, response.status
        finally:
            connection.close()

    return revalidate_all, count


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "codec_encode",
            "sentinel spill path (Algorithm 1), 6 security bytes/line",
            _codec_encode,
        ),
        Scenario(
            "codec_decode",
            "sentinel fill path (Algorithm 2), 6 security bytes/line",
            _codec_decode,
        ),
        Scenario(
            "codec_roundtrip_dense",
            "encode+decode with 24 security bytes/line (sentinel scan stress)",
            _codec_roundtrip_dense,
        ),
        Scenario(
            "codec_reference",
            "pure-reference encode+decode on the codec_encode workload",
            _codec_reference,
        ),
        Scenario(
            "normalize",
            "security-byte zeroing over random 64-bit masks",
            _normalize,
        ),
        Scenario(
            "hierarchy_l1_hits",
            "repeated L1 hit-path loads of one warm line",
            _hierarchy_l1_hits,
        ),
        Scenario(
            "hierarchy_califormed_evictions",
            "califormed spill/fill under eviction pressure (tiny geometry)",
            _hierarchy_califormed_evictions,
        ),
        Scenario(
            "trace_replay",
            "mixed load/store trace through the hierarchy's batched fast loop",
            _trace_replay,
        ),
        Scenario(
            "trace_record",
            "trace engine: record one allocator-stress run to a memory buffer",
            _trace_record,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "trace_file_replay",
            "trace engine: streaming bit-identical replay of a recorded trace",
            _trace_file_replay,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "trace_multicore_replay",
            "2-core shared-L3 replay of a server-churn + pointer-chase pair",
            _trace_multicore_replay,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "trace_compress",
            "CALTRC02 encode: tokenise + deflate decoded record columns",
            _trace_compress,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "loadgen_generate",
            "traffic engine: compose + record a 2-tenant open-loop scenario",
            _loadgen_generate,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "serve_fetch",
            "repro.serve: fetch-by-digest object GETs over one keep-alive "
            "connection",
            _serve_fetch,
            default_iterations=10,
            default_warmup=1,
        ),
        Scenario(
            "serve_results",
            "repro.serve: cached section-result GETs (one 200, then 304 "
            "revalidations)",
            _serve_results,
            default_iterations=10,
            default_warmup=1,
        ),
    )
}


def get_scenarios(names: list[str] | None) -> list[Scenario]:
    """Resolve scenario names (``None`` → all), preserving registry order."""
    if not names:
        return list(SCENARIOS.values())
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario(s) {unknown}; known: {known}")
    return [SCENARIOS[name] for name in names]
