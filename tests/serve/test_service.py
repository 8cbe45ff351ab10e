"""repro.serve end-to-end: a live service over real sockets.

One module-scoped server runs over a tiny recorded corpus, a pack file
and a results directory; every test talks to it through
:class:`~repro.serve.client.RemoteStore` or a raw HTTP connection.  The
load-bearing assertions are the identity ones — fetched bytes equal the
server's on-disk bytes, and a replay through the remote store equals a
replay through a local store record-for-record.
"""

import http.client
import json
import os
import threading

import pytest

from repro.corpus.packs import read_pack, write_pack
from repro.corpus.store import CorpusStore
from repro.experiments.results import RESULT_SCHEMA
from repro.serve.client import (
    RemoteError,
    RemoteIntegrityError,
    RemoteStore,
)
from repro.traces.registry import CORPUS

INSTRUCTIONS = 2_000
SCENARIO = "server-churn"


def _spec(name=SCENARIO):
    return CORPUS[name].scaled(INSTRUCTIONS)


class LiveServer:
    """The app served from a daemon thread on an ephemeral port."""

    def __init__(self, corpus_root: str, results_dir: str):
        import asyncio

        from repro.serve.app import ServeApp

        self.app = ServeApp(corpus_root, results_dir)
        ready = threading.Event()
        bound = {}

        def run() -> None:
            async def serve() -> None:
                server = await self.app.start("127.0.0.1", 0)
                bound["port"] = server.sockets[0].getsockname()[1]
                ready.set()
                async with server:
                    await server.serve_forever()

            asyncio.run(serve())

        threading.Thread(target=run, daemon=True, name="test-serve").start()
        assert ready.wait(timeout=30), "server failed to start"
        self.port = bound["port"]

    def request(self, method, path, body=None, headers=None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                response.read(),
            )
        finally:
            connection.close()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(server, local CorpusStore, corpus root, results dir)."""
    root = tmp_path_factory.mktemp("serve")
    corpus_root = str(root / "corpus")
    results_dir = str(root / "results")
    os.makedirs(results_dir)
    store = CorpusStore(corpus_root)
    store.ensure(_spec())
    write_pack(store)
    document = {
        "schema": RESULT_SCHEMA,
        "section": "fig_smoke",
        "title": "serve e2e section",
        "data": {"value": 2.5},
    }
    with open(os.path.join(results_dir, "fig_smoke.json"), "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    server = LiveServer(corpus_root, results_dir)
    return server, store, corpus_root, results_dir


@pytest.fixture()
def remote(served, tmp_path):
    server = served[0]
    return RemoteStore(
        f"http://127.0.0.1:{server.port}", cache_dir=str(tmp_path / "cache")
    )


class TestLiveness:
    def test_healthz(self, served):
        server = served[0]
        status, _headers, body = server.request("GET", "/healthz")
        assert status == 200
        document = json.loads(body)
        assert document["status"] == "ok"
        assert document["corpus"]["entries"] == 1
        assert document["results"]["sections"] == 1

    def test_server_header_carries_version(self, served):
        from repro import package_version

        server = served[0]
        _status, headers, _body = server.request("GET", "/healthz")
        assert headers["server"] == f"repro-serve/{package_version()}"

    def test_metrics_is_prometheus_text(self, served):
        server = served[0]
        server.request("GET", "/healthz")
        status, headers, body = server.request("GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        lines = body.decode().splitlines()
        assert any(line.startswith("# TYPE ") for line in lines)
        for line in lines:
            if line.startswith("#"):
                kind = line.split()[-1]
                assert kind in ("counter", "gauge", "histogram")
            else:
                name_part, value = line.rsplit(" ", 1)
                float(value)  # every sample line must parse

    def test_unknown_route_is_404_and_unknown_method_405(self, served):
        server = served[0]
        assert server.request("GET", "/nope")[0] == 404
        assert server.request("PUT", "/objects/" + "a" * 64)[0] == 405


class TestObjects:
    def test_fetched_bytes_match_local_store(self, served, remote):
        _server, store, _corpus, _results = served
        entry = next(iter(store.manifest().entries.values()))
        outcome = remote.fetch(entry.digest)
        with open(store.object_path(entry.digest), "rb") as handle:
            local_bytes = handle.read()
        with open(outcome.path, "rb") as handle:
            assert handle.read() == local_bytes

    def test_refetch_is_a_local_cache_hit(self, served, remote):
        _server, store, _corpus, _results = served
        entry = next(iter(store.manifest().entries.values()))
        assert not remote.fetch(entry.digest).from_cache
        assert remote.fetch(entry.digest).from_cache
        assert (remote.hits, remote.fetched) == (1, 1)

    def test_digest_etag_revalidation(self, served):
        server, store = served[0], served[1]
        digest = next(iter(store.manifest().entries.values())).digest
        status, headers, body = server.request("GET", f"/objects/{digest}")
        assert status == 200
        assert headers["etag"] == f'"{digest}"'
        status, _headers, body = server.request(
            "GET", f"/objects/{digest}",
            headers={"If-None-Match": f'"{digest}"'},
        )
        assert (status, body) == (304, b"")

    def test_bad_digest_400_unknown_digest_404(self, served):
        server = served[0]
        assert server.request("GET", "/objects/nope")[0] == 400
        assert server.request("GET", "/objects/" + "0" * 64)[0] == 404

    def test_remote_fetch_unknown_digest_raises(self, remote):
        with pytest.raises(RemoteError) as outcome:
            remote.fetch("0" * 64)
        assert outcome.value.status == 404


class TestResults:
    def test_second_get_is_304(self, served):
        server = served[0]
        status, headers, body = server.request("GET", "/results/fig_smoke")
        assert status == 200
        assert json.loads(body)["schema"] == RESULT_SCHEMA
        etag = headers["etag"]
        status, _headers, body = server.request(
            "GET", "/results/fig_smoke", headers={"If-None-Match": etag}
        )
        assert (status, body) == (304, b"")

    def test_client_revalidation(self, remote):
        status, etag, body = remote.result_document("fig_smoke")
        assert status == 200 and body
        status, _etag, body = remote.result_document("fig_smoke", etag=etag)
        assert (status, body) == (304, b"")

    def test_missing_section_404_lists_available(self, served):
        server = served[0]
        status, _headers, body = server.request("GET", "/results/nope")
        assert status == 404
        assert "fig_smoke" in json.loads(body)["error"]

    def test_path_escapes_rejected(self, served):
        server = served[0]
        status, _h, _b = server.request("GET", "/results/..%2fsecret")
        assert status == 404


class TestPacks:
    def test_pack_roundtrip_is_digest_identical(self, served, remote, tmp_path):
        server, store = served[0], served[1]
        status, _headers, body = server.request("GET", "/packs")
        packs = json.loads(body)["packs"]
        assert status == 200 and len(packs) == 1
        identifier = packs[0]["id"]
        fetched = remote.fetch_pack(identifier, str(tmp_path / "got.pack"))
        other = CorpusStore(str(tmp_path / "other"))
        from repro.corpus.packs import unpack

        installed, skipped = unpack(fetched, other)
        assert len(installed) == 1 and skipped == []
        assert other.manifest().entries.keys() == store.manifest().entries.keys()
        for entry in other.manifest().entries.values():
            assert os.path.exists(other.object_path(entry.digest))

    def test_pack_etag_revalidation(self, served):
        server = served[0]
        _s, _h, body = server.request("GET", "/packs")
        identifier = json.loads(body)["packs"][0]["id"]
        status, _headers, _body = server.request(
            "GET", f"/packs/{identifier}",
            headers={"If-None-Match": f'"{identifier}"'},
        )
        assert status == 304

    def test_pack_members_readable(self, served, remote, tmp_path):
        server = served[0]
        _s, _h, body = server.request("GET", "/packs")
        identifier = json.loads(body)["packs"][0]["id"]
        fetched = remote.fetch_pack(identifier, str(tmp_path / "p.pack"))
        info = read_pack(fetched)
        assert [m.entry.scenario for m in info.members] == [SCENARIO]


class TestJobs:
    def test_posted_job_streams_progress_and_completes(self, served):
        server = served[0]
        spec = {"kind": "record", "scenario": SCENARIO,
                "instructions": INSTRUCTIONS}
        status, headers, body = server.request(
            "POST", "/jobs", body=json.dumps(spec).encode()
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        events = [json.loads(line) for line in body.splitlines() if line]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert "running" in kinds
        assert kinds[-1] == "done"
        # The corpus already holds this spec: a pure hit, no recording.
        assert "corpus-hit" in kinds
        assert events[-1]["result"]["built"] is False

    def test_replay_job_carries_run_statistics(self, served):
        server = served[0]
        spec = {"kind": "replay", "scenario": SCENARIO,
                "instructions": INSTRUCTIONS}
        _status, _headers, body = server.request(
            "POST", "/jobs", body=json.dumps(spec).encode()
        )
        done = json.loads(body.splitlines()[-1])
        replay = done["result"]["replay"]
        assert replay["benchmark"] == SCENARIO
        assert replay["instructions"] > 0
        assert "l1_accesses" in replay["events"]

    def test_nowait_returns_202_and_job_is_queryable(self, served):
        server = served[0]
        spec = {"kind": "record", "scenario": SCENARIO,
                "instructions": INSTRUCTIONS}
        status, headers, body = server.request(
            "POST", "/jobs?wait=0", body=json.dumps(spec).encode()
        )
        assert status == 202
        job_id = json.loads(body)["job"]
        assert headers["location"] == f"/jobs/{job_id}"
        deadline = 50
        while deadline:
            _s, _h, job_body = server.request("GET", f"/jobs/{job_id}")
            document = json.loads(job_body)
            if document["state"] in ("done", "failed"):
                break
            deadline -= 1
            import time

            time.sleep(0.1)
        assert document["state"] == "done"

    def test_bad_job_spec_is_400(self, served):
        server = served[0]
        for bad in (
            b"not json",
            json.dumps({"kind": "nope", "scenario": SCENARIO}).encode(),
            json.dumps({"kind": "record"}).encode(),
            json.dumps({"kind": "record", "scenario": "nope"}).encode(),
        ):
            status, _headers, _body = server.request("POST", "/jobs", body=bad)
            assert status == 400, bad


class TestRemoteReplayIdentity:
    def test_remote_replay_equals_local_replay(self, served, remote):
        _server, store, _corpus, _results = served
        remote_run = remote.run_result(_spec())
        local_run = store.run_result(_spec())
        assert remote_run.events == local_run.events
        assert remote_run.instructions == local_run.instructions
        assert remote_run.cform_instructions == local_run.cform_instructions
        assert remote_run.alloc_events == local_run.alloc_events

    def test_ensure_miss_records_remotely(self, served, remote):
        _server, store, _corpus, _results = served
        spec = CORPUS["pointer-chase"].scaled(INSTRUCTIONS)
        before = set(store.manifest().entries)
        resolved = remote.ensure(spec)
        assert resolved.built
        assert os.path.exists(resolved.path)
        # The recording happened on the service's store, not ours.
        assert set(store.manifest().entries) > before

    def test_remote_slowdown_equals_the_live_one(self, served, remote):
        from repro.workloads.generator import Scenario, slowdown
        from repro.workloads.specs import SPEC_PROFILES

        profile = SPEC_PROFILES["mcf"]
        scenario = Scenario(policy=("fixed", 2))
        assert remote.slowdown(profile, scenario, INSTRUCTIONS) == slowdown(
            profile, scenario, instructions=INSTRUCTIONS
        )

    def test_corrupt_cache_entry_is_refetched(self, served, remote):
        _server, store, _corpus, _results = served
        entry = next(iter(store.manifest().entries.values()))
        outcome = remote.fetch(entry.digest)
        with open(outcome.path, "wb") as handle:
            handle.write(b"corrupted")
        fresh = RemoteStore(remote.base_url, cache_dir=remote.root)
        redone = fresh.fetch(entry.digest)
        assert not redone.from_cache
        with open(store.object_path(entry.digest), "rb") as handle:
            local_bytes = handle.read()
        with open(redone.path, "rb") as handle:
            assert handle.read() == local_bytes


class TestClientValidation:
    def test_https_rejected(self):
        with pytest.raises(ValueError):
            RemoteStore("https://example.org")

    def test_integrity_error_is_remote_error(self):
        assert issubclass(RemoteIntegrityError, RemoteError)
