"""The remote side of the corpus: fetch-by-digest with a local cache.

:class:`RemoteStore` speaks to a ``repro.serve`` service and implements
the corpus store's *read interface* — ``ensure`` → ``CorpusObject``,
``run_result``, ``slowdown``, ``manifest`` — so every consumer that
resolves traces through a store handle (figure sweeps, trace checks,
multi-core contention) works unchanged against a remote corpus.  The
handle is passed programmatically, e.g.
``fig12_intelligent.run(store=RemoteStore("http://host:port"))``;
``repro run --corpus`` takes a local directory only.

The contract mirrors the local store's exactly:

* **Identity is content.**  Objects are named by the sha256 of their
  canonical CALTRC01 stream; every fetched object is re-hashed before it
  is trusted, so a damaged transfer (or a lying server) raises
  :class:`RemoteIntegrityError` instead of contaminating the cache.
* **The cache is a store.**  Fetched objects land under
  ``<cache>/objects/<aa>/<digest>.trace`` — the local store layout —
  so a RemoteStore cache directory is also a valid offline corpus, and
  a digest already present (and verified once per handle) costs zero
  network traffic.
* **Misses record remotely.**  ``ensure`` of a spec the service has not
  recorded submits a record job and waits for its event stream, then
  fetches the resulting object — the remote twin of the local store's
  record-on-miss.

Transport is stdlib ``http.client``; requests carry a
``User-Agent: repro-serve-client/<version>`` header, the version dual of
the service's ``Server:`` header.
"""

from __future__ import annotations

import http.client
import json
import os
import tempfile
from dataclasses import dataclass
from urllib.parse import urlsplit

from repro import package_version
from repro.corpus.manifest import Manifest, ManifestEntry
from repro.corpus.store import (
    CorpusObject,
    CorpusStore,
    canonical_digest,
    spec_fingerprint,
)
from repro.memory.hierarchy import WESTMERE, HierarchyConfig
from repro.traces.registry import TraceScenarioSpec
from repro.traces.replayer import replay_timing
from repro.workloads.generator import RunResult

#: Seconds an HTTP request (including a streamed job) may take.
DEFAULT_TIMEOUT = 300.0


class RemoteError(RuntimeError):
    """The service answered with an error status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class RemoteIntegrityError(RemoteError):
    """Fetched bytes do not hash to the digest they were served under."""

    def __init__(self, message: str):
        RuntimeError.__init__(self, message)
        self.status = 502


class RemoteJobFailed(RemoteError):
    """A submitted job reached the ``failed`` state."""

    def __init__(self, message: str):
        RuntimeError.__init__(self, message)
        self.status = 500


@dataclass
class FetchOutcome:
    """One ``fetch`` resolution: the local path and how it was satisfied."""

    path: str
    digest: str
    from_cache: bool


class RemoteStore:
    """Corpus read interface over HTTP (see module docstring)."""

    def __init__(
        self,
        base_url: str,
        cache_dir: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        split = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(
                f"RemoteStore speaks plain http; got {base_url!r}"
            )
        if not split.hostname:
            raise ValueError(f"no host in {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.base_url = f"http://{self.host}:{self.port}"
        self.root = cache_dir or os.path.join(
            tempfile.gettempdir(), f"repro-remote-{self.host}-{self.port}"
        )
        self.objects_dir = os.path.join(self.root, "objects")
        self.timeout = timeout
        self.user_agent = f"repro-serve-client/{package_version()}"
        #: Resolution counters, mirroring the local store's reporting.
        self.hits = 0  # satisfied from the local cache
        self.fetched = 0  # satisfied over the wire
        self.built = 0  # record jobs the service ran for us
        self._verified: set[str] = set()
        self._manifest: Manifest | None = None

    # -- transport -----------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            send_headers = {"User-Agent": self.user_agent}
            send_headers.update(headers or {})
            connection.request(method, path, body=body, headers=send_headers)
            response = connection.getresponse()
            payload = response.read()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                payload,
            )
        finally:
            connection.close()

    def _get_json(self, path: str):
        status, _headers, body = self._request("GET", path)
        if status != 200:
            raise RemoteError(status, _error_message(body))
        return json.loads(body.decode("utf-8"))

    # -- service views -------------------------------------------------------

    def healthz(self) -> dict:
        return self._get_json("/healthz")

    def metrics_text(self) -> str:
        status, _headers, body = self._request("GET", "/metrics")
        if status != 200:
            raise RemoteError(status, _error_message(body))
        return body.decode("utf-8")

    def manifest(self, refresh: bool = False) -> Manifest:
        """The service's manifest (cached per handle; ``refresh`` re-GETs)."""
        if self._manifest is None or refresh:
            document = self._get_json("/manifest")
            self._manifest = Manifest(
                entries={
                    fingerprint: ManifestEntry.from_dict(entry)
                    for fingerprint, entry in document.get(
                        "entries", {}
                    ).items()
                }
            )
        return self._manifest

    def result_document(
        self, section: str, etag: str | None = None
    ) -> tuple[int, str | None, bytes]:
        """``GET /results/<section>`` with optional revalidation.

        Returns ``(status, etag, body)`` — 304 with an empty body when
        the offered ETag still matches.
        """
        headers = {"If-None-Match": f'"{etag}"'} if etag else {}
        status, response_headers, body = self._request(
            "GET", f"/results/{section}", headers=headers
        )
        if status not in (200, 304):
            raise RemoteError(status, _error_message(body))
        return status, response_headers.get("etag", "").strip('"'), body

    # -- fetch-by-digest -----------------------------------------------------

    def object_path(self, digest: str) -> str:
        return os.path.join(self.objects_dir, digest[:2], f"{digest}.trace")

    def fetch(self, digest: str) -> FetchOutcome:
        """Resolve one digest to a verified local file, fetching on miss."""
        path = self.object_path(digest)
        if os.path.exists(path):
            if digest in self._verified or self._verify(path, digest):
                self.hits += 1
                return FetchOutcome(path=path, digest=digest, from_cache=True)
            os.remove(path)  # damaged cache entry: refetch
        status, _headers, body = self._request("GET", f"/objects/{digest}")
        if status != 200:
            raise RemoteError(status, _error_message(body))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".fetching"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(body)
            if not self._verify(temp_path, digest):
                raise RemoteIntegrityError(
                    f"fetched object does not hash to {digest[:12]}… — "
                    f"transfer or server corruption"
                )
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise
        self.fetched += 1
        return FetchOutcome(path=path, digest=digest, from_cache=False)

    def fetch_pack(self, identifier: str, out: str) -> str:
        """Download one pack file, verifying its content address."""
        import hashlib

        status, _headers, body = self._request(
            "GET", f"/packs/{identifier}"
        )
        if status != 200:
            raise RemoteError(status, _error_message(body))
        if hashlib.sha256(body).hexdigest() != identifier:
            raise RemoteIntegrityError(
                f"pack does not hash to {identifier[:12]}…"
            )
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "wb") as handle:
            handle.write(body)
        return out

    def _verify(self, path: str, digest: str) -> bool:
        try:
            actual, _raw, _footer = canonical_digest(path)
        except Exception:
            return False
        if actual != digest:
            return False
        self._verified.add(digest)
        return True

    # -- the store read interface --------------------------------------------

    def ensure(
        self,
        spec: TraceScenarioSpec,
        config: HierarchyConfig = WESTMERE,
    ) -> CorpusObject:
        """Resolve a spec exactly like the local store: manifest lookup →
        fetch-by-digest → (on a service-side miss) record remotely."""
        fingerprint = spec_fingerprint(spec, config)
        entry = self.manifest().get(fingerprint)
        built = False
        if entry is None:
            self.record_remote(spec)
            built = True
            entry = self.manifest(refresh=True).get(fingerprint)
            if entry is None:
                raise RemoteError(
                    502,
                    f"service recorded {spec.name!r} but its manifest still "
                    f"lacks fingerprint {fingerprint[:12]}… — geometry "
                    f"mismatch between client and server?",
                )
        outcome = self.fetch(entry.digest)
        return CorpusObject(path=outcome.path, entry=entry, built=built)

    def record_remote(self, spec: TraceScenarioSpec) -> dict:
        """Submit a record job and consume its event stream to completion."""
        body = json.dumps(
            {"kind": "record", "spec": spec.to_dict()}
        ).encode("utf-8")
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "POST",
                "/jobs",
                body=body,
                headers={
                    "User-Agent": self.user_agent,
                    "Content-Type": "application/json",
                },
            )
            response = connection.getresponse()
            if response.status != 200:
                raise RemoteError(
                    response.status, _error_message(response.read())
                )
            terminal: dict | None = None
            for line in response:  # http.client de-chunks for us
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                if event.get("event") in ("done", "failed"):
                    terminal = event
        finally:
            connection.close()
        if terminal is None:
            raise RemoteError(502, "job stream ended without a terminal event")
        if terminal["event"] == "failed":
            raise RemoteJobFailed(
                f"remote record of {spec.name!r} failed: "
                f"{terminal.get('error', '?')}"
            )
        self.built += 1
        return terminal.get("result", {})

    def run_result(
        self,
        spec: TraceScenarioSpec,
        config: HierarchyConfig = WESTMERE,
        runs: dict | None = None,
    ) -> RunResult:
        """The spec's statistics, replayed from the fetched object —
        bit-identical to a local-store replay of the same spec.  ``runs``
        (the local store's script memo) is unused: the service records."""
        resolved = self.ensure(spec, config)
        return replay_timing(resolved.path)

    #: The local store's figure-cell pricing; it resolves both runs
    #: through :meth:`run_result`, so a remote corpus prices a cell the
    #: same way.
    slowdown = CorpusStore.slowdown


def _error_message(body: bytes) -> str:
    try:
        return json.loads(body.decode("utf-8")).get("error", "?")
    except (UnicodeDecodeError, ValueError):
        return body[:200].decode("utf-8", "replace") or "?"
