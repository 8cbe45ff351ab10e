"""The corpus manifest: spec fingerprints bound to trace objects.

The manifest maps a **spec fingerprint** (sha256 over the scenario-spec
document plus the recording geometry — everything that determines the
logical event stream) to the metadata of the recorded object: the
content digest that names the object file, the sha256 of its stored
bytes, record/byte counts and the scenario name.  The fingerprint
answers "have we recorded this workload?"; the stored hash answers "are
the bytes on disk the ones we recorded?" — together they make the store
reproducible (same spec → same fingerprint → same object) and
verifiable (``python -m repro.corpus verify``).

On disk the manifest is two files at the store root:

* ``manifest.json`` — the **snapshot**, one JSON document
  ``{"manifest_version": 3, "entries": {fingerprint: entry}}``, written
  atomically (temp file + ``os.replace``);
* ``manifest.journal`` — the **journal**, one JSON object per line:
  a header line ``{"manifest_journal": 3}``, then ``{"put": entry}`` or
  ``{"drop": fingerprint}`` per change, in the order they were made.

The manifest is the snapshot with the journal's lines applied in order
(:func:`load_manifest`).  A write appends lines under the advisory
manifest lock (:func:`append_journal`), so recording one workload costs
a write of one entry, whatever the size of the corpus; when the journal
outgrows the snapshot the writer folds it in (:func:`save_manifest`
replaces the snapshot, then removes the journal).  A reader never
writes.  A writer killed mid-append leaves a torn final line, which
readers ignore and the next writer cuts off before appending: a killed
build loses at most its own entry.  Parallel builders converge instead
of clobbering each other; a lost race costs at worst one redundant
re-recording, never a corrupt manifest.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field

#: Bump when entry keys or the on-disk layout change shape.  A manifest
#: of another version fails to load and heals like a corrupt one: the
#: store quarantines it and rebuilds bindings on demand.  Version 3 added
#: the journal beside the snapshot.
MANIFEST_VERSION = 3

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "manifest.journal"
LOCK_NAME = "manifest.lock"

#: Default seconds a writer waits for the manifest lock before raising
#: :class:`ManifestLockTimeout`; ``$REPRO_LOCK_TIMEOUT`` overrides it.
ENV_LOCK_TIMEOUT = "REPRO_LOCK_TIMEOUT"
DEFAULT_LOCK_TIMEOUT = 30.0

#: Exponential-backoff schedule for lock acquisition: the first retry
#: sleeps this long, every later retry doubles it up to the cap.
LOCK_BACKOFF_INITIAL = 0.01
LOCK_BACKOFF_MAX = 0.25


class ManifestLockTimeout(TimeoutError):
    """The manifest lock could not be acquired within the timeout.

    Carries enough diagnostics to tell a *busy* lock (another builder is
    mid-update; rerun later) from a *stuck* one (the holder recorded in
    the lock file is hung or unkillable).  A dead holder never blocks:
    ``flock`` locks evaporate with their process, so a leftover
    ``manifest.lock`` file on disk is inert.
    """


@dataclass(frozen=True)
class ManifestEntry:
    """One recorded workload: spec fingerprint → stored trace object."""

    fingerprint: str
    scenario: str
    driver: str
    instructions: int
    digest: str  # sha256 of the canonical (CALTRC01) byte stream
    records: int
    raw_bytes: int  # canonical stream length
    stored_bytes: int  # on-disk (compressed) object size
    #: sha256 of the on-disk object bytes, taken before publishing: a
    #: corpus hit trusts an object (and the run summary in its footer)
    #: after one hash of what is stored, with no decode or replay.
    stored_sha256: str
    #: The full spec document that recorded the object.  Optional so
    #: pre-reliability manifests still load; with it, a damaged object
    #: can be re-recorded from the manifest alone (``verify --repair``)
    #: — the spec, not the bytes, is the corpus's source of truth.
    spec: dict | None = None

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / self.stored_bytes if self.stored_bytes else 0.0

    def to_dict(self) -> dict:
        # Shallow: the values are JSON already (``spec`` is a document).
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, document: dict) -> "ManifestEntry":
        return cls(**document)


@dataclass
class Manifest:
    """All recorded workloads of one store."""

    entries: dict[str, ManifestEntry] = field(default_factory=dict)
    #: ``(inode, offset)`` of the journal lines folded into ``entries``:
    #: the journal file's inode and the end of its last complete line
    #: read (``None`` when no journal was read).  A later read resumes
    #: at ``offset`` while the inode is the same.
    journal: tuple[int, int] | None = field(default=None, compare=False)

    def get(self, fingerprint: str) -> ManifestEntry | None:
        return self.entries.get(fingerprint)

    def put(self, entry: ManifestEntry) -> None:
        self.entries[entry.fingerprint] = entry

    def copy(self) -> "Manifest":
        """A manifest whose ``put``/``pop`` leave this one untouched."""
        return Manifest(entries=dict(self.entries), journal=self.journal)

    def digests(self) -> set[str]:
        return {entry.digest for entry in self.entries.values()}


def journal_path(path: str) -> str:
    """The journal beside the snapshot at ``path``."""
    return os.path.join(os.path.dirname(path), JOURNAL_NAME)


def load_manifest(path: str) -> Manifest:
    """The manifest whose snapshot is ``path``, journal folded in.

    A missing snapshot is an empty one (a new store, or one whose
    entries are all still in the journal).  Never writes: a torn final
    journal line is left for the next writer to cut off.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        manifest = Manifest()
    except json.JSONDecodeError as error:
        raise ValueError(f"corrupt corpus manifest {path}: {error}") from None
    else:
        version = document.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"corpus manifest {path} has version {version!r} "
                f"(expected {MANIFEST_VERSION})"
            )
        manifest = Manifest(
            entries={
                fingerprint: ManifestEntry.from_dict(entry)
                for fingerprint, entry in document.get("entries", {}).items()
            }
        )
    fold_journal(manifest, journal_path(path))
    return manifest


def fold_journal(manifest: Manifest, path: str, offset: int = 0) -> None:
    """Apply the journal's complete lines from byte ``offset`` on.

    Updates ``manifest.entries`` and ``manifest.journal`` in place; a
    missing journal changes nothing.  A final line without its newline
    (a writer killed mid-append) is not read.  A complete line that does
    not parse, or a journal of another version, raises ``ValueError``.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        inode = os.fstat(handle.fileno()).st_ino
        handle.seek(offset)
        data = handle.read()
    complete = data.rfind(b"\n") + 1
    position = offset
    for line in data[:complete].splitlines():
        try:
            record = json.loads(line)
            if position == 0:
                version = record["manifest_journal"]
                if version != MANIFEST_VERSION:
                    raise ValueError(
                        f"journal version {version!r} "
                        f"(expected {MANIFEST_VERSION})"
                    )
            elif "put" in record:
                manifest.put(ManifestEntry.from_dict(record["put"]))
            else:
                manifest.entries.pop(record["drop"], None)
        except (ValueError, KeyError, TypeError) as error:
            raise ValueError(
                f"corrupt corpus manifest journal {path} at byte "
                f"{position}: {error}"
            ) from None
        position += len(line) + 1
    manifest.journal = (inode, position)


def journal_line(
    put: ManifestEntry | None = None, drop: str | None = None
) -> bytes:
    """One journal line: bind ``put``, or unbind fingerprint ``drop``."""
    record = {"put": put.to_dict()} if put is not None else {"drop": drop}
    return json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"


_JOURNAL_HEADER = (
    json.dumps({"manifest_journal": MANIFEST_VERSION}).encode("utf-8") + b"\n"
)


def append_journal(path: str, lines: bytes) -> tuple[int, bytes]:
    """Append complete ``lines`` to the journal of the snapshot ``path``.

    Call it holding :func:`manifest_lock`.  A torn final line (a writer
    killed mid-append) is cut off first; a new or emptied journal gets
    its header line.  Returns the journal's size after the append and
    the torn bytes that were cut off (empty if none).
    """
    flags = os.O_RDWR | os.O_APPEND | (os.O_CREAT if lines else 0)
    try:
        fd = os.open(journal_path(path), flags, 0o644)
    except FileNotFoundError:  # nothing to append, nothing to heal
        return 0, b""
    try:
        size = os.fstat(fd).st_size
        torn = b""
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = os.pread(fd, size, 0)
            cut = data.rfind(b"\n") + 1
            torn = data[cut:]
            os.ftruncate(fd, cut)
            size = cut
        if size == 0 and lines:
            lines = _JOURNAL_HEADER + lines
        view = memoryview(lines)
        while view:
            view = view[os.write(fd, view):]
        return size + len(lines), torn
    finally:
        os.close(fd)


def save_manifest(manifest: Manifest, path: str) -> None:
    """Replace the whole manifest: write the snapshot, drop the journal.

    The compaction step of the write path (the store calls it under the
    lock once the journal outgrows the snapshot); any caller replacing
    the manifest wholesale must hold the lock too.  The snapshot is
    written atomically (temp file + rename) before the journal goes, so
    a crash in between leaves the journal's lines to be applied to a
    snapshot that already holds them, which changes nothing.
    """
    document = {
        "manifest_version": MANIFEST_VERSION,
        "entries": {
            fingerprint: entry.to_dict()
            for fingerprint, entry in sorted(manifest.entries.items())
        },
    }
    temp_path = f"{path}.tmp.{os.getpid()}"
    with open(temp_path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)
    try:
        os.remove(journal_path(path))
    except FileNotFoundError:
        pass


def _lock_diagnostics(lock_path: str) -> str:
    """Describe who last held a lock file and how stale it looks."""
    holder = "unknown holder"
    age = "unknown age"
    try:
        with open(lock_path) as handle:
            content = handle.read().strip()
        if content:
            holder = f"last acquired by {content}"
    except OSError:
        pass
    try:
        age = f"{time.time() - os.path.getmtime(lock_path):.0f}s old"
    except OSError:
        pass
    return (
        f"{lock_path} ({holder}; {age}); flock releases when its holder "
        f"dies, so a blocked acquire means a live process is holding it — "
        f"the on-disk lock file itself is never stale and is safe to keep"
    )


@contextlib.contextmanager
def manifest_lock(root: str, timeout: float | None = None):
    """Advisory lock serialising read-modify-write manifest updates.

    Uses ``fcntl.flock`` where available (POSIX); elsewhere degrades to
    no locking — the atomic replace still prevents corruption, a lost
    race merely re-records one workload later.

    Acquisition is non-blocking with exponential backoff: a holder that
    never releases (hung builder, debugger-stopped worker) surfaces as a
    :class:`ManifestLockTimeout` naming the lock file, its last holder
    and its age after ``timeout`` seconds (``$REPRO_LOCK_TIMEOUT`` or
    30 s by default) instead of blocking the run forever.
    """
    try:
        import fcntl
    except ImportError:  # non-POSIX: atomic replace is the only guard
        yield
        return
    if timeout is None:
        timeout = float(
            os.environ.get(ENV_LOCK_TIMEOUT, DEFAULT_LOCK_TIMEOUT)
        )
    os.makedirs(root, exist_ok=True)  # gc/verify on a never-built store
    lock_path = os.path.join(root, LOCK_NAME)
    with open(lock_path, "a+") as lock_file:
        deadline = time.monotonic() + timeout
        backoff = LOCK_BACKOFF_INITIAL
        while True:
            try:
                fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise ManifestLockTimeout(
                        f"timed out after {timeout:.1f}s waiting for the "
                        f"corpus manifest lock {_lock_diagnostics(lock_path)}"
                    ) from None
                time.sleep(min(backoff, max(0.0, deadline - time.monotonic())))
                backoff = min(backoff * 2, LOCK_BACKOFF_MAX)
        try:
            # Best-effort holder breadcrumb for timeout diagnostics.
            try:
                lock_file.seek(0)
                lock_file.truncate()
                lock_file.write(f"pid {os.getpid()}")
                lock_file.flush()
            except OSError:
                pass
            yield
        finally:
            fcntl.flock(lock_file, fcntl.LOCK_UN)
