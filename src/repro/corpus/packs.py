"""Pack files: many corpus objects framed into one container.

A corpus of small compressed trace objects is awkward to distribute —
dozens of files, one HTTP round-trip each.  A *pack* bundles any subset
of a store's objects (their on-disk CALTRC02 bytes, verbatim) behind a
single index, so a whole benchmark corpus ships as one download and
unpacks into a byte-identical store.

On-disk layout (``CALPACK1``)::

    8 bytes   magic  b"CALPACK1"
    4 bytes   <I     index length
    N bytes   index JSON (sorted keys):
                pack_version: 1
                objects: [ {entry: <ManifestEntry dict>,
                            offset, stored_bytes}, ... ]
    ...       concatenated object bytes, in index order; ``offset`` is
              relative to the end of the index

The index carries each member's full manifest entry, so unpacking
restores both the object file *and* its fingerprint binding — a pack is
a self-contained corpus fragment, not just bytes.  Packs are
content-addressed exactly like objects: the **pack id** is the sha256
of the pack file's bytes, and the default output name is
``<store root>/packs/<id>.pack`` (what ``repro.serve`` exposes as
``GET /packs/<id>``).

Member identity is the existing canonical-stream digest, so
``verify_pack`` can prove a pack's payload byte-equivalent to the
objects it was built from without consulting any store.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, replace
from typing import BinaryIO

from repro.corpus.manifest import ManifestEntry, manifest_lock
from repro.traces.format import TraceFormatError

#: Container magic; bump the trailing digit on layout changes.
PACK_MAGIC = b"CALPACK1"

#: Index schema version inside the container.
PACK_VERSION = 1

#: Subdirectory (under a store root) holding named pack files.
PACKS_DIR = "packs"

#: Pack filename extension.
PACK_SUFFIX = ".pack"

_LEN = struct.Struct("<I")


@dataclass(frozen=True)
class PackMember:
    """One object inside a pack: its manifest entry plus frame location."""

    entry: ManifestEntry
    offset: int  # relative to the end of the index
    stored_bytes: int

    def to_dict(self) -> dict:
        return {
            "entry": self.entry.to_dict(),
            "offset": self.offset,
            "stored_bytes": self.stored_bytes,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "PackMember":
        return cls(
            entry=ManifestEntry.from_dict(document["entry"]),
            offset=document["offset"],
            stored_bytes=document["stored_bytes"],
        )


@dataclass(frozen=True)
class PackInfo:
    """A parsed pack: members plus the payload's file offset."""

    path: str
    members: tuple[PackMember, ...]
    payload_start: int  # absolute file offset of the first member

    @property
    def stored_bytes(self) -> int:
        return sum(member.stored_bytes for member in self.members)


def pack_id(path: str) -> str:
    """The pack's content address: sha256 over the whole file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def packs_dir(root: str) -> str:
    """The store's pack directory (``<root>/packs``)."""
    return os.path.join(root, PACKS_DIR)


def pack_path(root: str, identifier: str) -> str:
    return os.path.join(packs_dir(root), f"{identifier}{PACK_SUFFIX}")


def write_pack(store, out: str | None = None, names: list[str] | None = None):
    """Frame a store's objects (all, or by scenario name) into one pack.

    Every selected entry's on-disk object is copied verbatim; a missing
    or scenario-unknown selection raises before any bytes are written.
    ``out`` may be a target path or ``None`` for the content-addressed
    default ``<root>/packs/<pack id>.pack``.  Returns
    ``(path, pack id, member count)``.
    """
    manifest = store.manifest()
    entries = sorted(
        manifest.entries.values(), key=lambda entry: entry.scenario
    )
    if names:
        by_scenario: dict[str, list[ManifestEntry]] = {}
        for entry in entries:
            by_scenario.setdefault(entry.scenario, []).append(entry)
        unknown = sorted(set(names) - set(by_scenario))
        if unknown:
            raise KeyError(
                f"scenario(s) not in this corpus: {', '.join(unknown)}; "
                f"recorded: {', '.join(sorted(by_scenario)) or '<none>'}"
            )
        entries = [
            entry for name in sorted(set(names)) for entry in by_scenario[name]
        ]
    if not entries:
        raise ValueError(f"nothing to pack (empty corpus at {store.root})")

    members = []
    offset = 0
    for entry in entries:
        path = store.object_path(entry.digest)
        try:
            stored = os.path.getsize(path)
        except OSError:
            raise FileNotFoundError(
                f"object {entry.digest[:12]}… for {entry.scenario} is "
                f"missing ({path}); run `corpus verify --repair` first"
            ) from None
        members.append(PackMember(entry=entry, offset=offset, stored_bytes=stored))
        offset += stored

    index_bytes = json.dumps(
        {
            "pack_version": PACK_VERSION,
            "objects": [member.to_dict() for member in members],
        },
        sort_keys=True,
    ).encode("utf-8")

    target_dir = os.path.dirname(out) if out else packs_dir(store.root)
    os.makedirs(target_dir or ".", exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=target_dir or ".", suffix=".packing")
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as handle:

            def emit(data: bytes) -> None:
                handle.write(data)
                digest.update(data)

            emit(PACK_MAGIC)
            emit(_LEN.pack(len(index_bytes)))
            emit(index_bytes)
            for member in members:
                with open(store.object_path(member.entry.digest), "rb") as src:
                    for chunk in iter(lambda: src.read(1 << 20), b""):
                        emit(chunk)
        identifier = digest.hexdigest()
        path = out or pack_path(store.root, identifier)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise
    return path, identifier, len(members)


def read_pack(path: str) -> PackInfo:
    """Parse a pack's index (payload bytes are not read)."""
    with open(path, "rb") as handle:
        magic = handle.read(len(PACK_MAGIC))
        if magic != PACK_MAGIC:
            raise TraceFormatError(
                f"not a pack file (magic {magic!r}, expected {PACK_MAGIC!r})",
                path=path,
                offset=0,
            )
        raw_length = handle.read(_LEN.size)
        if len(raw_length) != _LEN.size:
            raise TraceFormatError(
                "truncated pack: index length missing",
                path=path,
                offset=len(PACK_MAGIC),
            )
        (index_length,) = _LEN.unpack(raw_length)
        index_bytes = handle.read(index_length)
        if len(index_bytes) != index_length:
            raise TraceFormatError(
                f"truncated pack: index is {len(index_bytes)} of "
                f"{index_length} bytes",
                path=path,
                offset=len(PACK_MAGIC) + _LEN.size,
            )
        try:
            document = json.loads(index_bytes.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise TraceFormatError(
                f"pack index is not valid JSON: {error}",
                path=path,
                offset=len(PACK_MAGIC) + _LEN.size,
            ) from None
        version = document.get("pack_version")
        if version != PACK_VERSION:
            raise TraceFormatError(
                f"unsupported pack version {version!r} "
                f"(this build reads {PACK_VERSION})",
                path=path,
            )
        members = tuple(
            PackMember.from_dict(item) for item in document.get("objects", [])
        )
        payload_start = len(PACK_MAGIC) + _LEN.size + index_length
        expected = payload_start + sum(m.stored_bytes for m in members)
        actual = os.path.getsize(path)
        if actual != expected:
            raise TraceFormatError(
                f"pack payload is {actual - payload_start} bytes, index "
                f"promises {expected - payload_start}",
                path=path,
                offset=payload_start,
            )
    return PackInfo(path=path, members=members, payload_start=payload_start)


def _copy_member(
    pack: BinaryIO, info: PackInfo, member: PackMember, target: BinaryIO
) -> None:
    pack.seek(info.payload_start + member.offset)
    remaining = member.stored_bytes
    while remaining:
        chunk = pack.read(min(remaining, 1 << 20))
        if not chunk:
            raise TraceFormatError(
                f"pack payload truncated inside "
                f"{member.entry.digest[:12]}…",
                path=info.path,
            )
        target.write(chunk)
        remaining -= len(chunk)


def unpack(path: str, store) -> tuple[list[str], list[str]]:
    """Install every pack member into ``store``.

    Object bytes land under ``objects/`` (atomic temp + rename; an
    already-present digest is not rewritten) and each member's manifest
    entry is merged under the store lock — after unpacking, ``ensure``
    of any member's spec is a pure corpus hit.  Every written object is
    digest-verified against its entry (via the store's canonical-stream
    hasher) before its binding lands, and the binding's
    ``stored_sha256`` is taken from those verified bytes; a corrupt
    member raises and installs nothing further.  Returns
    ``(installed, skipped)`` digests.
    """
    from repro.corpus.store import canonical_digest

    info = read_pack(path)
    installed: list[str] = []
    skipped: list[str] = []
    bindings = {
        member.entry.fingerprint: member.entry for member in info.members
    }
    with open(path, "rb") as pack:
        for member in info.members:
            target = store.object_path(member.entry.digest)
            if os.path.exists(target):
                skipped.append(member.entry.digest)
                continue
            os.makedirs(os.path.dirname(target), exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(target), suffix=".recording"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    _copy_member(pack, info, member, handle)
                digest, raw_bytes, _footer = canonical_digest(temp_path)
                if digest != member.entry.digest:
                    raise TraceFormatError(
                        f"pack member for {member.entry.scenario} hashes to "
                        f"{digest[:12]}…, index promises "
                        f"{member.entry.digest[:12]}…",
                        path=path,
                    )
                if raw_bytes != member.entry.raw_bytes:
                    raise TraceFormatError(
                        f"pack member for {member.entry.scenario}: canonical "
                        f"length {raw_bytes} != entry {member.entry.raw_bytes}",
                        path=path,
                    )
                with open(temp_path, "rb") as handle:
                    stored = handle.read()
                bindings[member.entry.fingerprint] = replace(
                    member.entry,
                    stored_bytes=len(stored),
                    stored_sha256=hashlib.sha256(stored).hexdigest(),
                )
                os.replace(temp_path, target)
            except BaseException:
                try:
                    os.remove(temp_path)
                except OSError:
                    pass
                raise
            installed.append(member.entry.digest)
    with manifest_lock(store.root):
        store.commit(
            puts=[bindings[member.entry.fingerprint] for member in info.members]
        )
    return installed, skipped


def verify_pack(path: str) -> list[str]:
    """Re-hash every member's canonical stream; returns problems."""
    from io import BytesIO

    from repro.corpus.store import canonical_digest

    problems: list[str] = []
    info = read_pack(path)
    with open(path, "rb") as pack:
        for member in info.members:
            buffer = BytesIO()
            try:
                _copy_member(pack, info, member, buffer)
                buffer.seek(0)
                digest, _raw, _footer = canonical_digest(buffer)
            except (TraceFormatError, ValueError, OSError) as error:
                problems.append(f"{member.entry.scenario}: unreadable: {error}")
                continue
            if digest != member.entry.digest:
                problems.append(
                    f"{member.entry.scenario}: member hashes to "
                    f"{digest[:12]}…, index promises "
                    f"{member.entry.digest[:12]}…"
                )
    return problems


def list_packs(root: str) -> list[tuple[str, str]]:
    """``(pack id, path)`` for every pack under ``<root>/packs``."""
    directory = packs_dir(root)
    if not os.path.isdir(directory):
        return []
    found = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(PACK_SUFFIX):
            found.append((name[: -len(PACK_SUFFIX)], os.path.join(directory, name)))
    return found
