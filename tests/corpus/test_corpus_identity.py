"""The corpus identity, pinned: canonical digests of three recordings.

A corpus object is named by the sha256 of its canonical CALTRC01 byte
stream, and every manifest, pack and serve ETag carries that name.  The
constants below are the ``(sha256, length)`` of three registry specs as
the store records them (CALTRC02 objects); each was also the sha256 and
size of that spec's CALTRC01 recording when that container was still
written.  Any change to the recorder, the writers or the canonical
stream that moves a single byte of it fails here.
"""

import pytest

from repro.corpus.store import CorpusStore, canonical_digest
from repro.traces.registry import CORPUS

INSTRUCTIONS = 5_000

PINNED = {
    "server-churn": (
        "a537ea4c5d7d63cacdd4cee509a8d69533ae5868d365e70268047fdb28ffeccc",
        281_096,
    ),
    "dma-mixed": (
        "48318ada9edfcb093bc247468af3e4e8036f9e5508a8e5ffd721cc6e9cb05ca7",
        485_697,
    ),
    "attack-replay": (
        "688885d29e58946d9a780b46b95f1ce40b85e43fc5f818bf1ae713809993ad37",
        142_297,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_canonical_digest_is_pinned(name, tmp_path):
    store = CorpusStore(str(tmp_path / "corpus"))
    resolved = store.ensure(CORPUS[name].scaled(INSTRUCTIONS))
    with open(resolved.path, "rb") as handle:
        assert handle.read(8) == b"CALTRC02"
    assert canonical_digest(resolved.path)[:2] == PINNED[name]
    assert (resolved.entry.digest, resolved.entry.raw_bytes) == PINNED[name]
