"""Generic set-associative, write-back, write-allocate cache.

:class:`CacheLevel` is the functional cache used by the full-system
simulator.  Payloads are opaque to the mechanics; per-level *fill* and
*spill* converters let the L1 hold :class:`BitvectorLine` while
everything below holds :class:`SentinelLine` — the format conversion of
Figure 1 happens exactly at the boundary where the paper puts it.

The timing experiments only need hit/miss counts over address streams
(Section 8's slowdown results are AMAT effects); they count them with
the batched tag-only kernel of :mod:`repro.memory.kernel`, which shares
:class:`CacheGeometry` and the LRU policy with this module.

Replacement is LRU; the policies in the evaluated Westmere-like system are
not disclosed by the paper, and LRU is the standard modelling choice.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Protocol, TypeVar

from repro.core.bitvector import LINE_SIZE
from repro.core.exceptions import ConfigurationError
from repro.core.line_formats import SentinelLine

PayloadT = TypeVar("PayloadT")


class LineStore(Protocol):
    """Anything that can serve and accept sentinel-format lines."""

    def read_line(self, address: int) -> SentinelLine: ...

    def write_line(self, address: int, line: SentinelLine) -> None: ...


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity description of one cache level."""

    size_bytes: int
    associativity: int
    line_size: int = LINE_SIZE

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError("cache size and associativity must be positive")
        lines = self.size_bytes // self.line_size
        if lines * self.line_size != self.size_bytes:
            raise ConfigurationError("cache size must be a multiple of the line size")
        if lines % self.associativity != 0:
            raise ConfigurationError(
                f"{lines} lines cannot be split into {self.associativity}-way sets"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.associativity)

    def locate(self, address: int) -> tuple[int, int]:
        """Map a byte address to ``(set_index, tag)``."""
        line_number = address // self.line_size
        return line_number % self.num_sets, line_number // self.num_sets


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/traffic counters for one level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    fills_converted: int = 0
    spills_converted: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.fills_converted = 0
        self.spills_converted = 0


@dataclass(slots=True)
class _Entry(Generic[PayloadT]):
    payload: PayloadT
    dirty: bool = False


class CacheLevel(Generic[PayloadT]):
    """One write-back, write-allocate, LRU set-associative cache level.

    ``fill`` converts a lower-level :class:`SentinelLine` into this level's
    payload on a miss; ``spill`` converts back on dirty eviction.  The
    identity converters make a plain L2/L3; the sentinel codec makes the L1
    (see :class:`repro.memory.l1cache.L1DataCache`).
    """

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        backing: LineStore,
        fill: Callable[[SentinelLine], PayloadT],
        spill: Callable[[PayloadT], SentinelLine],
        converts: bool = False,
    ):
        self.name = name
        self.geometry = geometry
        self.backing = backing
        self._fill = fill
        self._spill = spill
        self._converts = converts
        self.stats = CacheStats()
        # Hoisted geometry constants: the hit path runs once per simulated
        # access, so even a method call per lookup is measurable.
        self._line_size = geometry.line_size
        self._num_sets = geometry.num_sets
        self._sets: list[OrderedDict[int, _Entry[PayloadT]]] = [
            OrderedDict() for _ in range(geometry.num_sets)
        ]

    # -- core mechanics ----------------------------------------------------

    def _access_entry(self, address: int, for_write: bool) -> _Entry[PayloadT]:
        """Hit-path core: return the (LRU-touched) entry for ``address``.

        Misses allocate (write-allocate policy) by fetching from the
        backing store; LRU victims that are dirty spill back down.
        Callers that need to flip ``dirty`` after inspecting the payload
        (the L1 store path) use the returned entry directly instead of a
        second tag lookup.
        """
        line_number = address // self._line_size
        set_index = line_number % self._num_sets
        tag = line_number // self._num_sets
        entries = self._sets[set_index]
        stats = self.stats
        stats.accesses += 1
        entry = entries.get(tag)
        if entry is not None:
            stats.hits += 1
            entries.move_to_end(tag)
        else:
            stats.misses += 1
            entry = self._allocate(address, set_index, tag)
        if for_write:
            entry.dirty = True
        return entry

    def access_line(self, address: int, *, for_write: bool) -> PayloadT:
        """Return the payload for the line containing ``address``."""
        return self._access_entry(address, for_write).payload

    def _allocate(self, address: int, set_index: int, tag: int) -> _Entry[PayloadT]:
        entries = self._sets[set_index]
        if len(entries) >= self.geometry.associativity:
            victim_tag, victim = entries.popitem(last=False)
            self._evict(set_index, victim_tag, victim)
        lower = self.backing.read_line(address)
        payload = self._fill(lower)
        if self._converts and lower.califormed:
            self.stats.fills_converted += 1
        entry = _Entry(payload)
        entries[tag] = entry
        return entry

    def _evict(self, set_index: int, tag: int, entry: _Entry[PayloadT]) -> None:
        self.stats.evictions += 1
        if entry.dirty:
            address = self._address_of(set_index, tag)
            lower = self._spill(entry.payload)
            if self._converts and lower.califormed:
                self.stats.spills_converted += 1
            self.backing.write_line(address, lower)
            self.stats.writebacks += 1

    def _address_of(self, set_index: int, tag: int) -> int:
        line_number = tag * self.geometry.num_sets + set_index
        return line_number * self.geometry.line_size

    # -- LineStore protocol (so levels stack) -------------------------------

    def read_line(self, address: int) -> SentinelLine:
        """Serve a line upward, in sentinel format."""
        payload = self.access_line(address, for_write=False)
        return self._spill(payload)

    def write_line(self, address: int, line: SentinelLine) -> None:
        """Accept a spilled line from the level above (write-allocate)."""
        set_index, tag = self.geometry.locate(address)
        self.access_line(address, for_write=True)
        self._sets[set_index][tag] = _Entry(self._fill(line), dirty=True)

    # -- maintenance ---------------------------------------------------------

    def contains(self, address: int) -> bool:
        set_index, tag = self.geometry.locate(address)
        return tag in self._sets[set_index]

    def flush(self) -> None:
        """Write back every dirty line and empty the cache."""
        for set_index, entries in enumerate(self._sets):
            for tag, entry in list(entries.items()):
                self._evict(set_index, tag, entry)
            entries.clear()

    def resident_line_count(self) -> int:
        return sum(len(entries) for entries in self._sets)


def identity_fill(line: SentinelLine) -> SentinelLine:
    return line


def identity_spill(line: SentinelLine) -> SentinelLine:
    return line


def make_sentinel_cache(
    name: str, geometry: CacheGeometry, backing: LineStore
) -> CacheLevel[SentinelLine]:
    """Build an L2/L3-style level that stores sentinel-format lines as-is."""
    return CacheLevel(name, geometry, backing, identity_fill, identity_spill)
