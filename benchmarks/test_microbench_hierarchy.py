"""Microbenchmarks: functional memory hierarchy and allocator paths."""

import random

import numpy as np

from repro.core.cform import CformRequest
from repro.memory.cache import CacheGeometry
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.kernel import EV_LOAD, EV_STORE
from repro.softstack.allocator import CaliformsHeap
from repro.softstack.compiler import CompilerConfig, CompilerPass
from repro.softstack.ctypes_model import LISTING_1_STRUCT_A
from repro.softstack.insertion import Policy


def small_config():
    return HierarchyConfig(
        l1_geometry=CacheGeometry(8 * 64, 2),
        l2_geometry=CacheGeometry(32 * 64, 4),
        l3_geometry=CacheGeometry(128 * 64, 8),
    )


def test_l1_hit_path(benchmark):
    hierarchy = MemoryHierarchy()
    hierarchy.store_or_raise(0x1000, b"warm")

    def hit_loop():
        for _ in range(256):
            hierarchy.load(0x1000, 8)

    benchmark(hit_loop)


def test_califormed_eviction_path(benchmark):
    """Spill/fill conversions under heavy eviction pressure."""
    hierarchy = MemoryHierarchy(small_config())
    for index in range(64):
        hierarchy.cform(CformRequest.set_bytes(index * 64, [1, 2, 3]))

    def thrash():
        for index in range(64):
            hierarchy.load(index * 64 + 8, 4)

    benchmark(thrash)


def test_mixed_trace_replay(benchmark):
    """A decoded record batch through ``replay_columns``, the hierarchy
    replay mode's production path: 4,096 loads and stores over 512
    lines, every tenth line califormed at bytes 62 and 63."""
    rng = random.Random(7)
    kinds, addresses, args = [], [], []
    for _ in range(4096):
        line = rng.randrange(512)
        offset = rng.randrange(56)
        addresses.append(line * 64 + offset)
        if rng.random() < 0.5:
            kinds.append(EV_LOAD)
            args.append(rng.choice((1, 2, 4, 8)))
        else:
            kinds.append(EV_STORE)
            args.append(4)
            rng.randrange(256)  # a store's byte; replay_columns derives it
    columns = (
        np.array(kinds, dtype=np.uint8),
        np.array(addresses, dtype=np.int64),
        np.array(args, dtype=np.int64),
    )
    hierarchy = MemoryHierarchy()
    for line in range(0, 512, 10):
        hierarchy.cform(CformRequest.set_bytes(line * 64, [62, 63]))

    # Three of the trace's loads reach a califormed line's bytes 62-63.
    assert benchmark(hierarchy.replay_columns, *columns) == 3


def test_malloc_free_cycle(benchmark):
    hierarchy = MemoryHierarchy()
    heap = CaliformsHeap(hierarchy, base=0x100000, size=64 * 64)
    compiler = CompilerPass(CompilerConfig(policy=Policy.FULL, seed=1))
    layout = compiler.transform(LISTING_1_STRUCT_A)

    def cycle():
        for _ in range(8):
            allocation = heap.malloc(layout)
            heap.free(allocation)

    benchmark(cycle)
