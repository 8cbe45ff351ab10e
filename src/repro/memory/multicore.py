"""Shared L3 for multi-core replay: one tag array, per-core attribution.

The paper evaluates Califorms on a multi-level hierarchy with per-core
private L1/L2 caches in front of a shared 2 MB L3 (Table 3).  The trace
replayer models that arrangement for multi-programmed studies by
splitting the hierarchy at the L2/L3 boundary: each core's private
L1+L2 is a 2-level :class:`~repro.memory.kernel.LadderKernel` whose
residue — the core's L2 miss stream — contends for the one
:class:`SharedL3Kernel` defined here.

The split is deliberate: a core's L1/L2 behaviour depends only on its
own stream, so the private ladders can be simulated independently (in
parallel, by the trace replayer), while the shared L3 consumes the
deterministically interleaved miss streams serially — the design that
keeps multi-core replay statistics identical at any worker count.
"""

from __future__ import annotations

import numpy as np

from repro.memory.hierarchy import HierarchyConfig
from repro.memory.kernel import LruTagKernel


class SharedL3Kernel:
    """One L3 tag array shared by ``cores`` requesters.

    The underlying :class:`~repro.memory.kernel.LruTagKernel` holds the
    global contents (so cores evict each other's lines — the contention
    effect under study); per-core ``accesses``/``misses`` lists
    attribute every request to the core that issued it, which is what
    the per-core slowdown accounting needs.  Requests arrive as parallel
    ``(core, address)`` columns already merged into the recorded
    interleaving; the boolean miss mask is attributed per core with one
    bincount.
    """

    __slots__ = ("cache", "accesses", "misses")

    def __init__(self, config: HierarchyConfig, cores: int):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cache = LruTagKernel(config.l3_geometry)
        self.accesses = [0] * cores
        self.misses = [0] * cores

    def replay_columns(self, core_column, address_column) -> None:
        """Present one merged batch of L2 misses; attribute per core.

        ``core_column`` holds each request's issuing core,
        ``address_column`` its (stride-disambiguated) address; both are
        equal-length int64 arrays in merged stream order.
        """
        miss_mask = self.cache.access_block(address_column)
        cores = len(self.accesses)
        presented = np.bincount(core_column, minlength=cores)
        missed = np.bincount(core_column[miss_mask], minlength=cores)
        for core in range(cores):
            self.accesses[core] += int(presented[core])
            self.misses[core] += int(missed[core])

    def reset_core(self, core: int) -> None:
        """Zero one core's attribution (its warmup boundary passed).

        The tag contents — including lines the core already pulled in —
        stay warm.
        """
        self.accesses[core] = 0
        self.misses[core] = 0
