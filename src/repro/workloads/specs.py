"""Behavioural profiles for the SPEC CPU2006-like benchmark suite.

The paper evaluates on SPEC CPU2006 with ref inputs; offline we replace
each benchmark with a synthetic profile capturing the properties its
results depend on (DESIGN.md substitution 1):

* how much live heap it keeps and in what kinds of objects,
* how often it allocates/frees (the CFORM cost driver),
* how its accesses are distributed (locality → cache behaviour),
* how memory-bound the core is (overlap factor → stall sensitivity).

The constants are set from the public characterisation of the suite
(``mcf``/``milc``/``lbm`` memory-bound, ``perlbench``/``xalancbmk``
malloc-intensive, ``hmmer``/``namd``/``sjeng`` compute-bound, ...) and
lightly calibrated so the *baseline* behaviour is plausible; all Califorms
effects are then emergent from the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchmarkProfile:
    """Synthetic stand-in for one SPEC CPU2006 benchmark."""

    name: str
    #: Live heap size in KB under the *unprotected* layout.  This pins the
    #: benchmark's position on the 32KB/256KB/2MB cache ladder, which is
    #: what determines its sensitivity to layout inflation and to the
    #: Figure 10 latency bump.  The object count is derived from this at
    #: baseline sizes, so every scenario simulates the same objects.
    heap_kb: int
    #: Allocation+free *pairs* per 1000 instructions.
    allocs_per_kinst: float
    #: Fraction of dynamic instructions that access memory.
    mem_ratio: float
    #: Object-selection skew in (0, 1]: smaller = hotter working set.
    locality_skew: float
    #: Fraction of access bursts that sequentially scan an object.
    scan_fraction: float
    #: Accesses per burst.
    burst_length: int
    #: Fraction of bursts that hit the (hot, small) stack region.
    stack_fraction: float
    #: Fraction of heap objects that are compound types (structs); the
    #: rest are raw buffers which insertion policies do not touch.
    struct_fraction: float
    #: Of the struct objects, fraction whose type contains arrays or
    #: pointers (the intelligent policy's targets).
    ptr_array_fraction: float
    #: Typical raw-buffer size in bytes (arrays, I/O buffers).
    raw_buffer_bytes: int
    #: Memory-level-parallelism divisor for the pipeline model (lower =
    #: misses hurt more, e.g. pointer chasing).
    overlap: float
    #: Baseline CPI of the non-stalled core.
    base_cpi: float

    def __post_init__(self):
        # Synthesis cannot run on any of these at zero: a burst of no
        # touches or a zero ``mem_ratio`` never spends the instruction
        # budget, an empty heap has no object to touch, and the skew's
        # exponent is its reciprocal.
        for name in ("heap_kb", "mem_ratio", "locality_skew", "burst_length"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(
                    f"profile {self.name!r}: {name} must be positive, "
                    f"got {value!r}"
                )


def _p(
    name,
    heap_kb,
    allocs_per_kinst,
    mem_ratio,
    locality_skew,
    scan_fraction,
    burst_length,
    stack_fraction,
    struct_fraction,
    ptr_array_fraction,
    raw_buffer_bytes,
    overlap,
    base_cpi,
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        heap_kb=heap_kb,
        allocs_per_kinst=allocs_per_kinst,
        mem_ratio=mem_ratio,
        locality_skew=locality_skew,
        scan_fraction=scan_fraction,
        burst_length=burst_length,
        stack_fraction=stack_fraction,
        struct_fraction=struct_fraction,
        ptr_array_fraction=ptr_array_fraction,
        raw_buffer_bytes=raw_buffer_bytes,
        overlap=overlap,
        base_cpi=base_cpi,
    )


#: All 19 benchmarks evaluated in Figure 10.
SPEC_PROFILES: dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in [
        #    name       heapKB al/ki  mem   skew  scan  bl  stk  strct ptr   raw    ovl  cpi
        _p("astar",   800,  2.5, 0.38, 0.35, 0.25,  6, 0.20, 0.50, 0.35,   256, 3.7, 0.80),
        _p("bzip2",  2048,  0.8, 0.36, 0.40, 0.70, 12, 0.15, 0.15, 0.25,  8192, 5.8, 0.75),
        _p("dealII",  1500,  3.0, 0.40, 0.35, 0.35,  8, 0.20, 0.60, 0.30,   512, 4.6, 0.78),
        _p("gcc",  3000,  3.5, 0.40, 0.40, 0.30,  6, 0.25, 0.60, 0.30,   512, 4.2, 0.85),
        _p("gobmk",   160,  3.0, 0.34, 0.22, 0.30,  6, 0.35, 0.90, 0.85,   256, 5.1, 0.80),
        _p("h264ref",  1200,  5.0, 0.42, 0.55, 0.65, 12, 0.15, 0.60, 0.30,  2048, 3.8, 0.72),
        _p("hmmer",    96,  1.0, 0.40, 0.15, 0.55, 10, 0.40, 0.60, 0.20,   512, 6.0, 0.70),
        _p("lbm",  8192,  0.3, 0.42, 0.70, 0.90, 16, 0.05, 0.10, 0.15, 16384, 6.0, 0.72),
        _p("libquantum",  4096,  0.5, 0.35, 0.65, 0.85, 16, 0.10, 0.20, 0.20, 16384, 6.0, 0.74),
        _p("mcf",  3072,  1.5, 0.44, 0.70, 0.10,  4, 0.05, 0.45, 0.15,   256, 3.2, 0.90),
        _p("milc",  1600,  1.2, 0.42, 0.60, 0.75, 12, 0.05, 0.60, 0.15,  4096, 3.8, 0.76),
        _p("namd",   200,  0.8, 0.38, 0.25, 0.60, 10, 0.30, 0.75, 0.15,  1024, 6.0, 0.70),
        _p("omnetpp",  4096,  3.5, 0.41, 0.45, 0.15,  5, 0.15, 0.60, 0.30,   256, 3.5, 0.85),
        _p("perlbench",   700,  7.0, 0.40, 0.30, 0.25,  6, 0.30, 0.55, 0.28,   256, 4.6, 0.82),
        _p("povray",   120,  2.0, 0.37, 0.20, 0.40,  8, 0.35, 0.80, 0.25,   512, 6.0, 0.72),
        _p("sjeng",   100,  1.2, 0.33, 0.20, 0.30,  6, 0.40, 0.70, 0.30,   256, 5.8, 0.78),
        _p("soplex",  2560,  1.0, 0.43, 0.55, 0.70, 12, 0.10, 0.30, 0.15,  8192, 4.0, 0.80),
        _p("sphinx3",  1800,  1.5, 0.41, 0.50, 0.65, 10, 0.15, 0.45, 0.20,  4096, 4.5, 0.76),
        _p("xalancbmk",  8192,  4.5, 0.42, 0.80, 0.20,  5, 0.20, 0.50, 0.30,   256, 3.5, 0.88),
    ]
}

#: Figure 10's 19-benchmark set.
FIG10_BENCHMARKS: list[str] = sorted(SPEC_PROFILES)

#: Figures 11/12 drop dealII, omnetpp (library issues) and gcc (allocator
#: incompatibility) — Section 8.2's evaluation setup.
FIG11_BENCHMARKS: list[str] = [
    name for name in FIG10_BENCHMARKS if name not in ("dealII", "omnetpp", "gcc")
]


def profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by SPEC name."""
    try:
        return SPEC_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {FIG10_BENCHMARKS}"
        ) from None
