"""Policy trade-off sweep: security coverage vs performance.

Runs a compact version of the paper's Figures 11/12 over a few
benchmarks and prints the trade-off each insertion policy offers,
alongside the memory overhead of the transformed layouts — the
"tune the security level at the cost of performance" story of Section 2.

    python examples/policy_tradeoffs.py [--instructions N]
"""

import argparse

from repro.analysis.suite import render_suite, sweep
from repro.softstack.compiler import CompilerConfig, CompilerPass
from repro.softstack.insertion import Policy
from repro.workloads.generator import Scenario
from repro.workloads.structs_corpus import HEAP_TYPE_POOL

BENCHMARKS = ["hmmer", "gobmk", "mcf", "perlbench", "xalancbmk"]


def layout_overheads() -> dict[str, float]:
    """Average memory overhead of each policy over the heap type pool."""
    overheads = {}
    for policy in Policy:
        compiler = CompilerPass(CompilerConfig(policy=policy, seed=7))
        natural = sum(struct.size for struct in HEAP_TYPE_POOL)
        transformed = sum(
            compiler.transform(struct).size for struct in HEAP_TYPE_POOL
        )
        overheads[policy.value] = transformed / natural - 1.0
    return overheads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instructions", type=int, default=60_000)
    arguments = parser.parse_args()

    print("memory overhead of each policy (heap type pool):")
    for policy, overhead in layout_overheads().items():
        print(f"  {policy:14s} +{overhead * 100:5.1f}% bytes")
    print()

    runs: dict = {}  # one baseline run per benchmark, shared by the sweeps
    for policy in Policy:
        scenario = Scenario(policy=policy, with_cform=True)
        result = sweep(
            BENCHMARKS,
            scenario,
            instructions=arguments.instructions,
            label=f"{policy.value} policy (+CFORM)",
            runs=runs,
        )
        print(render_suite(result))
        print()

    print(
        "Reading: opportunistic = free but partial coverage;\n"
        "full = widest coverage, highest cost;\n"
        "intelligent = arrays/pointers only — the paper's practical pick."
    )


if __name__ == "__main__":
    main()
