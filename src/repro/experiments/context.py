"""The run context every experiment receives: one object, all inputs.

Before this module each experiment ``run()`` took its own positional
slice of ``(instructions, seeds, store)`` and the runner hand-wired the
threading; :class:`RunContext` replaces that with a single frozen value
carrying the workload scale (``profile`` → ``instructions``/``seeds``),
the corpus store handle, the parallelism hint and a per-experiment RNG
namespace.  It is the *only* place that resolves
:func:`repro.corpus.store.default_store` — modules never guess the
corpus root themselves.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.store import CorpusStore

#: profile name -> (instructions, layout seeds); the historical runner's
#: quick/full knobs, now declared once.
PROFILES: dict[str, tuple[int, tuple[int, ...]]] = {
    "quick": (80_000, (0,)),
    "full": (200_000, (0, 1, 2)),
}


@dataclass(frozen=True)
class RunContext:
    """Frozen inputs for one experiment invocation.

    Experiments read, never write: the same context can be fanned out
    to worker processes (it pickles — the corpus store handle is plain
    paths and counters) and two runs built from equal contexts produce
    identical results.
    """

    profile: str = "quick"
    instructions: int = PROFILES["quick"][0]
    seeds: tuple[int, ...] = PROFILES["quick"][1]
    corpus_root: str | None = None
    jobs: int = 1
    rng_seed: int = 0
    #: JSON-serialised :class:`repro.reliability.faults.FaultPlan` (or
    #: ``None``).  A string so the frozen context stays trivially
    #: picklable into workers; the runner merges it with $REPRO_FAULTS.
    faults: str | None = None
    #: Loadgen benchmark-set selection tokens (``repro run --set ...``);
    #: the ``loadgen_contention`` section resolves them through
    #: :func:`repro.loadgen.sets.resolve`.  Empty means that section's
    #: default set.
    load_sets: tuple[str, ...] = ()
    #: Capture a cProfile per section (``repro run --profile-sections``).
    #: Effective only when telemetry is active — the profiler rides the
    #: telemetry sink (see :mod:`repro.telemetry.profiler`).
    profile_sections: bool = False

    @classmethod
    def create(
        cls,
        profile: str = "quick",
        *,
        corpus: str | None = None,
        no_corpus: bool = False,
        jobs: int = 1,
        instructions: int | None = None,
        seeds: tuple[int, ...] | None = None,
        rng_seed: int = 0,
        faults=None,
        sets: tuple[str, ...] = (),
        profile_sections: bool = False,
    ) -> "RunContext":
        """Build a context from CLI-level knobs.

        ``profile`` selects the workload scale; ``instructions``/
        ``seeds`` override it piecemeal.  Corpus resolution happens here
        and only here: ``no_corpus`` disables the store, ``corpus``
        names a local root (a URL is rejected: a remote corpus is a
        :class:`repro.serve.client.RemoteStore` passed to an
        experiment's ``run``), otherwise
        :func:`repro.corpus.store.default_store` decides
        (``$REPRO_CORPUS_DIR`` or ``./.repro-corpus``).
        """
        if profile not in PROFILES:
            raise ValueError(
                f"unknown profile {profile!r}; known: {', '.join(PROFILES)}"
            )
        default_instructions, default_seeds = PROFILES[profile]
        if corpus is not None and "://" in corpus:
            raise ValueError(
                f"corpus must be a local directory, not a URL: {corpus!r}"
            )
        if no_corpus:
            corpus_root = None
        elif corpus is not None:
            corpus_root = corpus
        else:
            from repro.corpus.store import default_store

            corpus_root = default_store().root
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if faults is not None and not isinstance(faults, str):
            faults = faults.to_json()  # a FaultPlan (or plan-shaped) value
        return cls(
            profile=profile,
            instructions=(
                default_instructions if instructions is None else instructions
            ),
            seeds=default_seeds if seeds is None else tuple(seeds),
            corpus_root=corpus_root,
            jobs=jobs,
            rng_seed=rng_seed,
            faults=faults,
            load_sets=tuple(sets),
            profile_sections=profile_sections,
        )

    # -- corpus --------------------------------------------------------------

    @cached_property
    def store(self) -> "CorpusStore | None":
        """The corpus store handle, or ``None`` for fully live synthesis.

        Built lazily so contexts are cheap to construct and pickle; the
        cached handle also accumulates this process's hit/built counters.
        """
        if self.corpus_root is None:
            return None
        from repro.corpus.store import CorpusStore

        return CorpusStore(self.corpus_root)

    @cached_property
    def runs(self) -> dict:
        """The run's memo: each benchmark's drawn script and live results
        (see :func:`repro.workloads.generator.script_for`), shared by
        every figure this process runs from this context.

        It belongs to the process: a pickled context (a ``--jobs N``
        worker's) arrives without it and starts its own.
        """
        return {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("runs", None)
        return state

    # -- RNG namespace -------------------------------------------------------

    def seed_for(self, namespace: str) -> int:
        """A stable 64-bit seed derived from ``(rng_seed, namespace)``.

        Experiments that need private randomness draw it from their own
        namespace (usually their registry name), so adding or reordering
        experiments never perturbs another experiment's stream.
        """
        payload = f"{self.rng_seed}:{namespace}".encode("utf-8")
        return int.from_bytes(
            hashlib.sha256(payload).digest()[:8], "little"
        )

    def rng(self, namespace: str) -> random.Random:
        """A private :class:`random.Random` for one experiment namespace."""
        return random.Random(self.seed_for(namespace))

    # -- derivation ----------------------------------------------------------

    def with_overrides(self, **changes) -> "RunContext":
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)
