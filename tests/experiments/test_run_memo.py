"""One draw per benchmark per run: the run's memo on ``RunContext``.

Every figure of a run takes each benchmark's ``Script`` from
``ctx.runs``, on the live path and on the corpus build path alike, so a
cold run draws each ``(profile, instructions, seed, warmup)`` once — and
a ``--jobs N`` worker, which unpickles its own context, keeps its own
memo without changing a byte of what the run records.
"""

import os
import pickle
from collections import Counter

import pytest

from repro.corpus.store import CorpusStore
from repro.experiments import fig10_extra_latency, fig11_policies
from repro.experiments import fig12_intelligent
from repro.experiments.context import RunContext
from repro.experiments.registry import get, select
from repro.experiments.results import SectionResult
from repro.experiments.runner import execute_report
from repro.workloads import generator

INSTRUCTIONS = 2_000
BENCHMARKS = ["gobmk", "perlbench"]  # the two fig12 renders by name


@pytest.fixture
def few_benchmarks(monkeypatch):
    for module in (fig11_policies, fig12_intelligent):
        monkeypatch.setattr(module, "FIG11_BENCHMARKS", BENCHMARKS)
    monkeypatch.setattr(fig10_extra_latency, "FIG10_BENCHMARKS", BENCHMARKS)


@pytest.fixture
def draws(monkeypatch):
    counts = Counter()
    real = generator.draw

    def counted(profile, instructions=200_000, seed=0, warmup_fraction=1.0):
        counts[profile.name, instructions, seed, warmup_fraction] += 1
        return real(profile, instructions, seed, warmup_fraction)

    monkeypatch.setattr(generator, "draw", counted)
    return counts


def _context(root, jobs=1):
    return RunContext.create(
        "quick", corpus=str(root), jobs=jobs, instructions=INSTRUCTIONS
    )


@pytest.mark.parametrize("corpus", [True, False], ids=["cold-corpus", "live"])
def test_fig11_then_fig12_draw_each_key_once(
    tmp_path, few_benchmarks, draws, corpus
):
    ctx = _context(tmp_path / "corpus")
    if not corpus:
        ctx = ctx.with_overrides(corpus_root=None)
    for name in ("fig11", "fig12"):
        get(name).run(ctx)
    assert draws == Counter(
        {(name, INSTRUCTIONS, 0, 1.0): 1 for name in BENCHMARKS}
    )
    if corpus:
        # fig12's baselines are fig11's objects: 2 x (1 + 7) + 2 x 6.
        assert ctx.store.built == 2 * 8 + 2 * 6


def test_a_pickled_context_starts_its_own_memo(tmp_path):
    ctx = _context(tmp_path / "corpus")
    ctx.runs["marker"] = object()
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy == ctx
    assert copy.runs == {}


def _corpus_state(root):
    store = CorpusStore(str(root))
    objects = {}
    for dirpath, _dirnames, names in os.walk(store.objects_dir):
        for name in names:
            with open(os.path.join(dirpath, name), "rb") as handle:
                objects[name] = handle.read()
    return store.manifest().entries, objects


def test_two_workers_record_the_corpus_one_worker_does(
    tmp_path, few_benchmarks
):
    states = []
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        report = execute_report(
            select(["fig10", "fig11"]), _context(root, jobs=jobs)
        )
        assert all(isinstance(o, SectionResult) for o in report.outcomes)
        states.append(_corpus_state(root))
    (entries, objects), (entries_2, objects_2) = states
    assert len(entries) == 2 * 8
    assert entries_2 == entries
    assert objects_2 == objects
