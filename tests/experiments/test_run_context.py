"""RunContext: profile defaulting, corpus resolution, RNG namespaces."""

import pickle

import pytest

from repro.corpus.store import CorpusStore
from repro.experiments.context import PROFILES, RunContext


class TestDefaults:
    def test_quick_profile_is_the_default(self):
        ctx = RunContext()
        assert ctx.profile == "quick"
        assert (ctx.instructions, ctx.seeds) == PROFILES["quick"]
        assert ctx.jobs == 1
        assert ctx.store is None

    def test_create_full_profile(self, tmp_path):
        ctx = RunContext.create(
            "full", corpus=str(tmp_path / "corpus"), jobs=4
        )
        assert (ctx.instructions, ctx.seeds) == (200_000, (0, 1, 2))
        assert ctx.jobs == 4

    def test_create_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            RunContext.create("medium")

    def test_create_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            RunContext.create("quick", no_corpus=True, jobs=0)

    def test_piecemeal_overrides_beat_the_profile(self):
        ctx = RunContext.create(
            "quick", no_corpus=True, instructions=1234, seeds=(7, 8)
        )
        assert ctx.instructions == 1234
        assert ctx.seeds == (7, 8)

    def test_with_overrides_returns_a_new_frozen_copy(self):
        ctx = RunContext()
        other = ctx.with_overrides(jobs=3)
        assert other.jobs == 3 and ctx.jobs == 1
        with pytest.raises(Exception):
            ctx.jobs = 2  # frozen


class TestCorpusResolution:
    def test_no_corpus_means_no_store(self):
        ctx = RunContext.create("quick", no_corpus=True)
        assert ctx.corpus_root is None
        assert ctx.store is None

    def test_explicit_corpus_root_wins(self, tmp_path):
        root = str(tmp_path / "corpus")
        ctx = RunContext.create("quick", corpus=root)
        assert ctx.corpus_root == root
        assert isinstance(ctx.store, CorpusStore)
        assert ctx.store.root == root

    def test_default_resolution_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "env-corpus"))
        ctx = RunContext.create("quick")
        assert ctx.corpus_root == str(tmp_path / "env-corpus")

    def test_url_corpus_is_rejected_and_creates_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="not a URL"):
            RunContext.create("quick", corpus="http://localhost:8000")
        assert list(tmp_path.iterdir()) == []

    def test_store_handle_is_cached(self, tmp_path):
        ctx = RunContext.create("quick", corpus=str(tmp_path))
        assert ctx.store is ctx.store

    def test_context_pickles_for_worker_processes(self, tmp_path):
        ctx = RunContext.create("quick", corpus=str(tmp_path), jobs=2)
        _ = ctx.store  # populate the cache; must not break pickling
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        assert clone.store.root == ctx.store.root


class TestRngNamespace:
    def test_namespaces_are_deterministic(self):
        ctx = RunContext()
        assert ctx.seed_for("fig10") == ctx.seed_for("fig10")
        assert ctx.rng("fig10").random() == ctx.rng("fig10").random()

    def test_namespaces_are_independent(self):
        ctx = RunContext()
        assert ctx.seed_for("fig10") != ctx.seed_for("fig11")

    def test_base_seed_shifts_every_namespace(self):
        base = RunContext()
        shifted = RunContext(rng_seed=1)
        assert base.seed_for("fig10") != shifted.seed_for("fig10")
