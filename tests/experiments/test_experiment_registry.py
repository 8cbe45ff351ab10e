"""The experiment registry: completeness, selection, ordering, errors."""

import pytest

from repro.experiments.context import RunContext
from repro.experiments.registry import (
    KNOWN_NEEDS,
    UnknownExperimentError,
    all_experiments,
    all_tags,
    experiment,
    get,
    registry,
    section,
    select,
)
from repro.experiments.results import SectionResult

#: The pre-registry runner's section list, in report order.  The
#: registry must cover exactly these titles — EXPERIMENTS.md's section
#: set is a compatibility surface.
LEGACY_SECTIONS = (
    ("fig03", "Figure 3 — struct density census"),
    ("fig04", "Figure 4 — fixed padding sweep"),
    ("table1", "Table 1 — CFORM K-map"),
    ("table2", "Table 2 — VLSI costs"),
    ("table3", "Table 3 — simulated system"),
    ("fig10", "Figure 10 — +1-cycle L2/L3 latency"),
    ("fig11", "Figure 11 — opportunistic & full policies"),
    ("fig12", "Figure 12 — intelligent policy"),
    ("tables456", "Tables 4/5/6 — related-work comparison"),
    ("sec7", "Section 7.3 — derandomization"),
    ("table7", "Table 7 — L1 variants"),
    ("traces", "Trace engine — figures from recorded traces"),
    ("multicore", "Multi-core — shared-L3 contention under extra latency"),
    (
        "loadgen_contention",
        "Load generator — multi-tenant contention vs solo tenants",
    ),
)


class TestCompleteness:
    def test_every_legacy_section_is_registered(self):
        names_and_titles = [
            (exp.name, exp.title) for exp in all_experiments()
        ]
        assert names_and_titles == list(LEGACY_SECTIONS)

    def test_registry_mapping_matches(self):
        mapping = registry()
        assert set(mapping) == {name for name, _ in LEGACY_SECTIONS}
        for name, exp in mapping.items():
            assert exp.name == name

    def test_needs_are_declared_from_the_known_vocabulary(self):
        for exp in all_experiments():
            assert exp.needs <= KNOWN_NEEDS

    def test_trace_consuming_sections_declare_corpus(self):
        for name in (
            "fig04",
            "fig10",
            "fig11",
            "fig12",
            "traces",
            "multicore",
            "loadgen_contention",
        ):
            assert "corpus" in get(name).needs

    def test_tags_cover_the_documented_axes(self):
        assert {"figure", "table", "trace", "multicore"} <= all_tags()


class TestSelection:
    def test_empty_selection_is_everything_in_order(self):
        assert select() == all_experiments()

    def test_selection_by_name_works(self):
        chosen = select(["fig10"])
        assert [exp.name for exp in chosen] == ["fig10"]

    def test_selection_preserves_report_order(self):
        chosen = select(["sec7", "fig04", "table1"])
        assert [exp.name for exp in chosen] == ["fig04", "table1", "sec7"]

    def test_selection_by_tag(self):
        chosen = select(tags=["table"])
        assert [exp.name for exp in chosen] == [
            "table1", "table2", "table3", "tables456", "table7"
        ]

    def test_names_and_tags_union_without_duplicates(self):
        chosen = select(["fig04"], tags=["trace"])
        names = [exp.name for exp in chosen]
        assert names.count("fig04") == 1
        assert "traces" in names and "multicore" in names

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(UnknownExperimentError, match="fig03"):
            select(["fig99"])

    def test_unknown_tag_lists_known_tags(self):
        with pytest.raises(UnknownExperimentError, match="figure"):
            select(tags=["nope"])


class TestRegistration:
    def test_duplicate_name_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            experiment(name="fig03", title="clone")(lambda ctx: None)

    def test_unknown_needs_are_rejected_at_declaration(self):
        with pytest.raises(ValueError, match="unknown needs"):
            experiment(name="x-bad", title="x", needs=("gpu",))

    def test_run_type_checks_the_result(self):
        exp = get("fig03")
        bad = type(exp)(
            name=exp.name, title=exp.title, fn=lambda ctx: "not a result"
        )
        with pytest.raises(TypeError, match="SectionResult"):
            bad.run(RunContext())

    def test_section_helper_stamps_registry_identity(self):
        result = section("fig10", {"x": 1}, "body")
        assert isinstance(result, SectionResult)
        assert result.title == get("fig10").title
        assert set(result.tags) == get("fig10").tags
