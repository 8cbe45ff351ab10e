"""`python -m repro`: subcommand smoke tests and report determinism.

Everything runs ``repro.cli.main`` in-process (no subprocesses) on the
cheap, trace-free sections, so the tier-1 suite stays fast; the full
quick-profile pipeline (all sections, corpus-backed, twice) lives behind
the ``slow`` marker with the other minutes-scale figure checks.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.results import SectionResult

#: Sections with no trace recording and sub-second runtimes.
CHEAP = ["fig03", "table1", "table2", "table3", "sec7", "table7"]


def run_cli(tmp_path, *extra: str, sections: list[str] | None = None) -> str:
    sections = CHEAP if sections is None else sections
    tmp_path.mkdir(parents=True, exist_ok=True)
    output = tmp_path / "EXPERIMENTS.md"
    code = main(
        [
            "run", *sections,
            "--no-corpus",
            "--output", str(output),
            "--results-dir", str(tmp_path / "results"),
            *extra,
        ]
    )
    assert code == 0
    return output.read_text()


class TestRunSubcommand:
    def test_writes_report_with_selected_sections(self, tmp_path):
        text = run_cli(tmp_path, sections=["fig03", "table1"])
        assert "## Figure 3 — struct density census" in text
        assert "## Table 1 — CFORM K-map" in text
        assert "## Figure 10" not in text

    def test_writes_json_results_that_round_trip(self, tmp_path):
        run_cli(tmp_path, sections=["fig03", "table3"])
        results_dir = tmp_path / "results"
        for name in ("fig03", "table3"):
            document = json.loads((results_dir / f"{name}.json").read_text())
            result = SectionResult.from_dict(document)
            assert result.name == name
            assert result.markdown in run_cli(
                tmp_path, sections=[name]
            )
        index = json.loads((results_dir / "index.json").read_text())
        assert index["profile"] == "quick"

    def test_fig03_json_carries_structured_data(self, tmp_path):
        run_cli(tmp_path, sections=["fig03"])
        document = json.loads((tmp_path / "results" / "fig03.json").read_text())
        census = document["data"]["census"]["spec"]
        assert census["struct_count"] > 0
        assert 0.0 < census["padded_fraction"] < 1.0

    def test_no_results_flag_skips_json(self, tmp_path):
        run_cli(tmp_path, "--no-results", sections=["table1"])
        assert not (tmp_path / "results").exists()

    def test_tag_selection(self, tmp_path):
        output = tmp_path / "tables.md"
        code = main(
            [
                "run", "--tag", "table", "--no-corpus",
                "--output", str(output), "--no-results",
            ]
        )
        assert code == 0
        text = output.read_text()
        for title in ("Table 1", "Table 2", "Table 3", "Tables 4/5/6", "Table 7"):
            assert f"## {title}" in text

    def test_unknown_name_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig99", "--no-corpus", "--no-results"])
        assert excinfo.value.code == 2
        assert "unknown experiment 'fig99'" in capsys.readouterr().err

    def test_unknown_tag_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--tag", "nope", "--no-corpus", "--no-results"])
        assert excinfo.value.code == 2
        assert "unknown tag" in capsys.readouterr().err

    def test_partial_selection_defaults_to_partial_artifacts(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "table1", "--no-corpus"]) == 0
        assert (tmp_path / "EXPERIMENTS.partial.md").exists()
        assert not (tmp_path / "EXPERIMENTS.md").exists()
        assert (tmp_path / "results" / "partial" / "table1.json").exists()
        assert not (tmp_path / "results" / "index.json").exists()

    def test_explicit_output_beats_partial_defaulting(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["run", "table1", "--no-corpus", "--no-results",
             "--output", "EXPERIMENTS.md"]
        )
        assert code == 0
        assert (tmp_path / "EXPERIMENTS.md").exists()

    def test_nonpositive_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table1", "--no-corpus", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_list_prints_every_experiment(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig03", "fig10", "tables456", "traces", "multicore"):
            assert name in out


class TestDeterminism:
    def test_two_quick_runs_are_byte_identical(self, tmp_path):
        first = run_cli(tmp_path / "a")
        second = run_cli(tmp_path / "b")
        assert first == second

    def test_results_json_is_byte_identical_across_runs(self, tmp_path):
        run_cli(tmp_path / "a")
        run_cli(tmp_path / "b")
        for name in CHEAP + ["index"]:
            a = (tmp_path / "a" / "results" / f"{name}.json").read_bytes()
            b = (tmp_path / "b" / "results" / f"{name}.json").read_bytes()
            assert a == b, name


class TestDelegation:
    def test_trace_subcommand_delegates(self, capsys):
        assert main(["trace", "list"]) == 0
        assert "server-churn" in capsys.readouterr().out

    def test_corpus_subcommand_delegates(self, capsys):
        assert main(["corpus", "key"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 64 and int(out, 16) >= 0

    def test_perf_subcommand_delegates(self, capsys):
        assert main(["perf", "--list"]) == 0
        assert "codec_encode" in capsys.readouterr().out

    def test_loadgen_subcommand_delegates(self, capsys):
        assert main(["loadgen", "list"]) == 0
        assert "uniform-churn" in capsys.readouterr().out

    def test_serve_subcommand_delegates(self, capsys):
        with pytest.raises(SystemExit) as outcome:
            main(["serve", "--help"])
        assert outcome.value.code == 0
        assert "--results-dir" in capsys.readouterr().out


class TestVersion:
    def test_version_flag_reports_package_version(self, capsys):
        from repro import package_version

        with pytest.raises(SystemExit) as outcome:
            main(["--version"])
        assert outcome.value.code == 0
        assert capsys.readouterr().out.strip() == (
            f"repro {package_version()}"
        )

    def test_version_matches_dunder_in_source_runs(self):
        import repro

        # Source-tree runs fall back to __version__; an installed
        # package must agree with it (pyproject is the other copy).
        assert repro.package_version() == repro.__version__


class TestSetSelection:
    def run_set(self, tmp_path, tag: str) -> dict:
        output = tmp_path / f"EXPERIMENTS.{tag}.md"
        results_dir = tmp_path / f"results-{tag}"
        code = main(
            [
                "run", "--set", "uniform-churn",
                "--corpus", str(tmp_path / "corpus"),
                "--output", str(output),
                "--results-dir", str(results_dir),
            ]
        )
        assert code == 0
        assert "## Load generator" in output.read_text()
        return json.loads(
            (results_dir / "loadgen_contention.json").read_text()
        )

    def test_set_selects_the_loadgen_section(self, tmp_path):
        document = self.run_set(tmp_path, "first")
        rows = document["data"]["rows"]
        assert [row["scenario"] for row in rows] == ["uniform-churn"]
        assert document["data"]["sets"] == ["uniform-churn"]
        assert rows[0]["source"] == "recorded"

    def test_second_invocation_is_a_pure_corpus_hit(self, tmp_path):
        self.run_set(tmp_path, "first")
        document = self.run_set(tmp_path, "second")
        rows = document["data"]["rows"]
        assert all(row["source"] == "corpus hit" for row in rows)

    def test_unknown_set_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--set", "no-such-set", "--no-corpus"])
        assert excinfo.value.code == 2
        assert "--set" in capsys.readouterr().err


@pytest.mark.slow
class TestFullPipeline:
    def test_full_quick_run_is_deterministic_and_corpus_backed(self, tmp_path):
        corpus = str(tmp_path / "corpus")

        def run_once(tag: str) -> tuple[str, bytes]:
            output = tmp_path / f"EXPERIMENTS.{tag}.md"
            results_dir = tmp_path / f"results-{tag}"
            code = main(
                [
                    "run", "--jobs", "2", "--corpus", corpus,
                    "--output", str(output),
                    "--results-dir", str(results_dir),
                ]
            )
            assert code == 0
            return (
                output.read_text(),
                (results_dir / "traces.json").read_bytes(),
            )

        first_text, _ = run_once("first")
        second_text, second_traces = run_once("second")
        # First run records; the second replays pure corpus hits and is
        # the stable fixed point (recorded/corpus-hit labels settle).
        data = json.loads(second_traces)["data"]
        checks = data["checks"]
        assert checks and all(
            check["source"] == "corpus hit" for check in checks
        )
        assert data["all_bit_identical"] is True
        third_text, third_traces = run_once("third")
        assert second_text == third_text
        assert second_traces == third_traces
