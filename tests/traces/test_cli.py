"""Smoke tests for the ``python -m repro.traces`` CLI."""

import glob
import json
import os
import subprocess
import sys
import zlib

import pytest

import repro
from repro.traces.__main__ import main
from repro.traces.registry import CORPUS


def test_list_shows_whole_corpus(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in CORPUS:
        assert name in out


def test_record_info_replay_shard_pipeline(tmp_path, capsys):
    trace = str(tmp_path / "cli.trace")
    assert main(
        ["record", "--scenario", "server-churn",
         "--instructions", "3000", "--out", trace]
    ) == 0
    assert "recorded server-churn" in capsys.readouterr().out

    assert main(["info", trace]) == 0
    out = capsys.readouterr().out
    assert "CALTRC02" in out
    assert "server-churn" in out

    assert main(["replay", trace]) == 0
    assert "verified bit-identical" in capsys.readouterr().out

    assert main(["replay", trace, "--mode", "hierarchy"]) == 0
    assert "hierarchy replay" in capsys.readouterr().out

    shard_dir = str(tmp_path / "shards")
    assert main(["shard", trace, "--out-dir", shard_dir, "-n", "3"]) == 0
    capsys.readouterr()
    shards = sorted(glob.glob(shard_dir + "/*.trace"))
    assert len(shards) == 3

    assert main(["replay-shards", *shards, "--jobs", "2"]) == 0
    assert "merged over 3 shards" in capsys.readouterr().out

    # Replaying a single shard file routes to the region engine instead
    # of crashing on the missing whole-run footer.
    assert main(["replay", shards[0]]) == 0
    assert "region replay of shard 1/3" in capsys.readouterr().out


def test_compressed_record_info_replay(tmp_path, capsys):
    trace = str(tmp_path / "cli.v2.trace")
    assert main(
        ["record", "--scenario", "scan-heavy", "--instructions", "3000",
         "--out", trace]
    ) == 0
    assert "recorded scan-heavy" in capsys.readouterr().out

    assert main(["info", trace, "--frames"]) == 0
    out = capsys.readouterr().out
    assert "CALTRC02" in out
    assert "compression" in out
    assert "frame    0" in out

    assert main(["replay", trace]) == 0
    assert "verified bit-identical" in capsys.readouterr().out

    shard_dir = str(tmp_path / "shards")
    assert main(["shard", trace, "--out-dir", shard_dir, "-n", "2"]) == 0
    capsys.readouterr()
    shards = sorted(glob.glob(shard_dir + "/*.trace"))
    assert main(["replay-shards", *shards]) == 0
    assert "merged over 2 shards" in capsys.readouterr().out

    assert main(["replay-mc", trace, "--cores", "2"]) == 0
    assert "merged over 2 cores" in capsys.readouterr().out


def test_info_inflates_no_frame(tmp_path, capsys, monkeypatch):
    # The footer comes from the end of the bytes and the frame table
    # from the frame heads, so no payload is decompressed.
    trace = str(tmp_path / "info.trace")
    assert main(
        ["record", "--scenario", "server-churn", "--instructions", "2000",
         "--out", trace]
    ) == 0
    inflated = []
    decompress = zlib.decompress

    def spy(data, *args, **kwargs):
        inflated.append(len(data))
        return decompress(data, *args, **kwargs)

    monkeypatch.setattr(zlib, "decompress", spy)
    assert main(["info", trace, "--frames"]) == 0
    assert "records/frame" in capsys.readouterr().out
    assert inflated == []


def test_info_on_truncated_file_fails_clearly(tmp_path, capsys):
    trace = str(tmp_path / "trunc.trace")
    assert main(
        ["record", "--scenario", "server-churn", "--instructions", "2000",
         "--out", trace]
    ) == 0
    capsys.readouterr()
    with open(trace, "rb") as handle:
        raw = handle.read()
    for cut in (3, 10, len(raw) // 2, len(raw) - 4):
        with open(trace, "wb") as handle:
            handle.write(raw[:cut])
        assert main(["info", trace]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "struct" not in err


def test_info_on_corrupted_header_fails_clearly(tmp_path, capsys):
    trace = str(tmp_path / "corrupt.trace")
    assert main(
        ["record", "--scenario", "server-churn", "--instructions", "2000",
         "--out", trace]
    ) == 0
    capsys.readouterr()
    with open(trace, "r+b") as handle:
        handle.seek(500)  # inside the header JSON
        handle.write(b"\x9a")
    assert main(["info", trace]) == 1
    err = capsys.readouterr().err
    assert "corrupt trace header" in err
    assert trace in err  # the message names the damaged file
    assert "byte offset" in err  # ... and where the damage sits


def test_record_from_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "custom.json"
    document = CORPUS["dma-mixed"].scaled(2000).to_dict()
    spec_path.write_text(json.dumps(document))
    trace = str(tmp_path / "custom.trace")
    assert main(["record", "--spec", str(spec_path), "--out", trace]) == 0
    assert "recorded dma-mixed" in capsys.readouterr().out


def test_unknown_scenario_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["record", "--scenario", "nope", "--out", str(tmp_path / "x")])


def test_mistyped_spec_key_is_a_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "typo.json"
    document = CORPUS["scan-heavy"].to_dict()
    document["instuctions"] = 100  # sic
    spec_path.write_text(json.dumps(document))
    with pytest.raises(SystemExit):
        main(["record", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert "unknown spec key" in capsys.readouterr().err


def test_a_profile_of_zero_length_bursts_is_a_usage_error(tmp_path):
    # Recorded, it would draw bursts of no instructions forever; a
    # separate process bounds the wait should the check ever go.
    spec_path = tmp_path / "empty-bursts.json"
    document = CORPUS["server-churn"].scaled(2000).to_dict()
    document["profile"]["burst_length"] = 0
    spec_path.write_text(json.dumps(document))
    source = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "repro.traces", "record",
         "--spec", str(spec_path), "--out", str(tmp_path / "x.trace")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": source},
    )
    assert done.returncode == 2
    assert "burst_length must be positive" in done.stderr
    assert not (tmp_path / "x.trace").exists()


def test_replay_missing_file_is_a_runtime_error(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "does-not-exist.trace")]) == 1
    assert "error:" in capsys.readouterr().err


def test_no_verify_does_not_claim_verification(tmp_path, capsys):
    trace = str(tmp_path / "nv.trace")
    assert main(
        ["record", "--scenario", "scan-heavy",
         "--instructions", "2000", "--out", trace]
    ) == 0
    capsys.readouterr()
    assert main(["replay", trace, "--no-verify"]) == 0
    out = capsys.readouterr().out
    assert "verification skipped" in out
    assert "bit-identical" not in out
