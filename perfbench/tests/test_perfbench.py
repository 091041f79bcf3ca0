"""Tests of the benchmark itself, on a tiny text so that they run in seconds."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
from strindex import StringIndex  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"n": 2048, "round_size": 60, "cycles": 2}
SEED = 7


def run(tmp_path, name, trace):
    return bench.measure(name, SEED, 0.05, trace, tmp_path, **TINY)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tmp_path, name, trace, section):
    select = StringIndex.__dict__["select"]
    result = run(tmp_path, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] % TINY["round_size"] == 0 and result["attempted"] > 0
    printed = {key: m["unit"] for key, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert StringIndex.__dict__["select"] is select  # the tracer put it back
    if trace:  # each phase's entry call was seen by the tracer, once per call
        values = {key: m["value"] for key, m in result["metrics"].items()}
        assert values["select.index.StringIndex.select.calls"] == 1
        assert values["rank.index.StringIndex.rank.calls"] == 1
        assert values["setup.index.StringIndex.from_bytes.calls"] == 1
        assert values["save.index.StringIndex.to_bytes.calls"] == 1
        assert values["build.index.StringIndex.build.self_s"] > 0


def test_wrong_select_answer_counts_as_failed_query(tmp_path, monkeypatch):
    original = StringIndex.select

    def off_by_one(self, text, session, c, j):
        return original(self, text, session, c, j) + 1

    monkeypatch.setattr(StringIndex, "select", off_by_one)
    result = run(tmp_path, "zipf-s64-t2", False)
    _, _, queries = bench.make_inputs("zipf-s64-t2", SEED, TINY["n"], TINY["round_size"])
    selects = sum(1 for kind, _, _ in queries if kind == bench.SELECT)
    rounds = result["attempted"] // len(queries)
    assert selects > 0
    assert result["failed"] == rounds * selects
    # Built and loaded index agree with each other, so the run stays correct.
    assert result["correct"]


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "zipf-s64-t2", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
