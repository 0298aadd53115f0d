"""Tests of the benchmark itself: tail rule, metric names, self time, smoke runs."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER, Tracer, self_times, tail  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1, 101)))[:1] == (90.0,)
    assert tail(list(range(1, 1001)))[:1] == (99.0,)
    assert tail(list(range(1, 1501)))[:1] == (99.0,)      # p99.5 leaves 7 beyond
    assert tail(list(range(1, 10001)))[:1] == (99.9,)
    pct, value, n = tail(list(range(1, 201)))
    assert (pct, n) == (95.0, 200)
    assert sum(v > value for v in range(1, 201)) >= 10
    assert tail([3.0] * 5) == (50.0, 3.0, 5)              # too few: the median
    assert tail([]) == (0.0, 0.0, 0)


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == \
        [(k, unit) for k, (unit, _) in PER_LAYER.items()]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in BENCH["end_to_end"])


def test_self_time_subtracts_time_covered_by_children():
    #        0: [0, 10]
    #        ├─ 1: [1, 3]  └─ 4: [1.5, 2.5]
    #        ├─ 2: [2, 5]   (overlaps 1: the union [1, 5] counts once)
    #        └─ 3: [6, 7]
    start = [0.0, 1.0, 2.0, 6.0, 1.5]
    end = [10.0, 3.0, 5.0, 7.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_tracer_records_nested_spans_with_parents():
    tracer = Tracer()
    inner = tracer.wrap("models.inner", lambda: None)
    outer = tracer.wrap("models.outer", lambda: inner())
    with tracer.span("bench.rep"):
        outer()
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["bench.rep", "models.outer", "models.inner"]
    assert list(tracer.parent) == [-1, 0, 1]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    assert all(s >= 0 for s in selfs)
    metrics, _ = tracer.metrics({"reps": 1})
    assert metrics["models.calls"] == 2
    assert metrics["models.busy_s"] == pytest.approx(tracer.end[1] - tracer.start[1])


def test_checks_catch_tampered_and_differing_artifacts(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Invert, artifact_digest

    wl = Invert("invert", 5, tmp_path, smoke=True)
    wl.setup(0)
    assert not wl.failures
    out = tmp_path / "setup0"
    first = artifact_digest(out)
    (out / "metrics.csv").write_text("epoch,train_loss,train_accuracy\n")
    wl.check_manifest(out)
    wl.same_as_first("setup", artifact_digest(out), "train-classifier output")
    assert artifact_digest(out) != first
    assert wl.failures == ["manifest hashes in setup0",
                           "train-classifier output differs from the first run"]


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(tmp_path, workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke", "--out", str(tmp_path)], ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_netinv_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "invert", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
