"""Tests of the benchmark harness itself (not of singlerange).

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench

The smoke tests shorten the bundled reference runs so each workload takes
well under a second; at that length the filters have not converged, so
they check the result's shape, metric names and units, not the gates.
The gates are checked separately against corrupted results.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from singlerange import cli
from singlerange.config import builtin_current_config, builtin_free_config
from spans import Tracer, layer_table, self_times

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ALWAYS_ZERO = {"truthsim.clamped", "estimators.covariance_errors"}


@pytest.fixture
def tiny(monkeypatch):
    """Shorten the bundled configs and the design window."""
    def short_current():
        return dataclasses.replace(builtin_current_config(), steps=1500)

    def short_free():
        return dataclasses.replace(builtin_free_config(), steps=500)

    monkeypatch.setattr(cli, "builtin_current_config", short_current)
    monkeypatch.setattr(workloads, "builtin_current_config", short_current)
    monkeypatch.setattr(workloads, "builtin_free_config", short_free)
    monkeypatch.setattr(workloads, "DESIGN_STEPS", 2000)


def _smoke(name, trace, work):
    workload = workloads.WORKLOADS[name](seed=3)
    workload.setup(work)
    tracer = Tracer() if trace else None
    measured = run.measure(workload, 0.05, tracer)
    assert set(measured["walls"]) == ({"op", "replay", "traced"} if trace
                                      else {"op"})
    result, lines = run.report(workload, measured, DECLARED, [0.5], tracer)
    specs = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])
        assert any(line.split()[0] == spec["name"] for line in lines)
    return result


def test_declared_workloads_are_implemented():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke(tiny, tmp_path, name):
    result = _smoke(name, 0, tmp_path)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(v > 0 for v in values.values()), values


def test_traced_smoke_reaches_every_layer(tiny, tmp_path):
    seen = {}
    for name in workloads.WORKLOADS:
        result = _smoke(name, 1, tmp_path / name)
        seen[name] = {k: m["value"] for k, m in result["metrics"].items()}
    for spec in DECLARED["per_layer"]:
        if spec["name"] in ALWAYS_ZERO | {"trace.overhead_s"}:
            continue
        assert any(v[spec["name"]] != 0 for v in seen.values()), spec["name"]
    assert seen["design_sweep"]["estimators.filter_s"] == 0
    assert seen["mc_free"]["runio.bytes_written"] == 0
    assert seen["mc_free"]["estimators.steps"] == workloads.MC_SEEDS * 500
    assert seen["mc_free"]["cli.residual_s"] == 0  # no CLI: op is the replay
    assert seen["estimate_trace_current"]["estimators.reanchors"] == 2
    assert seen["estimate_trace_current"]["runio.bytes_read"] > 0
    assert seen["reproduce_current"]["runio.bytes_read"] == 0


def test_self_times_and_layer_table():
    spans = [
        {"name": "op", "op": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"name": "config.load", "op": 0, "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "estimators.filter", "op": 0, "parent": 0, "start": 5.0,
         "end": 9.0, "model": "free", "form": "info",
         "counts": {"estimators.steps": 1000}},
        {"name": "signals.integrate", "op": 0, "parent": 2, "start": 6.0,
         "end": 7.0},
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    table, bases = layer_table(spans, {0: 9.9}, {0: 9.5})
    assert table["config.load_s"] == 3.0
    assert table["estimators.filter_s"] == 3.0
    assert table["estimators.free_info.us_per_step"] == pytest.approx(3000.0)
    assert "1000 steps" in bases["estimators.free_info.us_per_step"]
    assert table["cli.residual_s"] == pytest.approx(0.4)
    assert table["trace.overhead_s"] == pytest.approx(0.5)
    assert table["_op_wall_s"] == 10.0


def test_tracer_closes_span_on_error():
    tracer = Tracer()
    tracer.op_id = 4
    with pytest.raises(ZeroDivisionError):
        with tracer.span("op"):
            with tracer.span("inner"):
                1 / 0
    assert [s["parent"] for s in tracer.spans] == [None, 0]
    assert all(s["end"] is not None and s["op"] == 4 for s in tracer.spans)


def _free_errors(final=0.2, halfway=1.0):
    err = np.linspace(workloads.FREE_INITIAL_ERR, halfway, 51)
    return np.concatenate([err, np.full(50, final)])


def test_free_gate_rejects_perturbed_runs():
    assert workloads.free_run_problems(_free_errors()) == []
    bad_initial = _free_errors()
    bad_initial[0] += 1e-3
    for err in (bad_initial, _free_errors(final=5.5, halfway=9.0),
                _free_errors(final=2.0, halfway=2.0)):
        assert workloads.free_run_problems(err)
    mc = workloads.MonteCarloFree(seed=1)
    mc.setup(None)
    good = [_free_errors()] * workloads.MC_SEEDS
    assert mc.check(0, good) == []
    assert mc.check(0, good[:-1])
    assert mc.check(0, good[:-1] + [_free_errors(final=6.0, halfway=9.0)])


def _estimate_csv(path, rows=5, err=0.02, vf=(0.001, -0.002, 0.003)):
    header = ("k,t," + ",".join(f"xhat{i}" for i in range(1, 9))
              + ",err_norm,trace_P,vfhat1,vfhat2,vfhat3")
    lines = [header]
    for k in range(rows):
        lines.append(",".join(["%d" % k, repr(k * 0.1)] + ["1.0"] * 8
                              + [repr(err), "2.0"] + [repr(v) for v in vf]))
    path.write_text("\n".join(lines) + "\n")


def test_current_gate_rejects_perturbed_estimate(tmp_path):
    path = tmp_path / "current_estimate.csv"
    _estimate_csv(path)
    rows, last, _ = workloads.csv_summary(path)
    assert rows == 5 and workloads.current_estimate_problems(last) == []
    for kwargs in ({"err": 0.6}, {"vf": (0.04, 0.04, 0.0)}):
        _estimate_csv(path, **kwargs)
        _, last, _ = workloads.csv_summary(path)
        assert workloads.current_estimate_problems(last), kwargs


def test_reproduce_gate_rejects_changed_bytes(tiny, tmp_path):
    rep = workloads.ReproduceCurrent(seed=1)
    rep.setup(tmp_path)
    first = rep.check(0, rep.run(0))
    assert all("rows" not in p and "differ" not in p for p in first)
    assert rep.check(1, rep.replay(Tracer(), 1)) == first
    truth = rep.out / "current_truth.csv"
    truth.write_bytes(truth.read_bytes().replace(b"0.", b"1.", 1))
    assert any("differ" in p for p in rep.check(2, (cli.EXIT_OK, "")))
    truth.write_text(truth.read_text().rsplit("\n", 2)[0] + "\n")
    assert any("rows" in p for p in rep.check(3, (cli.EXIT_OK, "")))
    assert rep.check(4, (cli.EXIT_CONFIG, "error"))[0].startswith("exit code")


def test_estimate_gate_rejects_changed_output(tiny, tmp_path):
    est = workloads.EstimateTraceCurrent(seed=1)
    est.setup(tmp_path)
    first = est.check(0, est.run(0))
    assert all("rows" not in p and "differ" not in p for p in first)
    assert est.check(1, est.replay(Tracer(), 1)) == first
    estimate = est.paths[0]
    text = estimate.read_text()
    estimate.write_text(text.replace("0.", "1.", 1))
    assert any("differ" in p for p in est.check(2, (cli.EXIT_OK, "")))
    estimate.write_text(text.rsplit("\n", 2)[0] + "\n")
    assert any("rows" in p for p in est.check(3, (cli.EXIT_OK, "")))
    assert est.check(4, (cli.EXIT_NUMERICAL, "error"))[0].startswith("exit code")


def test_design_oracle_holds_and_gate_rejects_flipped_code(tmp_path):
    sweep = workloads.DesignSweep(seed=11)
    sweep.setup(tmp_path)
    assert sweep.expected.count(cli.EXIT_NOT_OBSERVABLE) == workloads.DESIGN_POOL // 4
    for i in range(workloads.DESIGN_POOL):
        code = sweep.run(i)
        assert sweep.check(i, code) == [], i
        assert sweep.replay(Tracer(), i)[0] == code[0]
        flipped = cli.EXIT_OK if code[0] else cli.EXIT_NOT_OBSERVABLE
        assert sweep.check(i, (flipped, ""))


def test_run_script_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "design_sweep",
         "--seed", "2", "--seconds", "0.3", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in DECLARED["end_to_end"]}
    saved = json.loads((run.OUT / "results" / "design_sweep-seed2-trace0.json")
                       .read_text())
    assert len(saved["setup_s"]) == run.SETUP_REPEATS


def test_run_script_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
