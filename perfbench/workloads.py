"""The benchmark's workloads, their traced replays and their gates.

Each workload has

* ``setup(work_dir)``: builds the inputs from the workload seed (run
  several times for ``setup_s``);
* ``run(i)``: operation ``i`` untraced, exactly as a user runs it;
* ``replay(tracer, i)``: the same operation as the sequence of public
  calls its entry point makes, one span per call;
* ``check(i, result)``: the correctness gate, run outside the timing; it
  returns a list of problems, empty when the operation is correct.

``units`` is the number of scenario runs one operation completes (for the
rate printed next to ``wall_s``). ``has_cli`` is False when the operation
is itself the sequence of public calls, so ``run(i)`` already is the
untraced replay.
"""

import contextlib
import hashlib
import io
import math
import os
from pathlib import Path

import numpy as np
import yaml

import singlerange
from singlerange import cli
from singlerange.config import (
    builtin_current_config,
    builtin_free_config,
    config_hash,
    dump_config,
    load_config,
)
from singlerange.estimators import CovarianceError, run_current_filter, run_free_filter
from singlerange.observability import g11_condition, gramian_current, gramian_free
from singlerange.runio import (
    RunManifest,
    read_trace_csv,
    write_error_csv,
    write_estimate_csv,
    write_trace_csv,
)
from singlerange.signals import integrate
from singlerange.truthsim import measure, propagate_current, propagate_free
from spans import NULL_TRACER

# Acceptance criterion 1 (drift-free) and 2 (current) bounds.
FREE_INITIAL_ERR = 100.0 * math.sqrt(3.0)
FREE_FINAL_ERR = 5.0
CURRENT_FINAL_ERR = 0.5
CURRENT_FINAL_VF = 0.05

MC_SEEDS = 8
REANCHOR_EVERY = 750
DESIGN_STEPS = 20000
DESIGN_POOL = 64


def _call_cli(argv):
    """Run the CLI in-process with stdout/stderr captured; (code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _sub_seed(seed, *path):
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def csv_summary(path):
    """(data rows, last row as {column: value}, sha256) of a CSV artifact."""
    data = Path(path).read_bytes()
    lines = data.rstrip(b"\n").split(b"\n")
    header = lines[0].decode().split(",")
    last = dict(zip(header, (float(v) for v in lines[-1].split(b","))))
    return len(lines) - 1, last, hashlib.sha256(data).hexdigest()


def current_estimate_problems(last):
    """Criterion 2 bounds on the final row of a current-mode estimate CSV."""
    problems = []
    err = last.get("err_norm", math.inf)
    vf = math.sqrt(sum(last.get(f"vfhat{i}", math.inf) ** 2 for i in (1, 2, 3)))
    if not err <= CURRENT_FINAL_ERR:
        problems.append(f"final position error {err:.6g} > {CURRENT_FINAL_ERR}")
    if not vf <= CURRENT_FINAL_VF:
        problems.append(f"final current norm {vf:.6g} > {CURRENT_FINAL_VF}")
    return problems


def free_run_problems(err_norm):
    """Criterion 1 bounds on one drift-free error-norm series."""
    initial, final = err_norm[0], err_norm[-1]
    halfway = err_norm[len(err_norm) // 2]
    problems = []
    if not abs(initial - FREE_INITIAL_ERR) <= 1e-6:
        problems.append(f"initial error {initial:.9g} != 100*sqrt(3)")
    if not final <= FREE_FINAL_ERR:
        problems.append(f"final error {final:.6g} > {FREE_FINAL_ERR}")
    if not final < halfway:
        problems.append(f"final error {final:.6g} >= halfway {halfway:.6g}")
    return problems


def exit_code_problems(code, expected):
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


# ---------------------------------------------------------------------------
# replay helpers: one span per public call
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _filter_span(tracer, model, form, steps, reanchor_every=0):
    """Span around one filter run; counts a CovarianceError it raises."""
    counts = {"estimators.steps": steps,
              "estimators.reanchors": steps // reanchor_every
              if reanchor_every else 0}
    with tracer.span("estimators.filter", model=model, form=form,
                     counts=counts):
        try:
            yield
        except CovarianceError:
            counts["estimators.covariance_errors"] = 1
            raise


def _traced_write(tracer, name, writer, path, obj):
    with tracer.span(name) as sp:
        writer(path, obj)
    sp["counts"] = {"runio.bytes_written": os.path.getsize(path)}


def _traced_manifest(tracer, cfg, seed, artifacts, path):
    """Replay of cli._manifest(...).write(path), config_hash included."""
    with tracer.span("runio.manifest") as sp:
        RunManifest(config_hash=config_hash(cfg), seed=seed,
                    artifacts=[str(p) for p in artifacts],
                    tool_version=singlerange.__version__).write(path)
    sp["counts"] = {"runio.bytes_written": os.path.getsize(path)}


class _CsvGate:
    """Gate of a CLI operation that writes ``self.paths``.

    Exit code 0, ``self.rows`` rows per CSV, the criterion 2 bounds on an
    estimate CSV, and the same bytes as the first operation wrote.
    """

    reference = None

    def check(self, i, result):
        code, stderr = result
        problems = exit_code_problems(code, cli.EXIT_OK)
        if problems:
            return problems + [stderr.strip()]
        digests = []
        for path in self.paths:
            count, last, digest = csv_summary(path)
            digests.append(digest)
            if count != self.rows:
                problems.append(
                    f"{path.name}: {count} rows, expected {self.rows}")
            if path.name.endswith("_estimate.csv"):
                problems += current_estimate_problems(last)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problems.append("CSV bytes differ from the first operation's")
        return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ReproduceCurrent(_CsvGate):
    """``singlerange reproduce current``: 8-state filter plus three CSVs."""

    name = "reproduce_current"
    units = 1
    has_cli = True

    def __init__(self, seed):
        self.seed = _sub_seed(seed, 0)

    def setup(self, work_dir):
        self.out = Path(work_dir) / "reproduce"
        self.out.mkdir(parents=True, exist_ok=True)
        self.rows = builtin_current_config().steps + 1
        self.paths = [self.out / f"current_{kind}.csv"
                      for kind in ("truth", "estimate", "error")]

    def run(self, i):
        return _call_cli(["reproduce", "current", "--seed", str(self.seed),
                          "--out", str(self.out)])

    def replay(self, tracer, i):
        """Replay of cli.cmd_reproduce, cli._run_filter and cli._manifest."""
        with tracer.span("config.load"):
            cfg = builtin_current_config()
        fc = cfg.filter
        with tracer.span("config.scenario"):
            scenario = cfg.scenario(seed=self.seed)
        with tracer.span("truthsim.propagate") as sp:
            trace = propagate_current(scenario)
            sp["counts"] = {"truthsim.clamped": trace.clamped}
        with tracer.span("config.scenario"):
            scenario = cfg.scenario()
        with tracer.span("signals.integrate") as sp:
            ii = integrate(scenario.input)
            sp["counts"] = {"signals.samples": len(ii.values)}
        with _filter_span(tracer, "current",
                          "joseph" if fc.joseph_update else "info",
                          len(trace.y) - 1, fc.reanchor_every):
            run = run_current_filter(
                trace, ii, np.array(fc.x0_hat), np.array(fc.vf_hat),
                np.array(fc.p0_diag), np.array(fc.q_diag), fc.r,
                np.array(cfg.s), v_f_true=np.array(cfg.v_f),
                joseph_update=fc.joseph_update,
                reanchor_every=fc.reanchor_every)
        truth, estimate, error = self.paths
        _traced_write(tracer, "runio.write_trace", write_trace_csv, truth, trace)
        _traced_write(tracer, "runio.write_estimate", write_estimate_csv,
                      estimate, run)
        _traced_write(tracer, "runio.write_error", write_error_csv, error, run)
        _traced_manifest(tracer, cfg, self.seed, self.paths,
                         self.out / "current_manifest.json")
        return cli.EXIT_OK, ""


class EstimateTraceCurrent(_CsvGate):
    """``singlerange estimate --trace``: Joseph form with re-anchoring."""

    name = "estimate_trace_current"
    units = 1
    has_cli = True

    def __init__(self, seed):
        self.seed = _sub_seed(seed, 0)

    def setup(self, work_dir):
        """Dump the bundled current config and simulate its trace."""
        work = Path(work_dir) / "estimate"
        work.mkdir(parents=True, exist_ok=True)
        self.config = work / "current.yaml"
        cfg = builtin_current_config()
        self.config.write_text(dump_config(cfg))
        code, stderr = _call_cli(["simulate", "--config", str(self.config),
                                  "--seed", str(self.seed),
                                  "--out", str(work)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"simulate exited {code}: {stderr}")
        self.trace = work / "current_trace.csv"
        self.out = work / "out"
        self.rows = cfg.steps + 1
        self.paths = [self.out / "current_estimate.csv"]

    def run(self, i):
        return _call_cli(["estimate", "--config", str(self.config),
                          "--trace", str(self.trace),
                          "--reanchor-every", str(REANCHOR_EVERY),
                          "--joseph-update", "--out", str(self.out)])

    def replay(self, tracer, i):
        """Replay of cli._estimate_one with a trace and cli._run_filter."""
        with tracer.span("config.load"):
            cfg = load_config(self.config)
        fc = cfg.filter
        with tracer.span("runio.read_trace") as sp:
            trace = read_trace_csv(self.trace)
        sp["counts"] = {"runio.bytes_read": os.path.getsize(self.trace)}
        with tracer.span("config.scenario"):
            scenario = cfg.scenario()
        with tracer.span("signals.integrate") as sp:
            ii = integrate(scenario.input)
            sp["counts"] = {"signals.samples": len(ii.values)}
        with _filter_span(tracer, "current", "joseph", len(trace.y) - 1,
                          REANCHOR_EVERY):
            run = run_current_filter(
                trace, ii, np.array(fc.x0_hat), np.array(fc.vf_hat),
                np.array(fc.p0_diag), np.array(fc.q_diag), fc.r,
                np.array(cfg.s), v_f_true=np.array(cfg.v_f),
                joseph_update=True, reanchor_every=REANCHOR_EVERY)
        self.out.mkdir(parents=True, exist_ok=True)
        _traced_write(tracer, "runio.write_estimate", write_estimate_csv,
                      self.paths[0], run)
        _traced_manifest(tracer, cfg, cfg.seed, self.paths,
                         self.out / "current_estimate_manifest.json")
        return cli.EXIT_OK, ""


class MonteCarloFree:
    """Monte Carlo study on the bundled drift-free config, no I/O."""

    name = "mc_free"
    units = MC_SEEDS
    has_cli = False

    def __init__(self, seed):
        self.seed = seed

    def setup(self, work_dir):
        """Nothing to build: the study itself makes its scenario."""

    def seeds_for(self, i):
        return [_sub_seed(self.seed, i, j) for j in range(MC_SEEDS)]

    def study(self, tracer, i):
        seeds = self.seeds_for(i)
        with tracer.span("config.load"):
            cfg = builtin_free_config()
        fc = cfg.filter
        with tracer.span("config.scenario"):
            scenario = cfg.scenario()
        with tracer.span("truthsim.propagate") as sp:
            base = propagate_free(scenario)
            sp["counts"] = {"truthsim.clamped": base.clamped}
        with tracer.span("signals.integrate") as sp:
            ii = integrate(scenario.input)
            sp["counts"] = {"signals.samples": len(ii.values)}
        errors = []
        for seed in seeds:
            with tracer.span("truthsim.measure") as sp:
                trace = measure(base, scenario.noise, seed)
                sp["counts"] = {"truthsim.clamped": trace.clamped}
            with _filter_span(tracer, "free", "info", len(trace.y) - 1):
                run = run_free_filter(trace, ii, np.array(fc.x0_hat),
                                      np.array(fc.p0_diag),
                                      np.array(fc.q_diag), fc.r)
            errors.append(run.err_norm)
        return errors

    def run(self, i):
        return self.study(NULL_TRACER, i)

    def replay(self, tracer, i):
        return self.study(tracer, i)

    def check(self, i, result):
        problems = []
        for seed, err in zip(self.seeds_for(i), result):
            problems += [f"seed {seed}: {p}" for p in free_run_problems(err)]
        if len(result) != MC_SEEDS:
            problems.append(f"{len(result)} runs, expected {MC_SEEDS}")
        return problems


def make_design(rng, i, steps):
    """Input design ``i``: returns (YAML-ready dict, expected exit code).

    Even designs are drift-free, odd ones carry a current; designs with
    i % 8 in (3, 6) (one of every four, one per mode in every 8) zero one
    amplitude, which makes the window unobservable (exit 3).
    """
    ts = 0.01
    mode = "free" if i % 2 == 0 else "current"
    harmonics = (rng.choice(8, 3, replace=False) + 1).tolist()
    n0 = int(rng.integers(2000, steps + 1))
    max_speed = float(rng.uniform(0.2, 2.0))
    spec = {"kind": "sinusoid", "harmonics": harmonics, "n0": n0}
    unobservable = i % 8 in (3, 6)
    if unobservable:
        omega = 2.0 * math.pi / (n0 * ts)
        amplitudes = [max_speed / (h * omega) for h in harmonics]
        amplitudes[int(rng.integers(3))] = 0.0
        spec["amplitudes"] = amplitudes
    else:
        spec["max_speed"] = max_speed
    design = {"mode": mode, "ts": ts, "steps": steps,
              "seed": int(rng.integers(2**31)),
              "x0": rng.uniform(-50.0, 50.0, 3).tolist(), "input": spec}
    if mode == "current":
        design["s"] = rng.uniform(-10.0, 10.0, 3).tolist()
        design["v_f"] = rng.uniform(-0.2, 0.2, 3).tolist()
    expected = cli.EXIT_NOT_OBSERVABLE if unobservable else cli.EXIT_OK
    return design, expected


class DesignSweep:
    """``singlerange observability`` over seed-generated input designs."""

    name = "design_sweep"
    units = 1
    has_cli = True

    def __init__(self, seed):
        self.seed = seed

    def setup(self, work_dir):
        rng = np.random.default_rng(self.seed)
        folder = Path(work_dir) / "designs"
        folder.mkdir(parents=True, exist_ok=True)
        self.paths, self.expected = [], []
        for i in range(DESIGN_POOL):
            design, expected = make_design(rng, i, DESIGN_STEPS)
            path = folder / f"design{i:03d}.yaml"
            path.write_text(yaml.safe_dump(design))
            self.paths.append(path)
            self.expected.append(expected)

    def run(self, i):
        return _call_cli(["observability", "--config",
                          str(self.paths[i % DESIGN_POOL])])

    def replay(self, tracer, i):
        """Replay of cli.cmd_observability (without its inline SVD of H)."""
        with tracer.span("config.load"):
            cfg = load_config(self.paths[i % DESIGN_POOL])
        with tracer.span("config.scenario"):
            scenario = cfg.scenario(seed=None)
        with tracer.span("signals.integrate") as sp:
            ii = integrate(scenario.input)
            sp["counts"] = {"signals.samples": len(ii.values)}
        if cfg.mode == "free":
            with tracer.span("observability.gramian_free"):
                ok = gramian_free(ii).observable
        else:
            with tracer.span("observability.gramian_current"):
                ok = gramian_current(ii).observable
            with tracer.span("observability.g11"):
                g11_condition(ii)
        return (cli.EXIT_OK if ok else cli.EXIT_NOT_OBSERVABLE), ""

    def check(self, i, result):
        return exit_code_problems(result[0], self.expected[i % DESIGN_POOL])


WORKLOADS = {w.name: w for w in (ReproduceCurrent, MonteCarloFree,
                                 EstimateTraceCurrent, DesignSweep)}
