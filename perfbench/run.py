"""Run one benchmark workload on the checkout's own ``src`` and report it.

Run from the repository root:

    python3 perfbench/run.py --workload mc_free --seed 7 --seconds 30 --trace 0

``--trace 0`` times the operations untraced and reports the end-to-end
metrics declared in ``BENCHMARK.json``. ``--trace 1`` follows every
untraced operation with a replay of the same operation's public calls,
once without and once with the tracer, and reports the per-layer
metrics. Every operation is checked by its workload's gate outside the
timed region; a failed gate or an exception counts as a failed operation.

stdout holds the environment, a table of the metrics with their units
(per-layer seconds also as a share of the traced operation, ratios with
their base), and as its last line the JSON result. The result, the
environment, every operation's wall time and (traced) the spans are
written to ``.perfbench/results/`` when the run ends. Exit code 0 when
the run completed, 2 when the checkout has no ``src/singlerange``.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import NULL_TRACER, Tracer, layer_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        return (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _set_up_once(name, seed, work):
    """(workload, seconds) of one set-up into ``work``.

    A set-up imports the program (and the workload module) anew and then
    builds the workload's inputs, so work moved into import time or into
    input preparation shows in ``setup_s``.
    """
    shutil.rmtree(work, ignore_errors=True)
    for mod in [m for m in sys.modules
                if m == "workloads" or m.partition(".")[0] == "singlerange"]:
        del sys.modules[mod]
    start = time.perf_counter()
    workload = importlib.import_module("workloads").WORKLOADS[name](seed)
    workload.setup(work)
    return workload, time.perf_counter() - start


class SetUps:
    """``repeats`` timed set-ups spread evenly over the measured window.

    The first builds the workload the run measures. The others are timed
    between operations into a directory of their own and discarded. The
    machine's speed drifts over tens of seconds, so set-ups done together
    at the start would sample one short stretch of it; spread out, their
    median follows the same stretches as the operations. Third-party
    modules are imported once beforehand: their import is not the
    program's set-up.
    """

    def __init__(self, name, seed, work, repeats):
        for dep in ("numpy", "scipy.linalg", "yaml"):
            importlib.import_module(dep)
        self.name, self.seed, self.work = name, seed, work
        self.repeats = repeats
        self.workload, first = _set_up_once(name, seed, work / "run")
        self.times = [first]

    def catch_up(self, fraction):
        """Run the set-ups due once ``fraction`` of the window has passed."""
        due = 1 + math.floor(min(fraction, 1.0) * (self.repeats - 1))
        while len(self.times) < due:
            _, seconds = _set_up_once(self.name, self.seed,
                                      self.work / "setup")
            self.times.append(seconds)


def _attempt(fn, i):
    """(wall seconds, result, error text) of one operation."""
    start = time.perf_counter()
    try:
        result = fn(i)
    except Exception:  # an operation that raises is a failed operation
        return time.perf_counter() - start, None, traceback.format_exc(limit=4)
    return time.perf_counter() - start, result, None


def _traced(workload, tracer, i):
    tracer.op_id = i
    with tracer.span("op", workload=workload.name):
        return workload.replay(tracer, i)


def _variants(workload, tracer):
    """(label, function) of each timed variant of one operation.

    Untraced, only the operation as a user runs it. Traced, also the
    replay without a tracer (unless the operation already is that
    replay) and the replay with the tracer, so tracing cost and the CLI's
    own work are each a difference of two walls of the same calls.
    """
    variants = [("op", workload.run)]
    if tracer is not None:
        if workload.has_cli:
            variants.append(("replay",
                             lambda k: workload.replay(NULL_TRACER, k)))
        variants.append(("traced", lambda k: _traced(workload, tracer, k)))
    return variants


def measure(workload, seconds, tracer=None, between=None):
    """Run operations until ``seconds`` would be overrun.

    Starts another operation only while the median iteration so far still
    fits, and always completes at least one. With a tracer, each
    untraced operation is followed by its untraced and traced replays.
    ``between(fraction)``, when given, is called before each operation
    after the first and once at the end, with the share of the window
    that has passed; its time is outside every operation's wall. Returns
    the walls of each variant per operation, the attempted and failed
    counts and what each failed op got wrong.
    """
    variants = _variants(workload, tracer)
    walls = {label: {} for label, _ in variants}
    iteration, failures = [], []
    attempted = 0
    start_run = time.perf_counter()
    deadline = start_run + seconds
    i = 0
    while True:
        if i and between is not None:
            between((time.perf_counter() - start_run) / seconds)
        start = time.perf_counter()
        for label, fn in variants:
            wall, result, error = _attempt(fn, i)
            walls[label][i] = wall
            problems = [error] if error else workload.check(i, result)
            attempted += 1
            if problems:
                failures.append(f"op {i} {label}: " + "; ".join(problems))
                print(failures[-1], file=sys.stderr)
        iteration.append(time.perf_counter() - start)
        i += 1
        if time.perf_counter() + statistics.median(iteration) > deadline:
            break
    if between is not None:
        between(1.0)
    if tracer is not None and "replay" not in walls:
        walls["replay"] = walls["op"]
    return {"walls": walls, "attempted": attempted,
            "failed": len(failures), "failures": failures}


def end_to_end(run, setup_times):
    """End-to-end metrics of an untraced run.

    ``wall_s`` is the mean op wall. The shared machine alternates between
    faster and slower stretches lasting seconds to minutes; a median over
    ops follows whichever stretch holds most ops of the run, so it varies
    more from run to run than the mean does.
    """
    walls = list(run["walls"]["op"].values())
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(workload, run, declared, setup_times=None, tracer=None):
    """(JSON result, table lines) with exactly the declared metrics.

    Untraced runs report ``end_to_end``, traced runs ``per_layer``; a
    layer the workload never calls reads 0.
    """
    lines = [f"workload {workload.name}: {run['attempted']} ops attempted, "
             f"{run['failed']} failed "
             f"(fail_ratio {run['failed'] / run['attempted']:.6g})"]
    walls = sorted(run["walls"]["op"].values())
    if tracer is None:
        table, bases = end_to_end(run, setup_times), {}
        specs = declared["end_to_end"]
        tail = ""
        if len(walls) > 10:  # highest percentile with 10 samples beyond it
            tail = (f", p{100 * (len(walls) - 10) / len(walls):.4g} "
                    f"{walls[-11]:.6g} s")
        lines.append(f"  op wall median {statistics.median(walls):.6g} s"
                     f"{tail} over {len(walls)} ops")
        lines.append(f"  {workload.units / table['wall_s']:.6g} runs/s "
                     f"({workload.units} scenario run(s) per op / wall_s)")
    else:
        table, bases = layer_table(tracer.spans, run["walls"]["op"],
                                   run["walls"]["replay"])
        specs = declared["per_layer"]
        lines.append(f"  mean traced op wall {table['_op_wall_s']:.6g} s "
                     f"over {len(walls)} ops (base of each share)")
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        value = float(table.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        line = f"  {name:<40} {value:>14.6g} {unit}"
        if tracer is not None and unit == "s":
            line += f"  ({100 * value / table['_op_wall_s']:.1f}% of op)"
        if name in bases:
            line += f"  (base: {bases[name]})"
        lines.append(line)
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    return result, lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "singlerange" / "__init__.py").is_file():
        print(f"error: {SRC / 'singlerange'} not found; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before NumPy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    work = OUT / f"work-{os.getpid()}"
    try:
        setups = SetUps(args.workload, args.seed, work,
                        1 if args.trace else SETUP_REPEATS)
        tracer = Tracer() if args.trace else None
        run = measure(setups.workload, args.seconds, tracer, setups.catch_up)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result, lines = report(setups.workload, run, declared, setups.times,
                           tracer)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "result": result,
                   "setup_s": setups.times, "failures": run["failures"],
                   "op_walls_s": {label: [w[i] for i in sorted(w)]
                                  for label, w in run["walls"].items()}},
                  fh, indent=2)
        fh.write("\n")
    print("environment: " + json.dumps(env))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
