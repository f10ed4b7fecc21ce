"""Run every workload over several seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/sweep.py --runs 10 --out perfbench/baseline/seed.json

For each workload declared in ``BENCHMARK.json``, and for its
``run_seconds``, this runs ``run.py`` once per seed, untraced, one run
after another (each run is one process and is waited for), then once
traced. It prints every end-to-end metric by name and unit as the median
and quartiles over the seeds, with the quartile spread as a share of the
median next to the metric's bound, and then each workload's per-layer
table from its traced run. ``--out`` writes all of it as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    """(result dict, stdout lines before it, failed-op lines) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    failures = [f"seed {seed}: {line}" for line in proc.stderr.splitlines()
                if line.startswith("op ")]
    return json.loads(lines[-1]), lines[:-1], failures


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run of each workload")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    seconds = declared["run_seconds"]
    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in [w["name"] for w in declared["workloads"]]:
        outcomes = [run_once(workload, seed, seconds, 0) for seed in seeds]
        runs = [result for result, _, _ in outcomes]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "failures": [f for _, _, fails in outcomes for f in fails],
                 "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {entry['attempted']} ops, "
              f"{entry['failed']} failed")
        print("".join(f"  {line}\n" for line in entry["failures"]), end="")
        for spec in declared["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            entry["end_to_end"][spec["name"]] = {
                "unit": spec["unit"], "values": values, "median": median,
                "q1": q1, "q3": q3, "spread": share, "bound": spec["bound"]}
            flag = "" if share < spec["bound"] / 3 else "  <-- above bound/3"
            print(f"  {spec['name']:<16} median {median:<12.6g} {spec['unit']:<6}"
                  f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {share:7.2%}"
                  f" (bound {spec['bound']:.0%}){flag}")
        if not args.no_trace:
            traced, lines, failures = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {name: m["value"]
                                  for name, m in traced["metrics"].items()}
            entry["traced_failures"] = failures
            print("\n".join(line for line in lines
                            if not line.startswith("environment: ")))
            entry["environment"] = json.loads(
                lines[0].removeprefix("environment: "))
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
