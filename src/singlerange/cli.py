"""Command line front end.

Subcommands:
    simulate       run the truth simulator on scenario config(s)
    observability  rank/eigenvalue report for a scenario's input
    estimate       run the Kalman filter on a scenario (or a trace CSV)
    reproduce      run a bundled reference experiment (free | current)

Exit codes: 0 success (and observable), 2 configuration error,
3 not observable, 4 numerical failure in the filter.
"""

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import singlerange
from singlerange.config import (
    ConfigError,
    builtin_current_config,
    builtin_free_config,
    config_hash,
    load_config,
)
from singlerange.estimators import (
    CovarianceError,
    run_current_filter,
    run_free_filter,
)
from singlerange.observability import (
    default_rank_tol,
    g11_condition,
    gramian_current,
    gramian_free,
)
from singlerange.runio import (
    RunManifest,
    read_trace_csv,
    write_error_csv,
    write_estimate_csv,
    write_trace_csv,
)
from singlerange.signals import integrate
from singlerange.truthsim import propagate_current, propagate_free

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_OBSERVABLE = 3
EXIT_NUMERICAL = 4


def _propagate(cfg, seed=None):
    """Truth trace and input integral from one scenario build."""
    scenario = cfg.scenario(seed=seed)
    propagate = propagate_free if cfg.mode == "free" else propagate_current
    return propagate(scenario), integrate(scenario.input)


def _manifest(cfg, seed, artifacts, t_start):
    return RunManifest(
        config_hash=config_hash(cfg),
        seed=seed,
        artifacts=[str(a) for a in artifacts],
        tool_version=singlerange.__version__,
        duration_s=time.time() - t_start,
    )


def _simulate_one(config_path, out_dir, seed_override):
    t_start = time.time()
    cfg = load_config(config_path)
    seed = cfg.seed if seed_override is None else seed_override
    trace, _ = _propagate(cfg, seed=seed)
    stem = Path(config_path).stem
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{stem}_trace.csv"
    write_trace_csv(trace_path, trace)
    manifest_path = out / f"{stem}_manifest.json"
    _manifest(cfg, seed, [trace_path], t_start).write(manifest_path)
    return str(trace_path)


def cmd_simulate(args):
    if args.jobs > 1 and len(args.config) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_simulate_one, path, args.out, args.seed)
                for path in args.config
            ]
            paths = [f.result() for f in futures]
    else:
        paths = [_simulate_one(path, args.out, args.seed)
                 for path in args.config]
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _spectrum_lines(label, report, dim):
    verdict = "OBSERVABLE" if report.observable else "NOT OBSERVABLE"
    lines = [
        f"{label}: rank {report.numerical_rank}/{dim}",
        f"  eigenvalues: "
        + " ".join(f"{v:.6e}" for v in report.eigenvalues[::-1]),
        f"  condition number: {report.condition_number:.6e}",
        f"  rank tolerance: {report.tolerance_used:.6e}",
        f"  verdict: {verdict} (rank {report.numerical_rank}/{dim})",
    ]
    return lines, report.observable


def cmd_observability(args):
    cfg = load_config(args.config)
    scenario = cfg.scenario(seed=args.seed)
    ii = integrate(scenario.input)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    def save(name, matrix):
        if out_dir:
            np.savetxt(out_dir / name, matrix, delimiter=",", fmt="%.17g")

    if cfg.mode == "free":
        hth = ii.values.T @ ii.values
        diag = np.diag(hth)
        off = np.abs(hth - np.diag(diag)).max()
        ratio = off / diag.min() if diag.min() > 0 else np.inf
        sv = np.linalg.svd(ii.values, compute_uv=False)
        cond_h = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        tol_h = (default_rank_tol(sv, len(ii.values))
                 if args.rank_tol is None else args.rank_tol)
        rank_h = int(np.sum(sv > tol_h))
        print(f"regression matrix H ({len(ii.values)}x3): rank {rank_h}/3")
        print("  singular values: " + " ".join(f"{v:.6e}" for v in sv))
        print(f"  condition number: {cond_h:.6e}")
        print(f"  normal-matrix off-diagonal ratio: {ratio:.6e}")
        report = gramian_free(ii, rank_tol=args.rank_tol)
        lines, ok = _spectrum_lines("integral Gramian G (3x3)", report, 3)
        print("\n".join(lines))
        save("gramian_free.csv", report.G)
        verdict = "OBSERVABLE" if ok else "NOT OBSERVABLE"
        print(f"{verdict} (rank {report.numerical_rank}/3)")
        return EXIT_OK if ok else EXIT_NOT_OBSERVABLE

    full = gramian_current(ii, rank_tol=args.rank_tol)
    lines, ok = _spectrum_lines("augmented-state Gramian (8x8)", full, 8)
    print("\n".join(lines))
    g11 = g11_condition(ii, rank_tol=args.rank_tol)
    lines11, ok11 = _spectrum_lines(
        "necessary-condition block G11 (3x3)", g11, 3)
    print("\n".join(lines11))
    save("gramian_full.csv", full.G)
    save("gramian_g11.csv", g11.G)
    verdict = "OBSERVABLE" if ok else "NOT OBSERVABLE"
    print(f"{verdict} (rank {full.numerical_rank}/8)")
    return EXIT_OK if ok else EXIT_NOT_OBSERVABLE


def _run_filter(cfg, trace, ii, reanchor_every=None, joseph=None):
    """Filter trace with cfg's filter section; ii is the input integral."""
    fc = cfg.filter
    if fc is None:
        raise ConfigError("filter", "required for estimation")
    reanchor_every = (fc.reanchor_every if reanchor_every is None
                      else reanchor_every)
    joseph = fc.joseph_update if joseph is None else joseph
    if cfg.mode == "free":
        return run_free_filter(
            trace, ii, np.array(fc.x0_hat), np.array(fc.p0_diag),
            np.array(fc.q_diag), fc.r,
            joseph_update=joseph, reanchor_every=reanchor_every,
        )
    return run_current_filter(
        trace, ii, np.array(fc.x0_hat), np.array(fc.vf_hat),
        np.array(fc.p0_diag), np.array(fc.q_diag), fc.r, np.array(cfg.s),
        v_f_true=np.array(cfg.v_f),
        joseph_update=joseph, reanchor_every=reanchor_every,
    )


def _estimate_one(config_path, out_dir, seed_override, trace_path,
                  reanchor_every, joseph):
    t_start = time.time()
    cfg = load_config(config_path)
    seed = cfg.seed if seed_override is None else seed_override
    if trace_path:
        trace = read_trace_csv(trace_path)
        if abs(trace.ts - cfg.ts) > 1e-9 * cfg.ts:
            raise ConfigError(
                "ts", f"config has {cfg.ts!r}, trace has {float(trace.ts)!r}")
        if len(trace.y) != cfg.steps + 1:
            raise ConfigError(
                "steps",
                f"config expects {cfg.steps + 1} samples, "
                f"trace has {len(trace.y)}")
        ii = integrate(cfg.scenario().input)
    else:
        trace, ii = _propagate(cfg, seed=seed)
    run = _run_filter(cfg, trace, ii, reanchor_every=reanchor_every,
                      joseph=joseph)
    stem = Path(config_path).stem
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    est_path = out / f"{stem}_estimate.csv"
    write_estimate_csv(est_path, run)
    manifest_path = out / f"{stem}_estimate_manifest.json"
    _manifest(cfg, seed, [est_path], t_start).write(manifest_path)
    summary = f"{stem}: final position error {run.err_norm[-1]:.6g} m"
    if run.vf_estimates is not None:
        summary += (", final current estimate norm "
                    f"{np.linalg.norm(run.vf_estimates[-1]):.6g} m/s")
    return str(est_path), summary


def cmd_estimate(args):
    jobs = [(path, args.out, args.seed, args.trace, args.reanchor_every,
             args.joseph_update) for path in args.config]
    if args.trace and len(args.config) > 1:
        raise ConfigError("config", "--trace requires a single config")
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = [f.result()
                       for f in [pool.submit(_estimate_one, *j) for j in jobs]]
    else:
        results = [_estimate_one(*j) for j in jobs]
    for path, summary in results:
        print(f"wrote {path}")
        print(summary)
    return EXIT_OK


def cmd_reproduce(args):
    t_start = time.time()
    cfg = (builtin_free_config() if args.experiment == "free"
           else builtin_current_config())
    seed = cfg.seed if args.seed is None else args.seed
    trace, ii = _propagate(cfg, seed=seed)
    run = _run_filter(cfg, trace, ii, reanchor_every=args.reanchor_every,
                      joseph=args.joseph_update)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = args.experiment
    truth_path = out / f"{stem}_truth.csv"
    est_path = out / f"{stem}_estimate.csv"
    err_path = out / f"{stem}_error.csv"
    write_trace_csv(truth_path, trace)
    write_estimate_csv(est_path, run)
    write_error_csv(err_path, run)
    manifest_path = out / f"{stem}_manifest.json"
    _manifest(cfg, seed, [truth_path, est_path, err_path],
              t_start).write(manifest_path)
    print(f"wrote {truth_path}")
    print(f"wrote {est_path}")
    print(f"wrote {err_path}")
    print(f"initial position error: {run.err_norm[0]:.6g} m")
    print(f"final position error:   {run.err_norm[-1]:.6g} m")
    if run.vf_estimates is not None:
        print("final current estimate norm: "
              f"{np.linalg.norm(run.vf_estimates[-1]):.6g} m/s")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="singlerange",
        description="Range-only 3D localization: simulation, observability "
                    "analysis, and Kalman estimation.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {singlerange.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the truth simulator")
    sim.add_argument("--config", required=True, nargs="+",
                     help="scenario YAML file(s)")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for multiple configs")
    sim.set_defaults(func=cmd_simulate)

    obs = sub.add_parser("observability",
                         help="rank report for a scenario's input")
    obs.add_argument("--config", required=True, help="scenario YAML file")
    obs.add_argument("--seed", type=int, default=None)
    obs.add_argument("--rank-tol", type=float, default=None,
                     help="override the SVD rank tolerance")
    obs.add_argument("--out", default=None,
                     help="directory for Gramian CSV dumps")
    obs.set_defaults(func=cmd_observability)

    est = sub.add_parser("estimate", help="run the Kalman filter")
    est.add_argument("--config", required=True, nargs="+",
                     help="scenario YAML file(s) with a filter section")
    est.add_argument("--trace", default=None,
                     help="trace CSV to consume instead of simulating")
    est.add_argument("--seed", type=int, default=None)
    est.add_argument("--out", default=".", help="output directory")
    est.add_argument("--jobs", type=int, default=1)
    est.add_argument("--reanchor-every", type=int, default=None,
                     help="re-anchor the derived output every K steps")
    est.add_argument("--joseph-update", action="store_true", default=None,
                     help="use the Joseph covariance update")
    est.set_defaults(func=cmd_estimate)

    rep = sub.add_parser("reproduce", help="run a reference experiment")
    rep.add_argument("experiment", choices=["free", "current"])
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--out", default=".", help="output directory")
    rep.add_argument("--reanchor-every", type=int, default=None)
    rep.add_argument("--joseph-update", action="store_true", default=None)
    rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CovarianceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
