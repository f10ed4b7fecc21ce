"""Acceptance suite: one test per shipping criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or
`-rA`) and asserts the criterion at its stated tolerance. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np

from helpers import max_rel, smooth_signal
from singlerange.cli import main
from singlerange.observability import (
    build_regression,
    drift_matrices,
    exp_At,
    gramian_current,
    gramian_free,
    mu_free,
    solve_ls,
)
from singlerange.signals import (
    SampledSignal,
    SinusoidInput,
    integrate,
    literature_profile,
)
from singlerange.truthsim import (
    ScenarioConfig,
    propagate_current,
    propagate_free,
)


def criterion(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_drift_free_reproduction(bundled_run):
    # the shared session run; its elapsed time covers config to filter
    bundled = bundled_run("free")
    run, elapsed = bundled.run, bundled.elapsed
    initial = run.err_norm[0]
    final = run.err_norm[-1]
    halfway = run.err_norm[len(run.err_norm) // 2]
    ok = (abs(initial - 100.0 * math.sqrt(3)) < 1e-6
          and final <= 5.0
          and final < halfway
          and elapsed < 30.0)
    criterion(1, "drift-free reproduction", ok,
              f"initial {initial:.1f} m, final {final:.3f} m <= 5 m, "
              f"halfway {halfway:.3f} m, runtime {elapsed:.1f} s < 30 s")


def test_criterion_02_current_reproduction(bundled_run):
    # the shared session run; its elapsed time covers config to filter
    bundled = bundled_run("current")
    trace, run, elapsed = bundled.trace, bundled.run, bundled.elapsed
    duration = trace.times[-1]
    final_pos = run.err_norm[-1]
    final_vf = float(np.linalg.norm(run.vf_estimates[-1]))
    ok = (abs(duration - 30.0) < 1e-9
          and final_pos <= 0.5
          and final_vf <= 0.05
          and elapsed < 60.0)
    criterion(2, "current-case reproduction", ok,
              f"30 s run, final position error {final_pos:.4f} m <= 0.5 m, "
              f"final current norm {final_vf:.4f} m/s <= 0.05 m/s, "
              f"runtime {elapsed:.1f} s < 60 s")


def test_criterion_03_discrete_continuous_equivalence():
    rng = np.random.default_rng(101)
    disagreements = 0
    counts = {1: 0, 2: 0, 3: 0}
    for trial in range(50):
        dim = int(rng.integers(1, 4))
        counts[dim] += 1
        sig, _ = smooth_signal(rng, 0.02, 400, dim=dim)
        ii = integrate(sig)
        sv = np.linalg.svd(ii.values, compute_uv=False)
        tol = max(ii.values.shape) * np.finfo(float).eps * sv[0]
        rank_h = int(np.sum(sv > tol))
        rank_g = gramian_free(ii).numerical_rank
        if (rank_h == 3) != (rank_g == 3):
            disagreements += 1
    ok = disagreements == 0 and min(counts.values()) > 0
    criterion(3, "regression/Gramian rank equivalence", ok,
              f"{disagreements} disagreements over 50 inputs, "
              f"rank mix {counts}")


def test_criterion_04_noiseless_identifiability_oracle():
    rng = np.random.default_rng(202)
    worst_ls = worst_gram = worst_agree = 0.0
    for trial in range(20):
        sig, _ = smooth_signal(rng, 0.02, 800, dim=3,
                               scale=float(rng.uniform(0.5, 2.0)))
        x0 = rng.uniform(5.0, 50.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        cfg = ScenarioConfig(x0=x0, ts=0.02, steps=800, input=sig)
        trace = propagate_free(cfg)
        ii = integrate(cfg.input)
        system = build_regression(trace, ii)
        ls = solve_ls(system)
        assert ls.identifiable
        gram = gramian_free(ii)
        x0_g = np.linalg.solve(gram.G, mu_free(ii, system.ybar))
        worst_ls = max(worst_ls, max_rel(ls.x0, x0))
        worst_gram = max(worst_gram, max_rel(x0_g, x0))
        worst_agree = max(worst_agree, max_rel(ls.x0, x0_g))
    ok = worst_ls <= 1e-6 and worst_gram <= 1e-6 and worst_agree <= 1e-6
    criterion(4, "noiseless identifiability oracle", ok,
              f"worst rel errors: LS {worst_ls:.2e}, Gramian {worst_gram:.2e}, "
              f"agreement {worst_agree:.2e}, all <= 1e-6")


def test_criterion_05_indistinguishability():
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(10):
        dim = int(rng.integers(1, 3))
        sig, basis = smooth_signal(rng, 0.02, 400, dim=dim)
        nu_dir = basis[:, 2]
        c = float(rng.uniform(0.5, 3.0))
        nu = c * nu_dir
        # equal squared range at t=0 requires x0 . nu = -||nu||^2 / 2
        x0 = (basis[:, :dim] @ rng.normal(scale=5.0, size=dim)
              - 0.5 * c * nu_dir)
        ya = propagate_free(ScenarioConfig(x0=x0, ts=0.02, steps=400,
                                           input=sig)).y
        yb = propagate_free(ScenarioConfig(x0=x0 + nu, ts=0.02, steps=400,
                                           input=sig)).y
        worst = max(worst, max_rel(ya, yb))
    ok = worst <= 1e-9
    criterion(5, "kernel shifts are output-indistinguishable", ok,
              f"worst rel output deviation {worst:.2e} <= 1e-9")


def test_criterion_06_nilpotency_and_exponential():
    A, _ = drift_matrices()
    nilpotent = bool(np.all(A @ A == 0.0))
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        t, s = rng.uniform(-10.0, 10.0, size=2)
        dev = np.abs(exp_At(t) @ exp_At(s) - exp_At(t + s)).max()
        worst = max(worst, dev)
    ok = nilpotent and worst <= 1e-14
    criterion(6, "nilpotent transition matrix", ok,
              f"A@A == 0: {nilpotent}, worst semigroup deviation "
              f"{worst:.2e} <= 1e-14")


def test_criterion_07_current_gramian_structure():
    rng = np.random.default_rng(505)
    planar_ok = True
    detail = []
    for trial in range(5):
        sig, basis = smooth_signal(rng, 0.01, 600, dim=2)
        ii = integrate(sig)
        report = gramian_current(ii)
        nu = basis[:, 2]
        alpha, beta = rng.normal(size=2)
        z_star = np.concatenate([alpha * nu, [0.0, 0.0], beta * nu])
        quad = abs(z_star @ report.G @ z_star)
        bound = 1e-9 * np.abs(report.eigenvalues).max() * (z_star @ z_star)
        planar_ok &= report.numerical_rank < 8 and quad <= bound
    ts = 1.0 / 750.0
    steps = int(round(4 * np.pi / ts))
    lit = gramian_current(integrate(
        SampledSignal.from_function(literature_profile, ts, steps)))
    ok = planar_ok and lit.numerical_rank == 8
    criterion(7, "8-state Gramian structure", ok,
              f"planar inputs rank-deficient with kernel quadratic form "
              f"below 1e-9*||G||: {planar_ok}; benchmark profile rank "
              f"{lit.numerical_rank}/8")


def test_criterion_08_diagonal_regression():
    ts = 0.01
    sig = SinusoidInput.from_max_speed(0.5, np.array([1, 2, 3]), 0.01 * math.pi)
    n0 = int(round(sig.base_period / ts))
    H = integrate(SampledSignal.from_function(sig, ts, n0)).values
    hth = H.T @ H
    diag = np.diag(hth)
    off = np.abs(hth - np.diag(diag)).max()
    ratio = off / diag.min()
    ok = ratio <= 1e-2
    criterion(8, "diagonal regression over a full period", ok,
              f"off-diagonal / min diagonal = {ratio:.2e} <= 1e-2")


def test_criterion_09_derived_output_identities():
    free_cfg = ScenarioConfig(
        x0=np.array([25.0, 25.0, 25.0]), ts=0.01, steps=5000,
        input=SinusoidInput.from_max_speed(0.5, np.array([1, 2, 3]),
                                           0.01 * math.pi))
    trace = propagate_free(free_cfg)
    ii = integrate(free_cfg.input).values
    ybar = 0.5 * (trace.y - trace.y[0] + np.einsum("ij,ij->i", ii, ii))
    rel_free = max_rel(ybar, np.einsum("ij,ij->i", ii, trace.x))

    cur_cfg = ScenarioConfig(
        x0=np.array([2.0, 2.0, 0.0]), ts=1 / 750.0, steps=5000,
        input=literature_profile, s=np.array([2.0, 3.0, 1.0]),
        v_f=np.array([0.1, -0.05, 0.02]))
    cur = propagate_current(cur_cfg)
    iic = integrate(cur_cfg.input).values
    t = cur.times
    lhs = cur.y - cur.y[0] + np.einsum("ij,ij->i", iic, iic)
    rhs = (-2.0 * np.einsum("ij,ij->i", iic, cur.r)
           - 2.0 * (cur.r[0] @ cur_cfg.v_f) * t
           + (cur_cfg.v_f @ cur_cfg.v_f) * t**2)
    rel_cur = max_rel(lhs, rhs)
    ok = rel_free <= 1e-9 and rel_cur <= 1e-6
    criterion(9, "derived-output identities", ok,
              f"drift-free identity {rel_free:.2e} <= 1e-9, "
              f"current identity {rel_cur:.2e} <= 1e-6")


def test_criterion_10_determinism(tmp_path, reference_output):
    # the shared `reproduce free` run against a second run in this process
    out_a = reference_output("free")
    out_b = tmp_path / "b"
    assert main(["reproduce", "free", "--out", str(out_b)]) == 0
    names = ["free_truth.csv", "free_estimate.csv", "free_error.csv"]
    same = all((out_a / n).read_bytes() == (out_b / n).read_bytes()
               for n in names)
    criterion(10, "byte-identical reruns", same,
              f"{names} identical across two runs: {same}")
