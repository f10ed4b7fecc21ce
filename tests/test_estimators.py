import hashlib

import numpy as np
import pytest

from helpers import max_rel, smooth_signal
from singlerange.estimators import (
    CovarianceError,
    DerivedOutput,
    FilterState,
    derived_output,
    kf_step,
    output_row_current,
    reanchor,
    run_current_filter,
    run_free_filter,
    truth_z,
)
from singlerange.cli import main
from singlerange.config import builtin_current_config, dump_config
from singlerange.observability import drift_matrices, exp_At
from singlerange.runio import read_trace_csv
from singlerange.signals import SampledSignal, SinusoidInput, integrate
from singlerange.truthsim import (
    ScenarioConfig,
    TruthTrace,
    propagate_current,
    propagate_free,
    resolve_signal,
)


def reference_sinusoid():
    return SinusoidInput.from_max_speed(0.5, np.array([1, 2, 3]), 0.01 * np.pi)


def free_setup(steps=3000, x0=(25.0, 25.0, 25.0), seed=0):
    cfg = ScenarioConfig(x0=np.array(x0), ts=0.01, steps=steps,
                         input=reference_sinusoid(), seed=seed)
    trace = propagate_free(cfg)
    ii = integrate(resolve_signal(cfg))
    return cfg, trace, ii


def current_setup(steps=6000, v_f=(0.0, 0.0, 0.0), seed=0):
    cfg = ScenarioConfig(x0=np.array([2.0, 2.0, 0.0]), ts=1 / 750.0,
                         steps=steps, input="literature",
                         s=np.array([2.0, 3.0, 1.0]),
                         v_f=np.array(v_f), seed=seed)
    trace = propagate_current(cfg)
    ii = integrate(resolve_signal(cfg))
    return cfg, trace, ii


class TestDerivedOutput:
    def test_zero_at_anchor(self):
        for mode in ("free_x0", "free_xt", "current"):
            assert derived_output(mode, 7.5, 7.5, np.zeros(3), 0.0) == 0.0

    def test_free_output_tracks_position(self):
        _, trace, ii = free_setup(steps=500)
        anchor = DerivedOutput("free_xt", trace.y[0], 0.0, ii.values[0])
        t = trace.times
        ybar = np.array([anchor.value(trace.y[k], ii.values[k], t[k])
                         for k in range(len(t))])
        direct = np.einsum("ij,ij->i", ii.values, trace.x)
        assert max_rel(ybar, direct) <= 1e-9

    def test_current_output_matches_state_row(self):
        cfg, trace, ii = current_setup(steps=800, v_f=(0.05, -0.02, 0.01))
        anchor = DerivedOutput("current", trace.y[0], 0.0, ii.values[0])
        z = truth_z(trace, cfg.v_f)
        t = trace.times
        for k in [1, 100, 400, 800]:
            ybar = anchor.value(trace.y[k], ii.values[k], t[k])
            assert abs(ybar - anchor.row(ii.values[k], t[k]) @ z[k]) <= (
                1e-9 * max(abs(ybar), 1.0)
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            derived_output("squared", 1.0, 0.0, np.zeros(3), 0.0)


class TestOutputRowCurrent:
    def test_zero_at_start(self):
        assert np.all(output_row_current(np.zeros(3), 0.0) == 0.0)

    def test_direct_substitution(self):
        row = output_row_current(np.array([1.0, 0.0, 0.0]), 2.0)
        assert np.array_equal(row, [-2, 0, 0, -4, 4, 0, 0, 0])

    def test_row_through_transition_matrix(self):
        i_k = np.array([0.3, -1.2, 0.7])
        t_k = 1.7
        propagated = output_row_current(i_k, t_k) @ exp_At(t_k)
        expected = np.concatenate([-2 * i_k, [-2 * t_k, t_k**2], 2 * t_k * i_k])
        assert np.allclose(propagated, expected, rtol=1e-14, atol=1e-14)


class TestKfFreeStep:
    # the drift-free model: F = G = I, input the integral increment v
    def test_infinite_r_keeps_prediction(self):
        state = FilterState(np.array([1.0, 2.0, 3.0]), np.eye(3), 0)
        v = np.array([0.1, 0.0, -0.1])
        nxt, _ = kf_step(state, np.eye(3), v, np.array([1.0, 1.0, 1.0]), 5.0,
                         np.zeros((3, 3)), np.inf)
        assert np.allclose(nxt.xhat, state.xhat + v)
        assert np.array_equal(nxt.P, state.P)
        assert nxt.k == 1

    def test_zero_row_keeps_prediction(self):
        state = FilterState(np.array([1.0, 2.0, 3.0]), np.eye(3), 4)
        nxt, _ = kf_step(state, np.eye(3), np.zeros(3), np.zeros(3), 123.0,
                         np.zeros((3, 3)), 1.0)
        assert np.allclose(nxt.xhat, state.xhat)
        assert nxt.k == 5

    def test_asymmetric_covariance_rejected(self):
        P = np.eye(3)
        P[0, 1] = 0.3
        state = FilterState(np.zeros(3), P, 7)
        with pytest.raises(CovarianceError, match="asymmetry") as err:
            kf_step(state, np.eye(3), np.zeros(3), np.ones(3), 0.0,
                    np.zeros((3, 3)), 1.0)
        assert err.value.step == 8

    def test_definiteness_loss_reported_with_step(self):
        state = FilterState(np.zeros(3), np.zeros((3, 3)), 2)
        with pytest.raises(CovarianceError, match="positive definite") as err:
            kf_step(state, np.eye(3), np.zeros(3), np.ones(3), 0.0,
                    np.zeros((3, 3)), 1.0)
        assert err.value.step == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    @pytest.mark.parametrize("joseph", [False, True], ids=["info", "joseph"])
    def test_overflowing_covariance_reported_as_not_finite(self, joseph):
        # 1e308 + 1e308 overflows: the predicted covariance is infinite
        big = np.full(3, 1e308)
        state = FilterState(np.zeros(3), np.diag(big), 0)
        with pytest.raises(CovarianceError, match="covariance not finite") as err:
            kf_step(state, np.eye(3), np.zeros(3), np.ones(3), 0.0,
                    np.diag(big), 1.0, joseph_update=joseph)
        assert err.value.step == 1


class TestKfCurrentStep:
    def test_quiescent_state_is_invariant(self):
        # zero relative velocity, zero current estimate, uninformative
        # measurement: the estimate must not move
        _, B = drift_matrices()
        z = np.array([1.0, 2.0, 3.0, 0.4, 0.5, 0.0, 0.0, 0.0])
        state = FilterState(z, np.eye(8), 0)
        nxt, _ = kf_step(state, exp_At(0.01), 0.01 * B @ np.zeros(3),
                         output_row_current(np.ones(3), 1.0), 0.0,
                         np.zeros((8, 8)), np.inf)
        assert np.allclose(nxt.xhat, z)

    def test_innovations_vanish_on_noiseless_run(self):
        cfg, trace, ii = current_setup(steps=22500)
        run = run_current_filter(
            trace, ii, np.array([-30.0, 20.0, 30.0]),
            np.array([0.1, -0.1, 0.1]),
            p0=np.array([1e3, 1e3, 1e3, 1e2, 1e1, 1.0, 1.0, 1.0]),
            q=np.zeros(8), r=1.0, s=cfg.s, v_f_true=cfg.v_f)
        inn = np.abs(run.innovations)
        assert inn[-500:].max() < 1e-4 * inn.max()

    def test_gain_forms_agree(self):
        rng = np.random.default_rng(12)
        for dim in (3, 8):
            for _ in range(20):
                a = rng.normal(size=(dim, dim))
                P = a @ a.T + 0.1 * np.eye(dim)
                c = rng.normal(size=dim)
                r = float(rng.uniform(0.1, 10.0))
                k_std = P @ c / (c @ P @ c + r)
                m = np.linalg.inv(P) + np.outer(c, c) / r
                k_info = np.linalg.solve(m, c / r)
                assert max_rel(k_info, k_std) < 1e-8


class TestFilterConvergence:
    def test_free_noiseless_zero_q(self):
        _, trace, ii = free_setup(steps=20000)
        run = run_free_filter(trace, ii, np.array([125.0, 125.0, 125.0]),
                              p0=np.full(3, 1e4), q=np.zeros(3), r=1.0)
        assert run.err_norm[-1] <= 1e-3 * run.err_norm[0]

    def test_current_noiseless_zero_q(self):
        cfg, trace, ii = current_setup(steps=22500)
        run = run_current_filter(
            trace, ii, np.array([-30.0, 20.0, 30.0]),
            np.array([0.1, -0.1, 0.1]),
            p0=np.array([1e3, 1e3, 1e3, 1e2, 1e1, 1.0, 1.0, 1.0]),
            q=np.zeros(8), r=1.0, s=cfg.s, v_f_true=cfg.v_f)
        assert run.err_norm[-1] <= 1e-3 * run.err_norm[0]

    def test_joseph_update_matches_information_form(self):
        _, trace, ii = free_setup(steps=2000)
        from singlerange.truthsim import NoiseSpec, measure
        noisy = measure(trace, NoiseSpec(output_var=1.0), seed=21)
        kw = dict(p0=np.full(3, 1e4), q=np.full(3, 1e-4), r=1.0)
        info = run_free_filter(noisy, ii, np.array([125.0, 125.0, 125.0]),
                               **kw)
        joseph = run_free_filter(noisy, ii, np.array([125.0, 125.0, 125.0]),
                                 joseph_update=True, **kw)
        assert max_rel(info.state_estimates, joseph.state_estimates) < 1e-6

    def test_truth_z_obeys_discrete_dynamics(self):
        cfg, trace, ii = current_setup(steps=2000, v_f=(0.05, -0.02, 0.03))
        _, B = drift_matrices()
        z = truth_z(trace, cfg.v_f)
        u = resolve_signal(cfg).samples
        pred = z[:-1] @ exp_At(cfg.ts).T + u[1:] @ (cfg.ts * B).T
        scale = np.abs(z).max()
        assert np.abs(pred - z[1:]).max() <= 1e-12 * max(scale, 1.0)


class TestReanchor:
    def test_anchor_at_start_is_identity(self):
        _, trace, ii = free_setup(steps=100)
        anchor = DerivedOutput("free_xt", trace.y[0], 0.0, ii.values[0])
        state = FilterState(np.zeros(3), np.eye(3), 0)
        new_anchor, new_state = reanchor(anchor, trace.y[0], 0.0,
                                         ii.values[0], state)
        assert new_anchor.mode == anchor.mode
        assert new_anchor.y_anchor == anchor.y_anchor
        assert new_anchor.t_anchor == anchor.t_anchor
        assert np.array_equal(new_anchor.i_anchor, anchor.i_anchor)
        assert new_state is state

    def test_every_step_reanchoring_fixed_at_truth_free(self):
        _, trace, ii = free_setup(steps=3000)
        kw = dict(p0=np.full(3, 1e4), q=np.zeros(3), r=1.0)
        plain = run_free_filter(trace, ii, trace.x[0].copy(), **kw)
        anchored = run_free_filter(trace, ii, trace.x[0].copy(),
                                   reanchor_every=1, **kw)
        assert np.abs(plain.state_estimates
                      - anchored.state_estimates).max() <= 1e-8

    def test_every_step_reanchoring_fixed_at_truth_current(self):
        cfg, trace, ii = current_setup(steps=3000, v_f=(0.05, -0.02, 0.03))
        x0_hat = cfg.s - trace.r[0]
        kw = dict(p0=np.full(8, 10.0), q=np.zeros(8), r=1.0, s=cfg.s,
                  v_f_true=cfg.v_f)
        plain = run_current_filter(trace, ii, x0_hat, cfg.v_f, **kw)
        anchored = run_current_filter(trace, ii, x0_hat, cfg.v_f,
                                      reanchor_every=1, **kw)
        assert np.abs(plain.pos_estimates
                      - anchored.pos_estimates).max() <= 1e-8
        assert np.abs(plain.vf_estimates
                      - anchored.vf_estimates).max() <= 1e-8

    def test_reanchoring_sheds_anchor_outlier(self):
        # a corrupted first measurement biases the derived output forever;
        # re-anchoring on fresh data restores convergence
        _, trace, ii = free_setup(steps=20000)
        y_bad = trace.y.copy()
        y_bad[0] += 500.0
        bad = TruthTrace(ts=trace.ts, x=trace.x, y_clean=trace.y_clean,
                         y=y_bad)
        kw = dict(p0=np.full(3, 1e4), q=np.full(3, 1e-4), r=1.0)
        plain = run_free_filter(bad, ii, np.array([125.0, 125.0, 125.0]),
                                **kw)
        anchored = run_free_filter(bad, ii, np.array([125.0, 125.0, 125.0]),
                                   reanchor_every=10, **kw)
        assert anchored.err_norm[-1] < 5.0
        assert plain.err_norm[-2000:].min() > 20.0

    def test_periodic_reanchoring_still_converges_with_current(self):
        cfg, trace, ii = current_setup(steps=22500)
        run = run_current_filter(
            trace, ii, np.array([-30.0, 20.0, 30.0]),
            np.array([0.1, -0.1, 0.1]),
            p0=np.array([1e3, 1e3, 1e3, 1e2, 1e1, 1.0, 1.0, 1.0]),
            q=np.array([1e-2, 1e-2, 1e-2, 1e-6, 1e-8, 1e-4, 1e-4, 1e-4]),
            r=1.0, s=cfg.s, v_f_true=cfg.v_f, reanchor_every=7500)
        assert run.err_norm[-1] < 1.0
        assert run.vf_err[-1] < 0.1


# Byte digests of the reference CLI runs: argv (output directory added by
# the fixture) and the SHA-256 of every CSV the run writes. The filter and
# the CSV writer must keep every output byte, so any change of arithmetic,
# formatting or run composition fails here. "estimate_trace" re-reads the
# "current" run's truth CSV and must give the Joseph run's estimate bytes.
REFERENCE_RUNS = {
    "free": (["reproduce", "free"], {
        "free_truth.csv": "c4da13e9f8709d53b495aa47aba64a2ef18bfb7812e434d952979f6f1e3cef9b",
        "free_estimate.csv": "1729f3a029a342f5b5102f326ce0709b6d7ffff2d198d770f1bbb6721b141f06",
        "free_error.csv": "055e74f39739b8817b6d96967bd9845669fde60b0c2688b8b2b1cf01d8bf6392",
    }),
    "current": (["reproduce", "current"], {
        "current_truth.csv": "b123900563b7a158019666188286bf6ebe0cd003a7b48730910d8b7f6661602e",
        "current_estimate.csv": "31db83690882a6cca01614d408d452db25075d90420fef6514322433d5d7c346",
        "current_error.csv": "e14411adaab5d34c5f9775e8f26a8bed985c0b13f34e6097aa7211d061010c20",
    }),
    "free_joseph_reanchor": (
        ["reproduce", "free", "--joseph-update", "--reanchor-every", "100"], {
            "free_truth.csv": "c4da13e9f8709d53b495aa47aba64a2ef18bfb7812e434d952979f6f1e3cef9b",
            "free_estimate.csv": "01b4c961ec033fe319a51cbad738679d14d603346fa2ec087d28a41eab82c4bc",
            "free_error.csv": "c12a666380003ef14825d189a7034339f3e1cb85a7f61523ea35b940d3e351e0",
        }),
    "current_joseph_reanchor": (
        ["reproduce", "current", "--joseph-update", "--reanchor-every", "750"], {
            "current_truth.csv": "b123900563b7a158019666188286bf6ebe0cd003a7b48730910d8b7f6661602e",
            "current_estimate.csv": "3e76ee5d4a67ca48b4eb499019405f52fbe017e72829ebf9c730b13a3d36c544",
            "current_error.csv": "a152b7eb10ee597d47bad62c8998c2eb2c1e68a817b85ce90955184605a5fee3",
        }),
    "estimate_trace": (
        ["estimate", "--joseph-update", "--reanchor-every", "750"], {
            "current_estimate.csv": "3e76ee5d4a67ca48b4eb499019405f52fbe017e72829ebf9c730b13a3d36c544",
        }),
}


@pytest.fixture(scope="module")
def reference_output(tmp_path_factory):
    """Output directory of a reference CLI run; each run happens once."""
    done = {}

    def output(name):
        if name not in done:
            out = tmp_path_factory.mktemp(name)
            argv = REFERENCE_RUNS[name][0] + ["--out", str(out)]
            if name == "estimate_trace":
                config = out / "current.yaml"
                config.write_text(dump_config(builtin_current_config()))
                trace = output("current") / "current_truth.csv"
                argv += ["--config", str(config), "--trace", str(trace)]
            assert main(argv) == 0
            done[name] = out
        return done[name]

    return output


@pytest.mark.parametrize("name", list(REFERENCE_RUNS))
def test_reference_runs_match_pinned_digests(name, reference_output):
    out = reference_output(name)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.glob("*.csv")}
    assert written == REFERENCE_RUNS[name][1]


# err_norm and trace_p at k = n/4, n/2, n of the bundled runs, recorded with
# repr from the two-runner filters that the shared loop replaced. The loop
# must keep every output byte, so only round-off-free agreement passes.
PINNED = {
    "free": [
        (1250, 5.0336550220872525, 9450.401330466284),
        (2500, 3.097285452616211, 815.847668154873),
        (5000, 0.18261539394019882, 4.092167312240506),
    ],
    "current": [
        (5625, 1.4429768523477835, 163.8499412661972),
        (11250, 0.19764190618690702, 60.64222858149569),
        (22500, 0.032248179516801416, 45.82977764234933),
    ],
    "current_joseph_reanchor": [
        (5625, 0.46821122601923476, 60.31182582882002),
        (11250, 0.08395565664010654, 55.20555938400938),
        (22500, 0.019610493206347432, 49.52415798007524),
    ],
}


def estimate_columns(out, name):
    """{header name: column} of a reference run's estimate CSV."""
    path = out / f"{name.split('_')[0]}_estimate.csv"
    header = path.read_text().split("\n", 1)[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return dict(zip(header, data.T))


@pytest.mark.parametrize("name", list(PINNED))
def test_bundled_runs_match_pinned_values(name, reference_output):
    est = estimate_columns(reference_output(name), name)
    for k, err, trace_p in PINNED[name]:
        assert est["err_norm"][k] == pytest.approx(err, rel=1e-12, abs=0), k
        assert est["trace_P"][k] == pytest.approx(trace_p, rel=1e-12,
                                                  abs=0), k


@pytest.mark.parametrize("name", [n for n in REFERENCE_RUNS
                                  if n != "estimate_trace"])
def test_err_norm_equals_per_row_norm(name, reference_output):
    # err_norm is computed for all rows at once; it must equal the norm of
    # each row taken on its own, bit for bit
    out = reference_output(name)
    est = estimate_columns(out, name)
    mode = name.split("_")[0]
    truth = read_trace_csv(out / f"{mode}_truth.csv")
    xhat = np.column_stack([est[f"xhat{i}"] for i in (1, 2, 3)])
    pos = xhat if mode == "free" else np.array(builtin_current_config().s) - xhat
    expected = np.array([np.linalg.norm(e) for e in pos - truth.x])
    assert np.array_equal(est["err_norm"], expected)
