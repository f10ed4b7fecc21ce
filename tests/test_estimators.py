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
from singlerange.config import builtin_current_config, builtin_free_config
from singlerange.observability import drift_matrices, exp_At
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


@pytest.mark.parametrize("name", list(PINNED))
def test_bundled_runs_match_pinned_values(name):
    free = name == "free"
    cfg = builtin_free_config() if free else builtin_current_config()
    fc = cfg.filter
    scenario = cfg.scenario()
    ii = integrate(scenario.input)
    if free:
        run = run_free_filter(propagate_free(scenario), ii,
                              np.array(fc.x0_hat), np.array(fc.p0_diag),
                              np.array(fc.q_diag), fc.r)
    else:
        extra = {}
        if name == "current_joseph_reanchor":
            extra = dict(joseph_update=True, reanchor_every=750)
        run = run_current_filter(
            propagate_current(scenario), ii, np.array(fc.x0_hat),
            np.array(fc.vf_hat), np.array(fc.p0_diag), np.array(fc.q_diag),
            fc.r, np.array(cfg.s), v_f_true=np.array(cfg.v_f), **extra)
    for k, err, trace_p in PINNED[name]:
        assert run.err_norm[k] == pytest.approx(err, rel=1e-12, abs=0), k
        assert run.trace_p[k] == pytest.approx(trace_p, rel=1e-12, abs=0), k
