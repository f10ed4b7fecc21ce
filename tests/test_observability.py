import numpy as np
import pytest

from helpers import max_rel, random_basis, smooth_signal
from singlerange.observability import (
    GramianReport,
    RegressionSystem,
    build_regression,
    drift_matrices,
    exp_At,
    g11_condition,
    gramian_current,
    gramian_free,
    mu_free,
    solve_ls,
    transition_output_rows,
)
from singlerange.signals import SampledSignal, SinusoidInput, integrate
from singlerange.truthsim import ScenarioConfig, propagate_free


def reference_sinusoid():
    return SinusoidInput.from_max_speed(0.5, np.array([1, 2, 3]), 0.01 * np.pi)


def free_scenario(x0, input_spec, ts, steps, seed=0):
    return ScenarioConfig(x0=np.asarray(x0, dtype=float), ts=ts, steps=steps,
                          input=input_spec, seed=seed)


def noiseless_regression(cfg):
    trace = propagate_free(cfg)
    ii = integrate(cfg.input)
    return build_regression(trace, ii), ii, trace


class TestBuildRegression:
    def test_row_zero_is_trivial(self):
        cfg = free_scenario([3.0, 1.0, 2.0], reference_sinusoid(), 0.01, 50)
        system, _, _ = noiseless_regression(cfg)
        assert system.ybar[0] == 0.0
        assert np.all(system.H[0] == 0.0)

    def test_stationary_agent_gives_zero_system(self):
        cfg = free_scenario([1.0, 1.0, 1.0],
                            SampledSignal(0.1, np.zeros((21, 3))), 0.1, 20)
        system, _, _ = noiseless_regression(cfg)
        assert np.all(system.H == 0.0)
        assert np.all(system.ybar == 0.0)

    def test_hand_computed_first_step(self):
        # x0=(1,0,0), u=(1,0,0), ts=1: I_1=(1,0,0), x_1=(2,0,0),
        # y_1=4, y_0=1, so ybar_1 = (4 - 1 - 1)/2 = 1 = I_1 . x0
        cfg = free_scenario([1.0, 0.0, 0.0],
                            SampledSignal(1.0, np.tile([1.0, 0, 0], (3, 1))),
                            1.0, 2)
        system, _, _ = noiseless_regression(cfg)
        assert system.ybar[1] == 1.0
        assert np.array_equal(system.H[1], [1.0, 0.0, 0.0])

    def test_length_mismatch_rejected(self):
        cfg = free_scenario([1.0, 0.0, 0.0], reference_sinusoid(), 0.01, 50)
        trace = propagate_free(cfg)
        short = integrate(free_scenario([1.0, 0.0, 0.0], reference_sinusoid(),
                                        0.01, 49).input)
        with pytest.raises(ValueError, match="samples"):
            build_regression(trace, short)


class TestSolveLs:
    def test_recovers_initial_position(self):
        cfg = free_scenario([25.0, 25.0, 25.0], reference_sinusoid(),
                            0.01, 2000)
        system, _, _ = noiseless_regression(cfg)
        result = solve_ls(system)
        assert result.identifiable
        assert np.abs(result.x0 - 25.0).max() < 1e-6

    def test_single_axis_excitation_has_plane_kernel(self):
        cfg = free_scenario([1.0, 2.0, 3.0],
                            SampledSignal(0.1, np.tile([1.0, 0, 0], (51, 1))),
                            0.1, 50)
        system, _, _ = noiseless_regression(cfg)
        result = solve_ls(system)
        assert result.rank == 1
        assert result.x0 is None
        assert result.kernel.shape == (3, 2)
        # kernel spans e2, e3: projection onto e1 vanishes
        assert np.abs(result.kernel[0, :]).max() < 1e-12

    def test_identity_regression(self):
        H = np.vstack([np.eye(3), np.zeros((2, 3))])
        ybar = np.array([1.0, 2.0, 3.0, 0.0, 0.0])
        result = solve_ls(RegressionSystem(H, ybar))
        assert np.allclose(result.x0, [1.0, 2.0, 3.0])

    def test_too_few_samples_rejected(self):
        system = RegressionSystem(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError, match="3 samples"):
            solve_ls(system)

    def test_normal_equation_route_agrees(self):
        cfg = free_scenario([5.0, -3.0, 2.0], reference_sinusoid(), 0.01, 1500)
        system, _, _ = noiseless_regression(cfg)
        svd_route = solve_ls(system).x0
        H, ybar = system.H, system.ybar
        normal_route = np.linalg.solve(H.T @ H, H.T @ ybar)
        assert np.allclose(svd_route, normal_route, rtol=1e-8, atol=1e-10)


class TestGramianFree:
    def test_zero_input_not_observable(self):
        ii = integrate(SampledSignal(0.1, np.zeros((100, 3))))
        report = gramian_free(ii)
        assert report.numerical_rank == 0
        assert not report.observable
        assert np.all(report.G == 0.0)

    def test_constant_input_rank_one(self):
        ii = integrate(SampledSignal(0.1, np.tile([1.0, 0, 0], (100, 1))))
        report = gramian_free(ii)
        assert report.numerical_rank == 1
        assert not report.observable

    def test_sinusoid_full_period_observable(self):
        sig = reference_sinusoid()
        ts = 0.01
        n0 = int(round(sig.base_period / ts))
        ii = integrate(SampledSignal.from_function(sig, ts, n0))
        report = gramian_free(ii)
        assert report.observable
        assert report.numerical_rank == 3

    def test_monotone_psd_in_time(self):
        rng = np.random.default_rng(2)
        sig, _ = smooth_signal(rng, 0.02, 600)
        ii = integrate(sig)
        g1 = gramian_free(ii, t_end=5.0).G
        g2 = gramian_free(ii, t_end=11.0).G
        diff = g2 - g1
        assert np.linalg.eigvalsh(diff)[0] >= -1e-9 * np.trace(g2)

    def test_report_validates_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            GramianReport(G=np.array([[1.0, 2.0], [0.0, 1.0]]),
                          eigenvalues=np.array([1.0, 1.0]),
                          numerical_rank=2, condition_number=1.0,
                          observable=True, tolerance_used=0.0)


class TestMuFree:
    def test_zero_cases(self):
        ii = integrate(SampledSignal(0.1, np.zeros((50, 3))))
        assert np.all(mu_free(ii, np.zeros(50)) == 0.0)
        ii2 = integrate(SampledSignal(0.1, np.random.default_rng(0)
                                      .normal(size=(50, 3))))
        assert np.all(mu_free(ii2, np.zeros(50)) == 0.0)

    def test_gramian_solve_recovers_initial_position(self):
        cfg = free_scenario([25.0, 25.0, 25.0], reference_sinusoid(),
                            0.01, 3000)
        system, ii, _ = noiseless_regression(cfg)
        report = gramian_free(ii)
        mu = mu_free(ii, system.ybar)
        x0 = np.linalg.solve(report.G, mu)
        assert np.abs(x0 / 25.0 - 1.0).max() < 1e-6

    def test_discrete_and_continuous_routes_agree(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            sig, _ = smooth_signal(rng, 0.02, 800)
            x0 = rng.normal(scale=20.0, size=3)
            cfg = free_scenario(x0, sig, 0.02, 800)
            system, ii, _ = noiseless_regression(cfg)
            ls = solve_ls(system).x0
            report = gramian_free(ii)
            x0_g = np.linalg.solve(report.G, mu_free(ii, system.ybar))
            assert max_rel(ls, x0_g) < 1e-6


class TestExpAt:
    def test_identity_at_zero(self):
        assert np.array_equal(exp_At(0.0), np.eye(8))

    def test_nilpotent(self):
        A, _ = drift_matrices()
        assert np.all(A @ A == 0.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t, s = rng.uniform(-100.0, 100.0, size=2)
            lhs = exp_At(t) @ exp_At(s)
            rhs = exp_At(t + s)
            assert np.abs(lhs - rhs).max() <= 1e-14 * max(1.0, abs(t), abs(s))


class TestGramianCurrent:
    def test_zero_velocity_rank_two_with_symbolic_block(self):
        # with I = 0 only the (-2tau, tau^2) pair survives; its Gramian is
        # [[4t^3/3, -t^4/2], [-t^4/2, t^5/5]] by direct integration, which
        # has determinant t^8/60 > 0, hence rank exactly 2
        ts, steps = 0.001, 2000
        ii = integrate(SampledSignal(ts, np.zeros((steps + 1, 3))))
        report = gramian_current(ii)
        assert report.numerical_rank == 2
        assert not report.observable
        t_end = ts * steps
        expected = np.array([
            [4.0 * t_end**3 / 3.0, -t_end**4 / 2.0],
            [-t_end**4 / 2.0, t_end**5 / 5.0],
        ])
        block = report.G[np.ix_([3, 4], [3, 4])]
        assert np.abs(block - expected).max() <= 1e-5 * np.abs(expected).max()
        mask = np.ones((8, 8), dtype=bool)
        mask[np.ix_([3, 4], [3, 4])] = False
        assert np.all(report.G[mask] == 0.0)

    def test_literature_profile_observable(self):
        from singlerange.signals import literature_profile
        ts = 1.0 / 750.0
        steps = int(round(4 * np.pi / ts))
        ii = integrate(SampledSignal.from_function(literature_profile,
                                                   ts, steps))
        report = gramian_current(ii)
        assert report.observable
        assert report.numerical_rank == 8

    def test_planar_excitation_kernel(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            sig, basis = smooth_signal(rng, 0.01, 800, dim=2)
            ii = integrate(sig)
            report = gramian_current(ii)
            assert report.numerical_rank < 8
            nu = basis[:, 2]
            alpha, beta = rng.normal(size=2)
            z_star = np.concatenate([alpha * nu, [0.0, 0.0], beta * nu])
            quad = z_star @ report.G @ z_star
            norm = np.abs(report.eigenvalues).max()
            assert abs(quad) <= 1e-9 * norm * (z_star @ z_star)


class TestG11Condition:
    def test_zero_velocity_rank_zero(self):
        ii = integrate(SampledSignal(0.01, np.zeros((100, 3))))
        assert g11_condition(ii).numerical_rank == 0

    def test_is_four_times_free_gramian(self):
        rng = np.random.default_rng(6)
        sig, _ = smooth_signal(rng, 0.02, 500)
        ii = integrate(sig)
        assert np.array_equal(g11_condition(ii).G, 4.0 * gramian_free(ii).G)

    def test_full_rank_implies_necessary_condition(self):
        # over 100 random smooth inputs: 8x8 rank 8 always comes with
        # G11 rank 3 (necessity direction)
        rng = np.random.default_rng(7)
        checked_full = 0
        for trial in range(100):
            dim = rng.integers(1, 4)
            sig, _ = smooth_signal(rng, 0.02, 300, dim=dim)
            ii = integrate(sig)
            full = gramian_current(ii)
            if full.numerical_rank == 8:
                checked_full += 1
                assert g11_condition(ii).numerical_rank == 3
        assert checked_full >= 20  # the suite must actually exercise rank 8


class TestStatementEquivalence:
    def test_discrete_and_continuous_rank_verdicts_agree(self):
        # rank(H) = 3 iff rank(G) = 3 over a mix of rank-1/2/3 excitations
        rng = np.random.default_rng(8)
        disagreements = 0
        seen = {1: 0, 2: 0, 3: 0}
        for trial in range(50):
            dim = int(rng.integers(1, 4))
            seen[dim] += 1
            sig, _ = smooth_signal(rng, 0.02, 400, dim=dim)
            ii = integrate(sig)
            sv = np.linalg.svd(ii.values, compute_uv=False)
            tol = max(ii.values.shape) * np.finfo(float).eps * sv[0]
            rank_h = int(np.sum(sv > tol))
            rank_g = gramian_free(ii).numerical_rank
            if (rank_h == 3) != (rank_g == 3):
                disagreements += 1
        assert disagreements == 0
        assert min(seen.values()) > 0

    def test_indistinguishable_initial_states(self):
        # for a kernel direction nu, x0 and x0+nu explain the same data;
        # with x0 . nu = -||nu||^2/2 even the raw squared range matches
        rng = np.random.default_rng(9)
        for trial in range(5):
            sig, basis = smooth_signal(rng, 0.02, 400, dim=2)
            nu_dir = basis[:, 2]
            c = rng.uniform(0.5, 3.0)
            nu = c * nu_dir
            x0_in_plane = basis[:, :2] @ rng.normal(scale=5.0, size=2)
            x0 = x0_in_plane - 0.5 * c * nu_dir
            cfg_a = free_scenario(x0, sig, 0.02, 400)
            cfg_b = free_scenario(x0 + nu, sig, 0.02, 400)
            ya = propagate_free(cfg_a).y
            yb = propagate_free(cfg_b).y
            assert max_rel(ya, yb) <= 1e-9


def test_transition_rows_match_matrix_exponential():
    rng = np.random.default_rng(10)
    sig, _ = smooth_signal(rng, 0.05, 100)
    ii = integrate(sig)
    rows = transition_output_rows(ii)
    from singlerange.observability import output_row_current
    for k in [0, 7, 50, 100]:
        t_k = ii.times[k]
        direct = output_row_current(ii.values[k], t_k) @ exp_At(t_k)
        assert np.allclose(rows[k], direct, rtol=1e-13, atol=1e-13)


def test_transition_rows_match_stacked_products():
    # the preallocated fill computes the same elementwise products as
    # stacking the four blocks, so the rows agree bit for bit
    rng = np.random.default_rng(11)
    sig, _ = smooth_signal(rng, 0.05, 300)
    ii = integrate(sig)
    t = ii.times
    stacked = np.hstack([-2.0 * ii.values, -2.0 * t[:, None],
                         (t * t)[:, None], 2.0 * t[:, None] * ii.values])
    assert np.array_equal(transition_output_rows(ii), stacked)


BAD_RANK_TOLS = [-1.0, np.nan, np.inf]


@pytest.mark.parametrize("rank_tol", BAD_RANK_TOLS)
def test_bad_rank_tol_rejected(rank_tol):
    # a negative tolerance counts zero singular values, nan counts none:
    # either would reverse the verdict, so every consumer raises
    sig, _ = smooth_signal(np.random.default_rng(4), 0.05, 200, dim=2)
    ii = integrate(sig)
    system = RegressionSystem(ii.values, np.zeros(len(ii.values)))
    for analyse in (lambda: solve_ls(system, rank_tol=rank_tol),
                    lambda: gramian_free(ii, rank_tol=rank_tol),
                    lambda: gramian_current(ii, rank_tol=rank_tol),
                    lambda: g11_condition(ii, rank_tol=rank_tol)):
        with pytest.raises(ValueError, match="rank_tol must be finite"):
            analyse()


def test_zero_rank_tol_accepted():
    sig, _ = smooth_signal(np.random.default_rng(4), 0.05, 200, dim=2)
    report = gramian_free(integrate(sig), rank_tol=0.0)
    assert report.tolerance_used == 0.0
