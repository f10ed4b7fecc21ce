"""Batch oracle for the filter: one banded least-squares solve per window.

The filter is the recursive solution of a linear-Gaussian least-squares
problem in x_0..x_n: the prior on x_0, a process term Q^-1 linking x_k-1
and x_k through F and G u, and c_k c_k^T / r for each measurement. Its
information matrix is block tridiagonal (lower bandwidth 2d - 1). The last
block of the solution is the filtered x_n, and the inverse of L_nn L_nn^T
(the last diagonal block of its Cholesky factor) is P_n, for any q > 0.

Model, rows and derived outputs are rebuilt here from the paper's formulas,
not taken from the package, so a wrong row, G or Q in the filter fails.

With q = 0 the problem collapses to x_0 alone, and the information the
filter accumulates is the discrete observability Gramian:

    inv(P_n) = Phi_n^-T (P0^-1 + sum_k rows_k rows_k^T / r) Phi_n^-1

with rows_k = C(t_k) exp(A t_k), k = 1..n, the package's
transition_output_rows, and Phi_n = exp(A t_n); in free mode Phi = I and
the rows are I_k. This ties the filter to the rows every Gramian is built
from.
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from helpers import NOISELESS_CURRENT_FILTER, current_setup, max_rel
from singlerange.estimators import run_free_filter
from singlerange.observability import exp_At, transition_output_rows


def window_problem(bundled):
    """(F, G u_k, rows c_k, ybar_k, z0, P0, Q, r) of a bundled run."""
    cfg, fc = bundled.cfg, bundled.cfg.filter
    y, t = bundled.trace.y, bundled.trace.times
    i_rel = bundled.integral.values - bundled.integral.values[0]
    t_rel = t - t[0]
    sq = np.einsum("ij,ij->i", i_rel, i_rel)
    di = np.diff(bundled.integral.values, axis=0)
    x0_hat = np.array(fc.x0_hat)
    if cfg.mode == "free":
        # x_k = x_k-1 + dI; ybar = (y - y0 + |I|^2) / 2 = I^T x
        F, gu, rows = np.eye(3), di, i_rel
        ybar = 0.5 * (y - y[0] + sq)
        z0 = x0_hat
    else:
        # z = (r, r0.v_f, |v_f|^2, v_f); dr/dt = -v_f - v_r;
        # ybar = y - y0 + |I|^2 = [-2 I^T, -2t, t^2, 0] z
        F = np.eye(8)
        F[0:3, 5:8] = -cfg.ts * np.eye(3)
        gu = np.zeros((len(di), 8))
        gu[:, 0:3] = -di
        rows = np.zeros((len(y), 8))
        rows[:, 0:3] = -2.0 * i_rel
        rows[:, 3] = -2.0 * t_rel
        rows[:, 4] = t_rel * t_rel
        ybar = y - y[0] + sq
        r0, vf = np.array(cfg.s) - x0_hat, np.array(fc.vf_hat)
        z0 = np.concatenate([r0, [r0 @ vf, vf @ vf], vf])
    return (F, gu, rows, ybar, z0, np.diag(fc.p0_diag), np.diag(fc.q_diag),
            fc.r)


def batch_solution(problem, steps):
    """Filtered (x, P) at k = steps from one banded solve over 0..steps."""
    F, gu, rows, ybar, z0, p0, q, r = problem
    d, m = len(z0), steps + 1
    w = np.linalg.inv(q)
    diag = np.zeros((m, d, d))
    rhs = np.zeros((m, d))
    diag[0] += np.linalg.inv(p0)
    rhs[0] += np.linalg.solve(p0, z0)
    diag[1:] += w + np.einsum("ki,kj->kij", rows[1:m], rows[1:m]) / r
    diag[:-1] += F.T @ w @ F
    rhs[1:] += gu[:steps] @ w.T + rows[1:m] * (ybar[1:m, None] / r)
    rhs[:-1] -= gu[:steps] @ (F.T @ w).T
    sub = -w @ F  # block (k, k-1) of the information matrix
    band = np.zeros((2 * d, m * d))  # band[i - j, j] = A[i, j], i >= j
    for col in range(d):
        for off in range(2 * d):
            row = col + off
            if row < d:
                band[off, col::d] = diag[:, row, col]
            elif row < 2 * d:
                band[off, col::d][:-1] = sub[row - d, col]
    factor = cholesky_banded(band, lower=True)
    x = cho_solve_banded((factor, True), rhs.ravel())[-d:]
    last = np.zeros((d, d))  # L_nn from the band of the last block
    for col in range(d):
        last[col:, col] = factor[:d - col, (m - 1) * d + col]
    return x, np.linalg.inv(last @ last.T)


@pytest.mark.parametrize("mode,seed", [("free", None), ("current", None),
                                       ("free", 7)])
def test_filter_matches_batch_solution(mode, seed, bundled_run):
    bundled = bundled_run(mode, seed)
    problem = window_problem(bundled)
    run = bundled.run
    n = len(run.err_norm) - 1
    x_n, p_n = batch_solution(problem, n)
    assert max_rel(run.final_state.xhat, x_n) < 1e-8
    assert max_rel(run.final_state.P, p_n) < 1e-8
    x_half, p_half = batch_solution(problem, n // 2)
    assert max_rel(run.state_estimates[n // 2], x_half) < 1e-8
    # Mid-run P is far above Q, and forming it from the banded information
    # loses more digits than the filter does: against a long-double
    # covariance recursion the batch trace is off by 2.5e-8 (free) and
    # 3e-9 (current) at n/2, the filter's by 1e-9 and 4e-12.
    assert run.trace_p[n // 2] == pytest.approx(np.trace(p_half), rel=1e-7)


def gramian_information(rows, phi_n, p0, r):
    """Phi_n^-T (P0^-1 + sum rows_k rows_k^T / r) Phi_n^-1."""
    phi_inv = np.linalg.inv(phi_n)
    return phi_inv.T @ (np.linalg.inv(p0) + rows.T @ rows / r) @ phi_inv


def test_zero_q_current_information_is_gramian_sum(noiseless_current_run):
    # measured 2.5e-10; the t^2 column of the rows scaled by 1 + 1e-7
    # gives 2e-7
    _, _, ii = current_setup(steps=22500)
    settings = NOISELESS_CURRENT_FILTER
    expected = gramian_information(
        transition_output_rows(ii)[1:], exp_At(ii.times[-1]),
        np.diag(settings["p0"]), settings["r"])
    got = np.linalg.inv(noiseless_current_run.final_state.P)
    assert max_rel(got, expected) < 1e-8


def test_zero_q_free_information_is_gramian_sum(bundled_run):
    # measured 3.2e-9; the filter's row scaled by 1 + 1e-7 gives 2e-7
    bundled = bundled_run("free")
    fc = bundled.cfg.filter
    run = run_free_filter(bundled.trace, bundled.integral,
                          np.array(fc.x0_hat), np.array(fc.p0_diag),
                          np.zeros(3), fc.r)
    expected = gramian_information(bundled.integral.values[1:], np.eye(3),
                                   np.diag(fc.p0_diag), fc.r)
    assert max_rel(np.linalg.inv(run.final_state.P), expected) < 1e-8
