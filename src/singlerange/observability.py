"""Identifiability and observability analysis for both range-only models.

Everything here is built on the running input integral I(t): the initial
position is identifiable exactly when the rows I(t_k) span R^3, which can
be checked either on the discrete regression matrix H (rows I(t_k)) or on
the integral Gramian G(t) = int_0^t I I^T dtau. With an unknown constant
current the state is 8-dimensional; because the drift system matrix A is
nilpotent (A^2 = 0) its transition matrix is exactly I + A*t and the 8x8
Gramian has the closed-form integrand row [-2 I^T, -2 tau, tau^2, 2 tau I^T].
The 3x3 upper block (4x the drift-free Gramian) being full rank is necessary
but not sufficient for the 8-state model.
"""

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# discrete regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionSystem:
    """Linear system H x0 = ybar with H rows equal to the input integral."""

    H: np.ndarray      # (n, 3), row k is I(t_k)
    ybar: np.ndarray   # (n,)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        ybar = np.asarray(self.ybar, dtype=float)
        if H.ndim != 2 or H.shape[1] != 3 or H.shape[0] < 1:
            raise ValueError(f"H must have shape (n, 3), n >= 1, got {H.shape}")
        if ybar.shape != (H.shape[0],):
            raise ValueError(
                f"ybar length {ybar.shape} does not match H rows {H.shape[0]}"
            )
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "ybar", ybar)


def build_regression(trace, integral):
    """Initial-position regression from a measured trace.

    ybar[k] = (y_k - y_0 - ||I_k||^2) / 2 equals I_k^T x0 on noiseless
    drift-free data; H stacks the integral samples.
    """
    if abs(trace.ts - integral.ts) > 1e-12 * trace.ts:
        raise ValueError(
            f"trace ts {trace.ts} does not match integral ts {integral.ts}"
        )
    if len(trace.y) != len(integral.values):
        raise ValueError(
            f"trace has {len(trace.y)} samples, integral {len(integral.values)}"
        )
    ii = integral.values
    ybar = 0.5 * (trace.y - trace.y[0] - np.einsum("ij,ij->i", ii, ii))
    return RegressionSystem(H=ii.copy(), ybar=ybar)


def rank_tolerance(singular_values, n_rows, rank_tol):
    """The rank cutoff in use: rank_tol, or max(dims) * eps * sigma_max.

    A negative or non-finite rank_tol would reverse the rank verdict
    (-1 counts every zero singular value, nan counts none), so it raises.
    """
    if rank_tol is None:
        if len(singular_values) == 0 or singular_values[0] == 0.0:
            return 0.0
        return (max(n_rows, len(singular_values)) * np.finfo(float).eps
                * singular_values[0])
    if not (np.isfinite(rank_tol) and rank_tol >= 0.0):
        raise ValueError(f"rank_tol must be finite and >= 0, got {rank_tol!r}")
    return rank_tol


def _spectrum(sv, n_rows, rank_tol):
    """(tolerance, numerical rank, sv[0] / sv[-1]) of descending values."""
    tol = rank_tolerance(sv, n_rows, rank_tol)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    return tol, int(np.sum(sv > tol)), cond


def regression_rank(H, rank_tol=None):
    """(singular values, tolerance, rank, condition number) of H.

    The singular values come without U and V (compute_uv=False), so they
    can differ in the last bit from the ones solve_ls factors H into.
    """
    sv = np.linalg.svd(H, compute_uv=False)
    return (sv, *_spectrum(sv, len(H), rank_tol))


@dataclass(frozen=True)
class LsResult:
    """Outcome of the regression solve.

    x0 is the least-squares estimate when the numerical rank is 3;
    otherwise x0 is None and kernel holds an orthonormal basis (columns)
    of the unidentifiable subspace.
    """

    x0: np.ndarray
    rank: int
    kernel: np.ndarray
    singular_values: np.ndarray
    condition_number: float
    tolerance_used: float

    @property
    def identifiable(self):
        return self.rank == 3


def solve_ls(system, rank_tol=None):
    """Solve H x0 = ybar by orthogonal factorization (SVD)."""
    H, ybar = system.H, system.ybar
    n = H.shape[0]
    if n < 3:
        raise ValueError(
            f"at least 3 samples are required to identify a 3D position, got {n}"
        )
    U, sv, Vt = np.linalg.svd(H, full_matrices=False)
    tol, rank, cond = _spectrum(sv, n, rank_tol)
    if rank < 3:
        return LsResult(
            x0=None, rank=rank, kernel=Vt[rank:].T.copy(),
            singular_values=sv, condition_number=cond, tolerance_used=tol,
        )
    return LsResult(
        x0=Vt.T @ ((U.T @ ybar) / sv), rank=3, kernel=None,
        singular_values=sv, condition_number=cond, tolerance_used=tol,
    )


# ---------------------------------------------------------------------------
# integral Gramians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramianReport:
    """Gramian matrix with its spectral diagnostics and rank verdict."""

    G: np.ndarray
    eigenvalues: np.ndarray      # ascending
    numerical_rank: int
    condition_number: float      # inf when rank-deficient
    observable: bool
    tolerance_used: float

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        sym_defect = np.abs(G - G.T).max()
        if sym_defect > 1e-12 * max(1.0, np.abs(G).max()):
            raise ValueError(f"Gramian not symmetric: defect {sym_defect:.3e}")
        ev = np.asarray(self.eigenvalues, dtype=float)
        if len(ev) and ev[0] < -1e-10 * max(np.abs(ev).max(), 1e-300):
            raise ValueError(
                f"Gramian has significantly negative eigenvalue {ev[0]:.3e}"
            )


def _trapezoid_weights(n, ts):
    w = np.full(n, ts)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _information(rows, ts):
    """Trapezoid rule for int row row^T dtau over rows sampled every ts."""
    w = _trapezoid_weights(len(rows), ts)
    G = (rows * w[:, None]).T @ rows
    return 0.5 * (G + G.T)


def _report(G, n_samples, rank_tol):
    """Eigen-report of G; observable means full rank."""
    ev = np.linalg.eigvalsh(G)
    sv = ev[::-1].copy()
    tol, rank, cond = _spectrum(sv, n_samples, rank_tol)
    full = rank == len(sv)
    return GramianReport(
        G=G, eigenvalues=ev, numerical_rank=rank,
        condition_number=cond if full else np.inf, observable=full,
        tolerance_used=tol,
    )


def _maybe_truncate(integral, t_end):
    return integral if t_end is None else integral.truncated(t_end)


def gramian_free(integral, t_end=None, rank_tol=None):
    """Drift-free observability Gramian int_0^t I I^T dtau (trapezoid rule).

    observable means numerical rank 3: the initial position is identifiable
    from data on [0, t_end] if and only if this holds.
    """
    ii = _maybe_truncate(integral, t_end).values
    return _report(_information(ii, integral.ts), len(ii), rank_tol)


def mu_free(integral, ybar, t_end=None):
    """Right-hand side vector int_0^t I(tau) ybar(tau) dtau.

    Uses the same quadrature weights as gramian_free, so on noiseless data
    solving G x = mu reproduces the initial position exactly (up to
    conditioning) independent of the grid resolution.
    """
    ii = _maybe_truncate(integral, t_end).values
    ybar = np.asarray(ybar, dtype=float)[: len(ii)]
    if len(ybar) != len(ii):
        raise ValueError("ybar shorter than the integral trace")
    w = _trapezoid_weights(len(ii), integral.ts)
    return (ii * (w * ybar)[:, None]).sum(axis=0)


# ---------------------------------------------------------------------------
# 8-state model with unknown constant current
# ---------------------------------------------------------------------------

def drift_matrices():
    """State matrices (A, B) of the augmented current model.

    State layout: z = (r, r0 . v_f, ||v_f||^2, v_f); dynamics
    dr/dt = -v_f - v_r, all other components constant. A is nilpotent:
    A @ A == 0 exactly.
    """
    A = np.zeros((8, 8))
    A[0:3, 5:8] = -np.eye(3)
    B = np.zeros((8, 3))
    B[0:3, 0:3] = -np.eye(3)
    return A, B


def exp_At(t):
    """Transition matrix of the augmented model: exactly I + A*t."""
    A, _ = drift_matrices()
    return np.eye(8) + A * t


def output_row_current(i_k, t_k):
    """Measurement row on z: [-2 I^T, -2 t, t^2, 0, 0, 0]."""
    i_k = np.asarray(i_k, dtype=float)
    return np.concatenate([-2.0 * i_k, [-2.0 * t_k, t_k * t_k], np.zeros(3)])


def transition_output_rows(integral):
    """Rows C(t_k) exp(A t_k) = [-2 I^T, -2 t, t^2, 2 t I^T] for all k."""
    ii = integral.values
    t = integral.times
    rows = np.empty((len(t), 8))
    np.multiply(-2.0, ii, out=rows[:, 0:3])
    np.multiply(-2.0, t, out=rows[:, 3])
    np.multiply(t, t, out=rows[:, 4])
    np.multiply(2.0 * t[:, None], ii, out=rows[:, 5:8])
    return rows


def gramian_current(vr_integral, t_end=None, rank_tol=None):
    """Full 8x8 observability Gramian of the constant-current model.

    Accumulates the outer products of C(tau) exp(A tau) by the trapezoid
    rule; observable means numerical rank 8.
    """
    rows = transition_output_rows(_maybe_truncate(vr_integral, t_end))
    return _report(_information(rows, vr_integral.ts), len(rows), rank_tol)


def g11_condition(vr_integral, t_end=None, rank_tol=None):
    """Necessary-condition block 4 * int I I^T dtau of the 8x8 Gramian.

    observable here means the necessary condition holds (rank 3); it does
    not by itself imply the full model is observable.
    """
    ii = _maybe_truncate(vr_integral, t_end).values
    return _report(4.0 * _information(ii, vr_integral.ts), len(ii), rank_tol)
