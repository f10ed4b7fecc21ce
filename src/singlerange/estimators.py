"""Derived linear outputs and the range-only Kalman filter of both models.

The squared-range measurement y is never filtered directly. Combining it
with its value at an anchor instant and the running input integral gives a
scalar that is exactly linear in the state:

* drift-free, regression on the initial position ("free_x0"):
      ybar = (y - y0 - ||I||^2) / 2  =  I^T x0
* drift-free, output on the current position ("free_xt"):
      ybar = (y - y0 + ||I||^2) / 2  =  I^T x(t)
* unknown constant current ("current"):
      ybar = y - y0 + ||I||^2  =  [-2 I^T, -2t, t^2, 0] z(t)

with I and t measured from the anchor. Each model is an LTI state equation
x <- F x + G u with this LTV scalar output, so one filter loop and one
predict/update (kf_step) serve both; run_free_filter (F = G = I,
"free_xt") and run_current_filter (F = exp(A ts), G = ts B, "current" on
z = (r, r0.v_f, ||v_f||^2, v_f)) only build their models. The update uses
the information-form gain K = (P^-1 + C^T R^-1 C)^-1 C^T R^-1 evaluated
via Cholesky (LAPACK dpotrf/dpotrs); a covariance that is not finite or not
positive definite raises instead of being silently regularized. A
Joseph-form update is available.

Because every ybar form is an exact identity at any anchor, the anchor
measurement y0 can be replaced mid-run ("re-anchoring") to shed the
influence of an early outlier while the state estimate keeps its own
update dynamics.
"""

from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from singlerange.observability import drift_matrices, exp_At, output_row_current

SYMMETRY_TOL = 1e-10

OUTPUT_MODES = ("free_x0", "free_xt", "current")


class CovarianceError(RuntimeError):
    """Covariance matrix lost symmetry or positive definiteness."""

    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")
        self.step = step


def derived_output(mode, y, y_anchor, i_k, t_k):
    """Scalar linear output from a squared-range sample.

    i_k and t_k are the input integral and time measured from the anchor
    instant; y_anchor is the measurement taken there.
    """
    sq = float(np.dot(i_k, i_k))
    if mode == "free_x0":
        return 0.5 * (y - y_anchor - sq)
    if mode == "free_xt":
        return 0.5 * (y - y_anchor + sq)
    if mode == "current":
        return y - y_anchor + sq
    raise ValueError(f"unknown output mode {mode!r}")


@dataclass(frozen=True)
class DerivedOutput:
    """Anchored output map: fixed mode plus the current anchor sample."""

    mode: str
    y_anchor: float
    t_anchor: float
    i_anchor: np.ndarray  # raw input integral at the anchor instant

    def __post_init__(self):
        if self.mode not in OUTPUT_MODES:
            raise ValueError(f"unknown output mode {self.mode!r}")
        object.__setattr__(
            self, "i_anchor", np.asarray(self.i_anchor, dtype=float)
        )

    def relative(self, i_raw, t):
        """(integral, time) measured from the anchor."""
        return i_raw - self.i_anchor, t - self.t_anchor

    def value(self, y, i_raw, t):
        i_rel, t_rel = self.relative(i_raw, t)
        return derived_output(self.mode, y, self.y_anchor, i_rel, t_rel)

    def row(self, i_raw, t):
        """Measurement row for the filter state (3- or 8-vector)."""
        i_rel, t_rel = self.relative(i_raw, t)
        if self.mode == "current":
            return output_row_current(i_rel, t_rel)
        return i_rel


@dataclass(frozen=True)
class FilterState:
    """Estimate vector with covariance at step k.

    P must stay symmetric positive definite; the filter steps verify this
    where they factorize it and raise CovarianceError on failure.
    """

    xhat: np.ndarray
    P: np.ndarray
    k: int = 0

    def __post_init__(self):
        xhat = np.asarray(self.xhat, dtype=float)
        P = np.asarray(self.P, dtype=float)
        d = xhat.shape[0]
        if P.shape != (d, d):
            raise ValueError(f"P shape {P.shape} does not match state dim {d}")
        object.__setattr__(self, "xhat", xhat)
        object.__setattr__(self, "P", P)


def _as_cov(q, d):
    q = np.asarray(q, dtype=float)
    if q.ndim == 0:
        return q * np.eye(d)
    if q.ndim == 1:
        if q.shape[0] != d:
            raise ValueError(f"expected {d} variances, got {q.shape[0]}")
        return np.diag(q)
    if q.shape != (d, d):
        raise ValueError(f"covariance shape {q.shape} does not match dim {d}")
    return q


def _check_symmetry(P, step):
    defect = np.abs(P - P.T).max()
    if defect > SYMMETRY_TOL * max(np.abs(P).max(), 1e-300):
        raise CovarianceError(step, f"covariance asymmetry {defect:.3e}")
    return 0.5 * (P + P.T)


@cache
def _identity(d):
    """Read-only d x d identity, the right-hand side of both inverses."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _cholesky(a, step):
    """Lower Cholesky factor, exactly as cho_factor(a, lower=True) gives."""
    factor, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        minor = f"{info}-th leading minor of the array"
        raise CovarianceError(step, "covariance not positive definite "
                              f"({minor} is not positive definite)")
    return factor


def _information_update(P, c, r, step, joseph):
    """Scalar-measurement update; returns (gain, posterior covariance).

    r = inf encodes an uninformative measurement (R^-1 = 0): zero gain.
    """
    d = len(c)
    if np.isinf(r):
        return np.zeros(d), P.copy()
    if not np.isfinite(P).all():
        raise CovarianceError(step, "covariance not finite")
    eye = _identity(d)
    if joseph:
        s = float(c @ P @ c) + r
        if s <= 0.0:
            raise CovarianceError(step, f"innovation variance {s:.3e} <= 0")
        K = (P @ c) / s
        ikc = eye - np.outer(K, c)
        post = ikc @ P @ ikc.T + r * np.outer(K, K)
        return K, 0.5 * (post + post.T)
    p_inv = dpotrs(_cholesky(P, step), eye, lower=1)[0]
    m = p_inv + np.outer(c, c) / r
    m = 0.5 * (m + m.T)
    if not np.isfinite(m).all():
        raise CovarianceError(step, "information matrix not finite")
    factor_m = _cholesky(m, step)
    K = dpotrs(factor_m, c / r, lower=1)[0]
    post = dpotrs(factor_m, eye, lower=1)[0]
    return K, 0.5 * (post + post.T)


def kf_step(state, F, gu, c, ybar, q, r, joseph_update=False):
    """One predict/update cycle of the linear filter shared by both models.

    Predicts x <- F x + gu and P <- F P F^T + q (q the d x d process-noise
    covariance), then updates with the scalar output ybar = c x. Returns
    the posterior FilterState and the innovation ybar - c x_pred.
    """
    step = state.k + 1
    x_pred = F @ state.xhat + gu
    p_pred = _check_symmetry(F @ state.P @ F.T + q, step)
    K, p_post = _information_update(p_pred, c, r, step, joseph_update)
    innovation = ybar - c @ x_pred
    return FilterState(x_pred + K * innovation, p_post, step), innovation


def reanchor(anchor, y_new, t_new, i_raw_new, state=None):
    """Move the output anchor to a fresh measurement.

    Returns the updated (DerivedOutput, FilterState). The derived output
    behaves as if measurement had started at the new instant. In "current"
    mode the state component r0.v_f refers to r at the anchor, so it is
    re-expressed from the current estimates (first-order covariance
    propagation); the other components keep their meaning.
    """
    new_anchor = DerivedOutput(
        mode=anchor.mode,
        y_anchor=float(y_new),
        t_anchor=float(t_new),
        i_anchor=np.asarray(i_raw_new, dtype=float),
    )
    if state is None or anchor.mode != "current":
        return new_anchor, state
    z = state.xhat.copy()
    r_hat, vf_hat = z[0:3], z[5:8]
    jac = np.eye(8)
    jac[3, 0:3] = vf_hat
    jac[3, 3] = 0.0
    jac[3, 5:8] = r_hat
    z[3] = r_hat @ vf_hat
    p_new = jac @ state.P @ jac.T
    p_new = 0.5 * (p_new + p_new.T)
    # The remap makes the anchored-product component an exact function of
    # the others, so jac is singular; a machine-scale variance floor keeps
    # the covariance factorizable even under zero process noise.
    p_new[3, 3] += 1e-12 * (1.0 + np.trace(p_new))
    return new_anchor, FilterState(z, p_new, state.k)


def truth_z(trace, v_f):
    """Ground-truth augmented state sequence assembled from a trace."""
    if trace.r is None:
        raise ValueError("truth_z requires a current-model trace (r present)")
    v_f = np.asarray(v_f, dtype=float)
    n = len(trace.y)
    z = np.zeros((n, 8))
    z[:, 0:3] = trace.r
    z[:, 3] = trace.r[0] @ v_f
    z[:, 4] = v_f @ v_f
    z[:, 5:8] = v_f
    return z


@dataclass(frozen=True)
class FilterRun:
    """Trajectory of a filter over a trace, with truth-referenced errors."""

    mode: str
    t: np.ndarray
    state_estimates: np.ndarray   # (n+1, 3) or (n+1, 8)
    pos_estimates: np.ndarray     # (n+1, 3) position estimate in both modes
    err_norm: np.ndarray          # ||position estimate - true position||
    trace_p: np.ndarray           # trace of the covariance
    innovations: np.ndarray       # ybar - C xhat_pred (0 at k=0)
    final_state: FilterState
    vf_estimates: np.ndarray = None   # (n+1, 3), 8-state filter only
    vf_err: np.ndarray = None         # ||vf estimate - true vf||


def _run_filter(mode, output_mode, trace, integral, F, G, u, z0, p0, q, r,
                position, joseph_update, reanchor_every):
    """The recursion both filters share; u[k] drives the step to k + 1.

    position maps the (n+1, d) state estimates to (n+1, 3) positions.
    """
    y, t, ii = trace.y, trace.times, integral.values
    n = len(y) - 1
    d = len(z0)
    q = _as_cov(q, d)
    gu = u @ G.T
    state = FilterState(z0, _as_cov(p0, d), 0)
    anchor = DerivedOutput(output_mode, y[0], t[0], ii[0])
    est = np.zeros((n + 1, d))
    tr_p = np.zeros(n + 1)
    innov = np.zeros(n + 1)
    est[0] = state.xhat
    tr_p[0] = np.trace(state.P)
    for k in range(1, n + 1):
        c = anchor.row(ii[k], t[k])
        ybar = anchor.value(y[k], ii[k], t[k])
        state, innov[k] = kf_step(state, F, gu[k - 1], c, ybar, q, r,
                                  joseph_update)
        est[k] = state.xhat
        tr_p[k] = np.trace(state.P)
        if reanchor_every and k % reanchor_every == 0:
            anchor, state = reanchor(anchor, y[k], t[k], ii[k], state)
    pos = position(est)
    # Per-row dot products, as norm(row) takes; norm(axis=1) rounds otherwise.
    e = pos - trace.x
    err = np.sqrt((e[:, None, :] @ e[:, :, None])[:, 0, 0])
    return FilterRun(
        mode=mode, t=t, state_estimates=est, pos_estimates=pos,
        err_norm=err, trace_p=tr_p, innovations=innov, final_state=state,
    )


def run_free_filter(trace, integral, x0_hat, p0, q, r, *,
                    joseph_update=False, reanchor_every=0):
    """Run the 3-state filter over a measured drift-free trace."""
    eye = np.eye(3)
    return _run_filter(
        "free", "free_xt", trace, integral, eye, eye,
        np.diff(integral.values, axis=0), np.asarray(x0_hat, dtype=float),
        p0, q, r, lambda est: est, joseph_update, reanchor_every,
    )


def run_current_filter(trace, integral, x0_hat, vf_hat, p0, q, r, s, *,
                       v_f_true=None, joseph_update=False, reanchor_every=0):
    """Run the 8-state filter over a measured constant-current trace.

    The filter is initialized from a position guess x0_hat and current
    guess vf_hat; the anchored-product and speed-squared components are
    filled in consistently from those guesses.
    """
    s = np.asarray(s, dtype=float)
    ts = trace.ts
    r0_hat = s - np.asarray(x0_hat, dtype=float)
    vf_hat = np.asarray(vf_hat, dtype=float)
    z0 = np.concatenate([r0_hat, [r0_hat @ vf_hat], [vf_hat @ vf_hat], vf_hat])
    _, B = drift_matrices()
    run = _run_filter(
        "current", "current", trace, integral, exp_At(ts), ts * B,
        np.diff(integral.values, axis=0) / ts, z0, p0, q, r,
        lambda est: s - est[:, 0:3], joseph_update, reanchor_every,
    )
    vf_est = run.state_estimates[:, 5:8]
    vf_err = None
    if v_f_true is not None:
        vf_err = np.linalg.norm(vf_est - np.asarray(v_f_true, dtype=float),
                                axis=1)
    return replace(run, vf_estimates=vf_est, vf_err=vf_err)
