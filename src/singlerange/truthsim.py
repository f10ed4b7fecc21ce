"""Ground-truth propagation and noisy squared-range measurement generation.

Two kinematic models share one discretization (first-order hold, right
endpoint, matching the integral recursion in :mod:`singlerange.signals`):

* drift-free: the agent at x(t) moves with commanded velocity u and
  measures y = ||x||^2 to a beacon at the origin;
* constant current: the agent moves with v_f + v_r (unknown constant
  current plus known relative velocity) and measures y = ||r||^2 where
  r = s - x points from the agent to a beacon at s.

The squared range is the canonical measurement channel. Additive Gaussian
noise can be applied either to the squared range directly or to the range
before squaring; real sensors report range, and the range option exposes
the non-Gaussianity that the squared-range idealization hides.
"""

from dataclasses import dataclass, field

import numpy as np

from singlerange.frames import as_vec3
from singlerange.signals import SampledSignal, integrate

# Distinct counter-based streams per noise channel so draws are
# reproducible given (seed, channel) regardless of call order.
_CHANNELS = {"output": 1, "state": 2}


def channel_rng(seed, channel):
    """Counter-based generator keyed by (seed, channel)."""
    key = np.array([np.uint64(seed), np.uint64(_CHANNELS[channel])])
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration for measurement and (optionally) state.

    output_var is the variance of the additive measurement noise: on the
    squared range [m^4] when apply_to == "squared_range", on the range
    [m^2] when apply_to == "range". state_var holds per-component variances
    of an additive random walk on the kinematic state; it is injected only
    when inject_state_noise is set (reference truth runs are deterministic).
    """

    output_var: float = 0.0
    apply_to: str = "squared_range"
    state_var: np.ndarray = field(default_factory=lambda: np.zeros(3))
    inject_state_noise: bool = False

    def __post_init__(self):
        if self.output_var < 0.0:
            raise ValueError(f"output_var must be >= 0, got {self.output_var}")
        if self.apply_to not in ("squared_range", "range"):
            raise ValueError(
                f"apply_to must be 'squared_range' or 'range', got {self.apply_to!r}"
            )
        sv = np.asarray(self.state_var, dtype=float)
        if np.any(sv < 0.0):
            raise ValueError("state_var entries must be >= 0")
        object.__setattr__(self, "state_var", sv)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: initial condition, input, noise, seed.

    input, a SampledSignal with the scenario's ts or a function of t, is
    sampled here, once: afterwards it is a SampledSignal of steps + 1 rows.
    """

    x0: np.ndarray                       # initial position [m]
    ts: float                            # sampling period [s]
    steps: int                           # number of steps (samples = steps+1)
    input: SampledSignal                 # velocity signal (u or v_r)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    s: np.ndarray = field(default_factory=lambda: np.zeros(3))    # beacon [m]
    v_f: np.ndarray = field(default_factory=lambda: np.zeros(3))  # current [m/s]

    def __post_init__(self):
        if not self.ts > 0.0:
            raise ValueError(f"ts must be positive, got {self.ts}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        object.__setattr__(self, "x0", as_vec3(self.x0, "x0"))
        object.__setattr__(self, "s", as_vec3(self.s, "s"))
        object.__setattr__(self, "v_f", as_vec3(self.v_f, "v_f"))
        signal = self.input
        if callable(signal):
            signal = SampledSignal.from_function(signal, self.ts, self.steps)
        elif not isinstance(signal, SampledSignal):
            raise TypeError("input must be a SampledSignal or a function of "
                            f"t, got {type(signal).__name__}")
        elif abs(signal.ts - self.ts) > 1e-12 * self.ts:
            raise ValueError(
                f"input ts {signal.ts} does not match scenario ts {self.ts}"
            )
        elif len(signal.samples) < self.steps + 1:
            raise ValueError(
                f"input provides {len(signal.samples)} samples, "
                f"scenario needs {self.steps + 1}"
            )
        object.__setattr__(self, "input", SampledSignal(
            self.ts, signal.samples[: self.steps + 1]))


@dataclass(frozen=True)
class TruthTrace:
    """Simulated ground truth plus measurements.

    y_clean[k] is exactly ||x_k||^2 (drift-free) or ||r_k||^2 (current
    model); y adds the configured measurement noise. r is None for
    drift-free runs. clamped counts range-mode draws that went negative
    and were clamped to zero.
    """

    ts: float
    x: np.ndarray                 # (n+1, 3)
    y_clean: np.ndarray           # (n+1,)
    y: np.ndarray                 # (n+1,)
    r: np.ndarray = None          # (n+1, 3) in current mode
    clamped: int = 0

    @property
    def times(self):
        return self.ts * np.arange(len(self.y))

    @property
    def mode(self):
        return "free" if self.r is None else "current"


def _apply_output_noise(y_clean, noise, seed):
    """Return (y, clamped_count) for the configured measurement channel."""
    if noise.output_var == 0.0:
        return y_clean.copy(), 0
    rng = channel_rng(seed, "output")
    draw = rng.normal(0.0, np.sqrt(noise.output_var), len(y_clean))
    if noise.apply_to == "squared_range":
        return y_clean + draw, 0
    rng_meas = np.sqrt(y_clean) + draw
    clamped = int(np.sum(rng_meas < 0.0))
    np.maximum(rng_meas, 0.0, out=rng_meas)
    return rng_meas**2, clamped


def measure(trace, noise, seed):
    """Re-measure a trace under a new noise spec and seed."""
    y, clamped = _apply_output_noise(trace.y_clean, noise, seed)
    return TruthTrace(
        ts=trace.ts, x=trace.x, y_clean=trace.y_clean, y=y, r=trace.r,
        clamped=clamped,
    )


def _state_noise(cfg, n):
    if not (cfg.noise.inject_state_noise and np.any(cfg.noise.state_var > 0.0)):
        return None
    rng = channel_rng(cfg.seed, "state")
    sv = cfg.noise.state_var
    if sv.shape != (3,):
        raise ValueError(
            f"state_var must have 3 entries for truth propagation, got {sv.shape}"
        )
    return rng.normal(0.0, 1.0, (n, 3)) * np.sqrt(sv)


def propagate_free(cfg):
    """Drift-free truth: x_k = x0 + I_k, y = ||x||^2 plus output noise."""
    if np.any(cfg.v_f != 0.0):
        raise ValueError("propagate_free requires v_f = 0; use propagate_current")
    ii = integrate(cfg.input)
    x = cfg.x0 + ii.values
    w = _state_noise(cfg, cfg.steps)
    if w is not None:
        x = x + np.vstack([np.zeros(3), np.cumsum(w, axis=0)])
    y_clean = np.einsum("ij,ij->i", x, x)
    y, clamped = _apply_output_noise(y_clean, cfg.noise, cfg.seed)
    return TruthTrace(ts=cfg.ts, x=x, y_clean=y_clean, y=y, clamped=clamped)


def propagate_current(cfg):
    """Constant-current truth: r_{k+1} = r_k - ts*(v_f + v_r(t_{k+1})).

    The recursion makes r_k = r0 - v_f*t_k - I_k hold exactly, so the
    derived linear output identities are exact on noiseless traces.
    """
    ii = integrate(cfg.input)
    t = ii.times
    r0 = cfg.s - cfg.x0
    r = r0 - np.outer(t, cfg.v_f) - ii.values
    w = _state_noise(cfg, cfg.steps)
    if w is not None:
        r = r + np.vstack([np.zeros(3), np.cumsum(w, axis=0)])
    x = cfg.s - r
    y_clean = np.einsum("ij,ij->i", r, r)
    y, clamped = _apply_output_noise(y_clean, cfg.noise, cfg.seed)
    return TruthTrace(ts=cfg.ts, x=x, y_clean=y_clean, y=y, r=r, clamped=clamped)
