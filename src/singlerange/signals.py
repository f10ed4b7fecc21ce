"""Input-velocity signals and their exact running integral.

The whole estimation scheme rests on the running integral of the input
velocity; observability is a property of that integral's trajectory, not
of the velocity itself. Sampling uses one global time quantum ts, with
t_k = k*ts, and the integral follows the first-order hold recursion

    I[0] = 0,   I[k+1] = I[k] + ts * u(t_{k+1})

which is the same discretization the filters are built on. Consistency
between simulator and filter matters more here than quadrature order.
"""

from dataclasses import dataclass, field

import numpy as np

from singlerange.frames import as_vec3


@dataclass(frozen=True)
class SinusoidInput:
    """Persistently exciting velocity: u_i(t) = A_i n_i w cos(n_i w t).

    The three harmonic numbers must be pairwise distinct positive integers;
    over a whole number of base periods T0 = 2*pi/omega the columns of the
    integral trajectory are then mutually orthogonal, which makes the
    normal matrix of the position regression essentially diagonal.

    |A_i| * n_i * omega is the maximum speed along axis i.
    """

    amplitudes: np.ndarray  # [m]
    harmonics: np.ndarray   # positive integers, pairwise distinct
    omega: float            # [rad/s], 2*pi / base period

    def __post_init__(self):
        amps = as_vec3(self.amplitudes, "amplitudes")
        harm = np.asarray(self.harmonics)
        if harm.shape != (3,) or not np.all(harm == np.round(harm)):
            raise ValueError("harmonics must be three integers")
        harm = harm.astype(int)
        if np.any(harm <= 0):
            raise ValueError(f"harmonics must be positive, got {harm}")
        if len(set(harm.tolist())) != 3:
            raise ValueError(f"harmonics must be pairwise distinct, got {harm}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "harmonics", harm)

    @classmethod
    def from_base_period(cls, amplitudes, harmonics, n0, ts):
        """Build with omega = 2*pi / (n0 * ts) for integer n0 samples per period."""
        if int(n0) != n0 or n0 <= 0:
            raise ValueError(f"n0 must be a positive integer, got {n0}")
        return cls(amplitudes, harmonics, 2.0 * np.pi / (n0 * ts))

    @classmethod
    def from_max_speed(cls, max_speed, harmonics, omega):
        """Choose amplitudes so every axis has the same maximum speed."""
        harm = np.asarray(harmonics, dtype=float)
        return cls(max_speed / (harm * omega), harmonics, omega)

    @property
    def base_period(self):
        return 2.0 * np.pi / self.omega

    @property
    def max_speed(self):
        """Per-axis maximum speed |A_i| n_i omega."""
        return np.abs(self.amplitudes) * self.harmonics * self.omega

    def __call__(self, t):
        """Evaluate at time(s) t; returns shape (3,) or (len(t), 3)."""
        t = np.asarray(t, dtype=float)
        phase = np.multiply.outer(t, self.harmonics * self.omega)
        return (self.amplitudes * self.harmonics * self.omega) * np.cos(phase)


def literature_profile(t):
    """Benchmark velocity profile (2 cos t, -4 sin 2t, cos(t/2)) m/s."""
    t = np.asarray(t, dtype=float)
    return np.stack(
        [2.0 * np.cos(t), -4.0 * np.sin(2.0 * t), np.cos(0.5 * t)], axis=-1
    )


@dataclass(frozen=True)
class SampledSignal:
    """Velocity samples u(t_k) on the uniform grid t_k = k*ts."""

    ts: float
    samples: np.ndarray  # (n+1, 3), row k is u(k*ts)

    def __post_init__(self):
        if not self.ts > 0.0:
            raise ValueError(f"ts must be positive, got {self.ts}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3 or samples.shape[0] < 1:
            raise ValueError(
                f"samples must have shape (n, 3) with n >= 1, got {samples.shape}"
            )
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_function(cls, fn, ts, steps):
        """Sample fn at k*ts for k = 0..steps."""
        t = ts * np.arange(steps + 1)
        return cls(ts, np.atleast_2d(fn(t)))

    @property
    def times(self):
        return self.ts * np.arange(len(self.samples))


@dataclass(frozen=True)
class IntegralTrace:
    """Running integral I_k of a sampled velocity, I_0 = 0."""

    ts: float
    values: np.ndarray  # (n+1, 3)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != 3:
            raise ValueError(f"values must have shape (n, 3), got {values.shape}")
        if np.any(values[0] != 0.0):
            raise ValueError("integral trace must start at zero")
        object.__setattr__(self, "values", values)

    @property
    def times(self):
        return self.ts * np.arange(len(self.values))

    def truncated(self, t_end):
        """Restrict to samples with t_k <= t_end (within half a step)."""
        n = int(np.floor(t_end / self.ts + 0.5))
        if n < 0 or n >= len(self.values):
            raise ValueError(
                f"t_end={t_end} outside trace of duration {self.times[-1]}"
            )
        return IntegralTrace(self.ts, self.values[: n + 1])


def integrate(signal):
    """Running integral of a sampled velocity under the first-order hold.

    I[k+1] = I[k] + ts * samples[k+1], starting from I[0] = 0. The sample
    at k = 0 never enters the sum.
    """
    inc = signal.ts * np.cumsum(signal.samples[1:], axis=0)
    values = np.vstack([np.zeros(3), inc])
    return IntegralTrace(signal.ts, values)
