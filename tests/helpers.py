"""Shared test utilities: random smooth inputs with controlled excitation
rank, the current-model test scenario and the pinned reference CLI runs."""

import numpy as np

from singlerange.signals import SampledSignal, integrate, literature_profile
from singlerange.truthsim import ScenarioConfig, propagate_current


def max_rel(a, b):
    """Max elementwise deviation relative to the larger series magnitude."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(), np.abs(b).max(), np.finfo(float).tiny)
    return np.abs(a - b).max() / scale


def random_basis(rng):
    """Random orthonormal 3x3 basis (columns)."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


def smooth_signal(rng, ts, steps, dim=3, scale=1.0, n_modes=3):
    """Band-limited random velocity confined to a `dim`-dimensional subspace.

    Returns (signal, basis) where the first `dim` columns of `basis` span
    the excited subspace and the remaining columns span the kernel of the
    resulting regression/Gramian.
    """
    t = ts * np.arange(steps + 1)
    omega0 = 2.0 * np.pi / (steps * ts)
    coords = np.zeros((len(t), dim))
    for d in range(dim):
        for m in range(1, n_modes + 1):
            a, b = rng.normal(size=2)
            coords[:, d] += a * np.cos(m * omega0 * t) + b * np.sin(m * omega0 * t)
    basis = random_basis(rng)
    samples = scale * coords @ basis[:, :dim].T
    return SampledSignal(ts, samples), basis


def current_setup(steps=6000, v_f=(0.0, 0.0, 0.0), seed=0):
    cfg = ScenarioConfig(x0=np.array([2.0, 2.0, 0.0]), ts=1 / 750.0,
                         steps=steps, input=literature_profile,
                         s=np.array([2.0, 3.0, 1.0]),
                         v_f=np.array(v_f), seed=seed)
    trace = propagate_current(cfg)
    ii = integrate(cfg.input)
    return cfg, trace, ii


# Filter settings of the q = 0 run of current_setup(steps=22500) that
# conftest.noiseless_current_run makes.
NOISELESS_CURRENT_FILTER = dict(
    x0_hat=np.array([-30.0, 20.0, 30.0]), vf_hat=np.array([0.1, -0.1, 0.1]),
    p0=np.array([1e3, 1e3, 1e3, 1e2, 1e1, 1.0, 1.0, 1.0]), q=np.zeros(8),
    r=1.0)


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
