"""Scenario configuration: YAML schema, validation, builtin experiments.

A scenario file is a nested key/value document:

    mode: free                  # free | current
    ts: 0.01
    steps: 5000
    seed: 20140831
    x0: [25.0, 25.0, 25.0]
    s: [0.0, 0.0, 0.0]          # beacon position (current mode)
    v_f: [0.0, 0.0, 0.0]        # true current (current mode)
    input:
      kind: sinusoid            # sinusoid | literature | csv
      harmonics: [1, 2, 3]
      omega: 0.031415926535897934   # or n0: <samples per base period>
      max_speed: 0.5            # or amplitudes: [a1, a2, a3]
      # path: velocities.csv    # kind: csv, rows t,ux,uy,uz
      # rotation: [9 numbers]   # row-major body->inertial, applied to samples
    noise:
      output_var: 1.0           # 0 disables measurement noise
      apply_to: squared_range   # squared_range | range
      state_var: [0.0, 0.0, 0.0]
      inject_state_noise: false
    filter:
      x0_hat: [125.0, 125.0, 125.0]
      vf_hat: [0.0, 0.0, 0.0]   # current mode initial guess
      p0_diag: [10000.0, 10000.0, 10000.0]
      q_diag: [0.0001, 0.0001, 0.0001]
      r: 1.0
      joseph_update: false
      reanchor_every: 0

Validation errors name the offending field ("ts: required").
"""

import hashlib
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import yaml

from singlerange.frames import check_rotation
from singlerange.signals import SampledSignal, SinusoidInput
from singlerange.truthsim import NoiseSpec, ScenarioConfig


class ConfigError(ValueError):
    """Invalid configuration; message is '<field>: <problem>'."""

    def __init__(self, fld, problem):
        super().__init__(f"{fld}: {problem}")
        self.field = fld


def _vec(value, fld, length=3):
    try:
        vec = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(fld, f"expected a list of {length} numbers")
    if len(vec) != length:
        raise ConfigError(fld, f"expected {length} entries, got {len(vec)}")
    if not all(math.isfinite(v) for v in vec):
        raise ConfigError(fld, "entries must be finite")
    return vec


def _number(value, fld):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(fld, f"expected a number, got {value!r}")
    return float(value)


def _integer(value, fld):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(fld, f"expected an integer, got {value!r}")
    return value


def _boolean(value, fld):
    if not isinstance(value, bool):
        raise ConfigError(fld, f"expected true/false, got {value!r}")
    return value


def _section(mapping, fld):
    if not isinstance(mapping, dict):
        raise ConfigError(fld, "expected a mapping")
    return mapping


def _require(mapping, key, prefix=""):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(f"{prefix}{key}", "required")
    return mapping[key]


def _reject_unknown(mapping, known, prefix=""):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown field")


@dataclass(frozen=True)
class InputConfig:
    """Declarative input-velocity specification."""

    kind: str
    harmonics: Optional[tuple] = None
    omega: Optional[float] = None
    n0: Optional[int] = None
    amplitudes: Optional[tuple] = None
    max_speed: Optional[float] = None
    path: Optional[str] = None
    rotation: Optional[tuple] = None  # 9 numbers, row-major

    def make_signal(self, ts, steps):
        """Materialize as a SampledSignal on the scenario grid."""
        if self.kind == "sinusoid":
            omega = self.omega
            if omega is None:
                omega = 2.0 * math.pi / (self.n0 * ts)
            if self.amplitudes is not None:
                sig = SinusoidInput(np.array(self.amplitudes),
                                    np.array(self.harmonics), omega)
            else:
                sig = SinusoidInput.from_max_speed(
                    self.max_speed, np.array(self.harmonics), omega)
            samples = SampledSignal.from_function(sig, ts, steps).samples
        elif self.kind == "literature":
            from singlerange.signals import literature_profile
            samples = SampledSignal.from_function(
                literature_profile, ts, steps).samples
        elif self.kind == "csv":
            samples = _load_velocity_csv(self.path, ts, steps)
        else:
            raise ConfigError("input.kind", f"unknown kind {self.kind!r}")
        if self.rotation is not None:
            R = check_rotation(np.array(self.rotation).reshape(3, 3),
                               "input.rotation")
            samples = samples @ R.T
        return SampledSignal(ts, samples)


def _load_velocity_csv(path, ts, steps):
    try:
        with open(path) as fh:
            first = fh.readline()
            skip = 1 if any(c.isalpha() for c in first) else 0
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except OSError as exc:
        raise ConfigError("input.path", f"cannot read {path!r} ({exc})")
    if data.shape[1] != 4:
        raise ConfigError("input.path", "expected rows t,ux,uy,uz")
    if data.shape[0] < steps + 1:
        raise ConfigError(
            "input.path",
            f"{data.shape[0]} rows, scenario needs {steps + 1}")
    t = data[: steps + 1, 0]
    grid = ts * np.arange(steps + 1)
    if np.abs(t - grid).max() > 1e-9 * max(1.0, grid[-1]):
        raise ConfigError("input.path", "time column must equal k*ts")
    return data[: steps + 1, 1:4]


def _parse_input(raw):
    raw = _section(raw, "input")
    kind = _require(raw, "kind", "input.")
    known = {"kind", "harmonics", "omega", "n0", "amplitudes", "max_speed",
             "path", "rotation"}
    _reject_unknown(raw, known, "input.")
    rotation = None
    if raw.get("rotation") is not None:
        rotation = tuple(
            float(v) for v in _vec(raw["rotation"], "input.rotation", 9))
        try:
            check_rotation(np.array(rotation).reshape(3, 3))
        except ValueError as exc:
            raise ConfigError("input.rotation", str(exc))
    if kind == "sinusoid":
        harmonics = tuple(
            _integer(h, "input.harmonics")
            for h in _require(raw, "harmonics", "input."))
        if len(harmonics) != 3:
            raise ConfigError("input.harmonics", "expected 3 integers")
        omega = raw.get("omega")
        n0 = raw.get("n0")
        if omega is None and n0 is None:
            raise ConfigError("input.omega", "required (or give n0)")
        if omega is not None and n0 is not None:
            raise ConfigError("input.omega", "give either omega or n0, not both")
        if omega is not None:
            omega = _number(omega, "input.omega")
            if omega <= 0:
                raise ConfigError("input.omega", "must be positive")
        if n0 is not None:
            n0 = _integer(n0, "input.n0")
            if n0 <= 0:
                raise ConfigError("input.n0", "must be positive")
        amplitudes = raw.get("amplitudes")
        max_speed = raw.get("max_speed")
        if (amplitudes is None) == (max_speed is None):
            raise ConfigError(
                "input.amplitudes", "give exactly one of amplitudes/max_speed")
        if amplitudes is not None:
            amplitudes = _vec(amplitudes, "input.amplitudes")
        if max_speed is not None:
            max_speed = _number(max_speed, "input.max_speed")
        return InputConfig(kind="sinusoid", harmonics=harmonics, omega=omega,
                           n0=n0, amplitudes=amplitudes, max_speed=max_speed,
                           rotation=rotation)
    if kind == "literature":
        return InputConfig(kind="literature", rotation=rotation)
    if kind == "csv":
        path = _require(raw, "path", "input.")
        if not isinstance(path, str):
            raise ConfigError("input.path", "expected a string")
        return InputConfig(kind="csv", path=path, rotation=rotation)
    raise ConfigError("input.kind", f"unknown kind {kind!r}")


@dataclass(frozen=True)
class FilterConfig:
    """Filter initialization and tuning."""

    x0_hat: tuple
    p0_diag: tuple
    q_diag: tuple
    r: float
    vf_hat: tuple = (0.0, 0.0, 0.0)
    joseph_update: bool = False
    reanchor_every: int = 0


def _parse_filter(raw, mode):
    raw = _section(raw, "filter")
    known = {"x0_hat", "vf_hat", "p0_diag", "q_diag", "r", "joseph_update",
             "reanchor_every"}
    _reject_unknown(raw, known, "filter.")
    dim = 3 if mode == "free" else 8
    x0_hat = _vec(_require(raw, "x0_hat", "filter."), "filter.x0_hat")
    p0_diag = _vec(_require(raw, "p0_diag", "filter."), "filter.p0_diag", dim)
    q_diag = _vec(_require(raw, "q_diag", "filter."), "filter.q_diag", dim)
    r_raw = _require(raw, "r", "filter.")
    r = _number(r_raw, "filter.r")
    if not (r > 0.0 or math.isinf(r)):
        raise ConfigError("filter.r", "must be positive (or .inf)")
    vf_hat = _vec(raw.get("vf_hat", (0.0, 0.0, 0.0)), "filter.vf_hat")
    joseph = _boolean(raw.get("joseph_update", False), "filter.joseph_update")
    reanchor_every = _integer(raw.get("reanchor_every", 0),
                              "filter.reanchor_every")
    if reanchor_every < 0:
        raise ConfigError("filter.reanchor_every", "must be >= 0")
    return FilterConfig(x0_hat=x0_hat, p0_diag=p0_diag, q_diag=q_diag, r=r,
                        vf_hat=vf_hat, joseph_update=joseph,
                        reanchor_every=reanchor_every)


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement and state noise; fields as in truthsim.NoiseSpec."""

    output_var: float = 0.0
    apply_to: str = "squared_range"
    state_var: tuple = (0.0, 0.0, 0.0)
    inject_state_noise: bool = False


def _parse_noise(raw):
    raw = _section(raw, "noise")
    _reject_unknown(raw, {"output_var", "apply_to", "state_var",
                          "inject_state_noise"}, "noise.")
    noise = NoiseConfig()
    var = _number(raw.get("output_var", noise.output_var), "noise.output_var")
    if var < 0:
        raise ConfigError("noise.output_var", "must be >= 0")
    apply_to = raw.get("apply_to", noise.apply_to)
    if apply_to not in ("squared_range", "range"):
        raise ConfigError(
            "noise.apply_to",
            f"expected 'squared_range' or 'range', got {apply_to!r}")
    return NoiseConfig(
        output_var=var,
        apply_to=apply_to,
        state_var=_vec(raw.get("state_var", noise.state_var),
                       "noise.state_var"),
        inject_state_noise=_boolean(
            raw.get("inject_state_noise", noise.inject_state_noise),
            "noise.inject_state_noise"),
    )


def _plain(section):
    """Dataclass section as a plain dict: tuples as lists, None dropped."""
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in asdict(section).items() if v is not None}


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated scenario plus optional filter settings."""

    mode: str
    ts: float
    steps: int
    x0: tuple
    input: InputConfig
    seed: int = 0
    s: tuple = (0.0, 0.0, 0.0)
    v_f: tuple = (0.0, 0.0, 0.0)
    noise: NoiseConfig = NoiseConfig()
    filter: Optional[FilterConfig] = None

    def scenario(self, seed=None):
        """Build the runtime ScenarioConfig (input sampled on the grid)."""
        return ScenarioConfig(
            x0=np.array(self.x0),
            ts=self.ts,
            steps=self.steps,
            input=self.input.make_signal(self.ts, self.steps),
            noise=NoiseSpec(**asdict(self.noise)),
            seed=self.seed if seed is None else seed,
            s=np.array(self.s),
            v_f=np.array(self.v_f),
        )

    def to_dict(self):
        """Canonical plain-dict form (inverse of parse_config)."""
        out = {
            "mode": self.mode,
            "ts": self.ts,
            "steps": self.steps,
            "seed": self.seed,
            "x0": list(self.x0),
            "s": list(self.s),
            "v_f": list(self.v_f),
            "input": _plain(self.input),
            "noise": _plain(self.noise),
        }
        if self.filter is not None:
            out["filter"] = _plain(self.filter)
        return out


def parse_config(raw):
    """Validate a plain dict (already YAML-parsed) into a RunConfig."""
    raw = _section(raw, "config")
    known = {"mode", "ts", "steps", "seed", "x0", "s", "v_f", "input",
             "noise", "filter"}
    _reject_unknown(raw, known)
    mode = _require(raw, "mode")
    if mode not in ("free", "current"):
        raise ConfigError("mode", f"expected 'free' or 'current', got {mode!r}")
    ts = _number(_require(raw, "ts"), "ts")
    if ts <= 0:
        raise ConfigError("ts", "must be positive")
    steps = _integer(_require(raw, "steps"), "steps")
    if steps < 1:
        raise ConfigError("steps", "must be >= 1")
    seed = _integer(raw.get("seed", 0), "seed")
    x0 = _vec(_require(raw, "x0"), "x0")
    s = _vec(raw.get("s", (0.0, 0.0, 0.0)), "s")
    v_f = _vec(raw.get("v_f", (0.0, 0.0, 0.0)), "v_f")
    if mode == "free" and any(v != 0.0 for v in v_f):
        raise ConfigError("v_f", "must be zero in free mode")
    input_cfg = _parse_input(_require(raw, "input"))
    noise = NoiseConfig()
    if raw.get("noise") is not None:
        noise = _parse_noise(raw["noise"])
    filter_cfg = None
    if raw.get("filter") is not None:
        filter_cfg = _parse_filter(raw["filter"], mode)
    return RunConfig(mode=mode, ts=ts, steps=steps, seed=seed, x0=x0, s=s,
                     v_f=v_f, input=input_cfg, noise=noise, filter=filter_cfg)


def load_config(path):
    """Read and validate a YAML scenario file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r} ({exc})")
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"invalid YAML in {path!r} ({exc})")
    if raw is None:
        raise ConfigError("config", f"{path!r} is empty")
    return parse_config(raw)


def dump_config(cfg):
    """Serialize a RunConfig back to canonical YAML."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True)


def config_hash(cfg):
    """Stable content hash of a configuration."""
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# builtin reference experiments
# ---------------------------------------------------------------------------

def builtin_free_config():
    """Drift-free reference run: persistently exciting sinusoid input.

    Truth starts at (25, 25, 25) m with 0.5 m/s max speed per axis; the
    filter starts 100 m off per axis. Measurement noise of unit variance
    is applied to the squared range, matching the filter's R.
    """
    return parse_config({
        "mode": "free",
        "ts": 0.01,
        "steps": 5000,
        "seed": 20140831,
        "x0": [25.0, 25.0, 25.0],
        "input": {
            "kind": "sinusoid",
            "harmonics": [1, 2, 3],
            "omega": 0.01 * math.pi,
            "max_speed": 0.5,
        },
        "noise": {"output_var": 1.0, "apply_to": "squared_range"},
        "filter": {
            "x0_hat": [125.0, 125.0, 125.0],
            "p0_diag": [1e4, 1e4, 1e4],
            "q_diag": [1e-4, 1e-4, 1e-4],
            "r": 1.0,
        },
    })


def builtin_current_config():
    """Constant-current reference run on the benchmark velocity profile.

    The true current is zero but the filter starts with a wrong position
    and a wrong current guess; measurements are noise-free while the
    filter still assumes unit output variance.
    """
    return parse_config({
        "mode": "current",
        "ts": 1.0 / 750.0,
        "steps": 22500,
        "seed": 20140831,
        "x0": [2.0, 2.0, 0.0],
        "s": [2.0, 3.0, 1.0],
        "v_f": [0.0, 0.0, 0.0],
        "input": {"kind": "literature"},
        "noise": {"output_var": 0.0},
        "filter": {
            "x0_hat": [-30.0, 20.0, 30.0],
            "vf_hat": [0.1, -0.1, 0.1],
            "p0_diag": [1e3, 1e3, 1e3, 1e2, 1e1, 1.0, 1.0, 1.0],
            "q_diag": [1e-2, 1e-2, 1e-2, 1e-6, 1e-8, 1e-4, 1e-4, 1e-4],
            "r": 1.0,
        },
    })
