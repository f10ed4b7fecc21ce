import numpy as np
import pytest

from helpers import max_rel
from singlerange.observability import output_row_current
from singlerange.signals import (
    SampledSignal,
    SinusoidInput,
    integrate,
    literature_profile,
)
from singlerange.estimators import truth_z
from singlerange.truthsim import (
    NoiseSpec,
    ScenarioConfig,
    measure,
    propagate_current,
    propagate_free,
)


def zero_input(ts, steps):
    return SampledSignal(ts, np.zeros((steps + 1, 3)))


def reference_sinusoid():
    return SinusoidInput.from_max_speed(0.5, np.array([1, 2, 3]), 0.01 * np.pi)


class TestScenarioInput:
    """A scenario samples its input once, at construction."""

    def test_sampled_input_with_other_ts_rejected(self):
        with pytest.raises(ValueError, match="does not match scenario ts"):
            ScenarioConfig(x0=np.zeros(3), ts=0.1, steps=20,
                           input=zero_input(0.2, 20))

    def test_short_sampled_input_rejected(self):
        with pytest.raises(ValueError, match="scenario needs 21"):
            ScenarioConfig(x0=np.zeros(3), ts=0.1, steps=20,
                           input=zero_input(0.1, 19))

    def test_long_sampled_input_cut_to_grid(self):
        samples = np.random.default_rng(0).normal(size=(31, 3))
        cfg = ScenarioConfig(x0=np.zeros(3), ts=0.1, steps=20,
                             input=SampledSignal(0.1, samples))
        assert isinstance(cfg.input, SampledSignal)
        assert cfg.input.ts == 0.1
        assert np.array_equal(cfg.input.samples, samples[:21])

    @pytest.mark.parametrize("fn", [literature_profile, reference_sinusoid()],
                             ids=["literature", "sinusoid"])
    def test_function_input_sampled_on_grid(self, fn):
        cfg = ScenarioConfig(x0=np.zeros(3), ts=0.01, steps=500, input=fn)
        expected = SampledSignal.from_function(fn, 0.01, 500)
        assert cfg.input.ts == expected.ts
        assert np.array_equal(cfg.input.samples, expected.samples)

    def test_named_input_rejected(self):
        with pytest.raises(TypeError, match="function of t, got str"):
            ScenarioConfig(x0=np.zeros(3), ts=0.01, steps=5,
                           input="literature")


class TestPropagateFree:
    def test_stationary_agent(self):
        cfg = ScenarioConfig(x0=np.array([1.0, -2.0, 0.5]), ts=0.1, steps=20,
                             input=zero_input(0.1, 20))
        trace = propagate_free(cfg)
        assert np.all(trace.x == cfg.x0)
        assert np.allclose(trace.y_clean, np.dot(cfg.x0, cfg.x0))

    def test_initial_squared_range(self):
        cfg = ScenarioConfig(x0=np.array([25.0, 25.0, 25.0]), ts=0.01,
                             steps=10, input=reference_sinusoid())
        trace = propagate_free(cfg)
        assert trace.y[0] == 1875.0  # 3 * 25^2, noise-free

    def test_rejects_nonzero_current(self):
        cfg = ScenarioConfig(x0=np.zeros(3), ts=0.1, steps=5,
                             input=zero_input(0.1, 5),
                             v_f=np.array([0.1, 0.0, 0.0]))
        with pytest.raises(ValueError, match="v_f"):
            propagate_free(cfg)


class TestPropagateCurrent:
    def test_everything_at_rest(self):
        cfg = ScenarioConfig(x0=np.array([1.0, 1.0, 0.0]), ts=0.1, steps=30,
                             input=zero_input(0.1, 30),
                             s=np.array([4.0, 5.0, 6.0]))
        trace = propagate_current(cfg)
        assert np.all(trace.r == trace.r[0])
        assert np.all(trace.y_clean == trace.y_clean[0])

    def test_linear_drift(self):
        cfg = ScenarioConfig(x0=np.zeros(3), ts=1.0, steps=10,
                             input=zero_input(1.0, 10),
                             s=np.array([2.0, 3.0, 1.0]),
                             v_f=np.array([0.1, 0.0, 0.0]))
        trace = propagate_current(cfg)
        assert np.allclose(trace.r[10], trace.r[0] - [1.0, 0.0, 0.0])

    def test_matches_closed_form_trajectory(self):
        # velocity (2cos t, -4sin 2t, cos(t/2)) from (2,2,0) integrates to
        # (2+2sin t, 2cos 2t, 2sin(t/2)); the first-order hold recursion
        # tracks it to O(ts * max|du/dt|), about 2.7e-3 at ts = 1/750
        ts = 1.0 / 750.0
        steps = int(round(4 * np.pi / ts))
        cfg = ScenarioConfig(x0=np.array([2.0, 2.0, 0.0]), ts=ts, steps=steps,
                             input=literature_profile,
                             s=np.array([2.0, 3.0, 1.0]))
        trace = propagate_current(cfg)
        t = trace.times
        closed = np.stack([2 + 2 * np.sin(t), 2 * np.cos(2 * t),
                           2 * np.sin(0.5 * t)], axis=-1)
        assert np.abs(trace.x - closed).max() <= 3e-3

    def test_position_recovered_from_beacon_vector(self):
        cfg = ScenarioConfig(x0=np.array([2.0, 2.0, 0.0]), ts=0.01, steps=100,
                             input=literature_profile,
                             s=np.array([2.0, 3.0, 1.0]))
        trace = propagate_current(cfg)
        assert np.allclose(trace.x, cfg.s - trace.r)


class TestMeasure:
    def base_trace(self, steps=100, seed=0):
        cfg = ScenarioConfig(x0=np.array([3.0, 4.0, 0.0]), ts=0.01,
                             steps=steps, input=reference_sinusoid(),
                             seed=seed)
        return propagate_free(cfg)

    def test_zero_variance_is_noiseless(self):
        trace = self.base_trace()
        out = measure(trace, NoiseSpec(output_var=0.0), seed=1)
        assert np.array_equal(out.y, trace.y_clean)

    def test_seed_determinism(self):
        trace = self.base_trace()
        spec = NoiseSpec(output_var=1.0)
        a = measure(trace, spec, seed=42)
        b = measure(trace, spec, seed=42)
        c = measure(trace, spec, seed=43)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_monte_carlo_variance(self):
        # sample variance of y - y_clean over 1e5 draws should sit at the
        # configured variance; 0.02 is ~4 sigma for this sample size
        trace = self.base_trace(steps=100_000)
        out = measure(trace, NoiseSpec(output_var=1.0), seed=5)
        residual = out.y - out.y_clean
        assert abs(np.var(residual) - 1.0) < 0.02

    def test_range_mode_variance(self):
        trace = self.base_trace(steps=100_000)
        out = measure(trace, NoiseSpec(output_var=0.01, apply_to="range"),
                      seed=9)
        residual = np.sqrt(out.y) - np.sqrt(out.y_clean)
        assert abs(np.var(residual) - 0.01) < 0.001

    def test_range_mode_clamps_negative_ranges(self):
        cfg = ScenarioConfig(x0=np.array([0.01, 0.0, 0.0]), ts=0.1,
                             steps=2000, input=zero_input(0.1, 2000))
        trace = propagate_free(cfg)
        out = measure(trace, NoiseSpec(output_var=1.0, apply_to="range"),
                      seed=3)
        assert out.clamped > 0
        assert np.all(out.y >= 0.0)


class TestStateNoise:
    def test_disabled_by_default(self):
        cfg = ScenarioConfig(x0=np.zeros(3), ts=0.1, steps=50,
                             input=zero_input(0.1, 50),
                             noise=NoiseSpec(state_var=np.full(3, 1.0)))
        trace = propagate_free(cfg)
        assert np.all(trace.x == 0.0)

    def test_injected_when_enabled(self):
        cfg = ScenarioConfig(x0=np.zeros(3), ts=0.1, steps=50,
                             input=zero_input(0.1, 50), seed=11,
                             noise=NoiseSpec(state_var=np.full(3, 1.0),
                                             inject_state_noise=True))
        trace = propagate_free(cfg)
        again = propagate_free(cfg)
        assert np.any(trace.x[1:] != 0.0)
        assert np.array_equal(trace.x, again.x)


class TestDerivedIdentities:
    def test_free_output_identity(self):
        # (y_k - y_0 + ||I_k||^2)/2 equals I_k . x_k on noiseless data
        cfg = ScenarioConfig(x0=np.array([25.0, 25.0, 25.0]), ts=0.01,
                             steps=5000, input=reference_sinusoid())
        trace = propagate_free(cfg)
        ii = integrate(cfg.input).values
        ybar = 0.5 * (trace.y - trace.y[0] + np.einsum("ij,ij->i", ii, ii))
        direct = np.einsum("ij,ij->i", ii, trace.x)
        assert max_rel(ybar, direct) <= 1e-9

    def test_current_output_identity(self):
        # y - y0 + ||I||^2 equals -2 I.r - 2(r0.v_f) t + ||v_f||^2 t^2
        cfg = ScenarioConfig(x0=np.array([2.0, 2.0, 0.0]), ts=1 / 750,
                             steps=5000, input=literature_profile,
                             s=np.array([2.0, 3.0, 1.0]),
                             v_f=np.array([0.1, -0.05, 0.02]))
        trace = propagate_current(cfg)
        ii = integrate(cfg.input).values
        t = trace.times
        lhs = trace.y - trace.y[0] + np.einsum("ij,ij->i", ii, ii)
        r0_vf = trace.r[0] @ cfg.v_f
        rhs = (-2.0 * np.einsum("ij,ij->i", ii, trace.r)
               - 2.0 * r0_vf * t + (cfg.v_f @ cfg.v_f) * t**2)
        assert max_rel(lhs, rhs) <= 1e-6

    def test_current_output_matches_state_row(self):
        cfg = ScenarioConfig(x0=np.array([2.0, 2.0, 0.0]), ts=0.01,
                             steps=1000, input=literature_profile,
                             s=np.array([2.0, 3.0, 1.0]),
                             v_f=np.array([0.05, 0.0, -0.04]))
        trace = propagate_current(cfg)
        ii = integrate(cfg.input).values
        z = truth_z(trace, cfg.v_f)
        t = trace.times
        ybar = trace.y - trace.y[0] + np.einsum("ij,ij->i", ii, ii)
        via_row = np.array([output_row_current(ii[k], t[k]) @ z[k]
                            for k in range(len(t))])
        assert max_rel(ybar, via_row) <= 1e-9
