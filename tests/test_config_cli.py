import hashlib
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_RUNS
from singlerange.cli import build_parser, main
from singlerange.config import (
    ConfigError,
    builtin_current_config,
    builtin_free_config,
    config_hash,
    dump_config,
    load_config,
    parse_config,
)
from singlerange.frames import rotation_from_axis_angle
from singlerange.runio import read_trace_csv
from singlerange.truthsim import propagate_free


def minimal_free(**overrides):
    base = {
        "mode": "free",
        "ts": 0.01,
        "steps": 100,
        "x0": [25.0, 25.0, 25.0],
        "input": {
            "kind": "sinusoid",
            "harmonics": [1, 2, 3],
            "omega": 0.01 * math.pi,
            "max_speed": 0.5,
        },
    }
    base.update(overrides)
    return base


class TestConfigValidation:
    def test_missing_ts(self):
        raw = minimal_free()
        del raw["ts"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert str(err.value) == "ts: required"

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(minimal_free(mode="both"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(minimal_free(extra=1))

    def test_free_mode_requires_zero_current(self):
        with pytest.raises(ConfigError, match="v_f"):
            parse_config(minimal_free(v_f=[0.1, 0.0, 0.0]))

    def test_sinusoid_needs_exactly_one_speed_spec(self):
        raw = minimal_free()
        raw["input"]["amplitudes"] = [1.0, 1.0, 1.0]
        with pytest.raises(ConfigError, match="amplitudes"):
            parse_config(raw)

    def test_rotation_must_be_orthonormal(self):
        raw = minimal_free()
        raw["input"]["rotation"] = [2, 0, 0, 0, 1, 0, 0, 0, 1]
        with pytest.raises(ConfigError, match="rotation"):
            parse_config(raw)

    def test_round_trip_is_identity(self, tmp_path):
        for cfg in (builtin_free_config(), builtin_current_config(),
                    parse_config(minimal_free(seed=7))):
            text = dump_config(cfg)
            again = parse_config(yaml.safe_load(text))
            assert again == cfg
            assert config_hash(again) == config_hash(cfg)
            if hasattr(yaml, "CSafeLoader"):
                c_raw = yaml.load(text, Loader=yaml.CSafeLoader)
                assert parse_config(c_raw) == cfg
            path = tmp_path / "scenario.yaml"
            path.write_text(text)
            assert load_config(path) == cfg

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_noise_and_filter_sections_round_trip(self, data):
        base = data.draw(st.sampled_from([builtin_free_config,
                                          builtin_current_config]))()
        dim = 3 if base.mode == "free" else 8
        finite = st.floats(allow_nan=False, allow_infinity=False)
        nonneg = st.floats(min_value=0.0, allow_nan=False,
                           allow_infinity=False)
        vec = lambda elems, n: st.lists(elems, min_size=n, max_size=n)
        raw = base.to_dict()
        raw["noise"] = data.draw(st.fixed_dictionaries({}, optional={
            "output_var": nonneg,
            "apply_to": st.sampled_from(["squared_range", "range"]),
            "state_var": vec(finite, 3),
            "inject_state_noise": st.booleans(),
        }))
        raw["filter"] = data.draw(st.fixed_dictionaries({
            "x0_hat": vec(finite, 3),
            "p0_diag": vec(finite, dim),
            "q_diag": vec(finite, dim),
            "r": st.floats(min_value=0.0, exclude_min=True,
                           allow_nan=False) | st.just(math.inf),
        }, optional={
            "vf_hat": vec(finite, 3),
            "joseph_update": st.booleans(),
            "reanchor_every": st.integers(min_value=0, max_value=10**6),
        }))
        cfg = parse_config(raw)
        text = dump_config(cfg)
        again = parse_config(yaml.safe_load(text))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)
        if hasattr(yaml, "CSafeLoader"):
            c_raw = yaml.load(text, Loader=yaml.CSafeLoader)
            assert parse_config(c_raw) == cfg

    def test_n0_alternative_for_omega(self):
        raw = minimal_free()
        del raw["input"]["omega"]
        raw["input"]["n0"] = 20000
        cfg = parse_config(raw)
        signal = cfg.input.make_signal(cfg.ts, cfg.steps)
        direct = parse_config(minimal_free()).input.make_signal(0.01, 100)
        assert np.allclose(signal.samples, direct.samples, rtol=1e-12)


class TestInputKinds:
    def test_csv_input_round_trip(self, tmp_path):
        ts, steps = 0.1, 20
        t = ts * np.arange(steps + 1)
        u = np.stack([np.cos(t), np.sin(t), 0.1 * t], axis=-1)
        path = tmp_path / "vel.csv"
        with open(path, "w") as fh:
            fh.write("t,ux,uy,uz\n")
            for k in range(steps + 1):
                fh.write(",".join(repr(float(v))
                                  for v in (t[k], *u[k])) + "\n")
        raw = minimal_free(ts=ts, steps=steps)
        raw["input"] = {"kind": "csv", "path": str(path)}
        cfg = parse_config(raw)
        signal = cfg.input.make_signal(ts, steps)
        assert np.allclose(signal.samples, u, rtol=0, atol=1e-15)

    def test_rotation_applied_to_body_frame_samples(self):
        R = rotation_from_axis_angle([0.0, 0.0, 1.0], np.pi / 2)
        raw = minimal_free()
        raw["input"]["rotation"] = [float(v) for v in R.ravel()]
        cfg = parse_config(raw)
        rotated = cfg.input.make_signal(cfg.ts, cfg.steps).samples
        plain = parse_config(minimal_free()).input.make_signal(
            cfg.ts, cfg.steps).samples
        assert np.allclose(rotated, plain @ R.T, rtol=1e-12, atol=1e-15)


def write_config(tmp_path, raw, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestCliLoader:
    def test_invalid_yaml_exit_code_and_message(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("mode: [free\nts: 0.01\n")
        code = main(["observability", "--config", str(path)])
        assert code == 2
        assert "invalid YAML in" in capsys.readouterr().err

    def test_empty_file_exit_code_and_message(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        code = main(["observability", "--config", str(path)])
        assert code == 2
        assert "is empty" in capsys.readouterr().err


class TestCliParserReuse:
    """main() parses with one parser per process; calls must not interact."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_estimate_config_list_does_not_leak(self, tmp_path, capsys):
        paths = {}
        for name in "abc":
            raw = minimal_free(seed=3, steps=50)
            raw["filter"] = {"x0_hat": [1.0, 2.0, 3.0],
                             "p0_diag": [1.0, 1.0, 1.0],
                             "q_diag": [0.0, 0.0, 0.0], "r": 1.0}
            paths[name] = str(write_config(tmp_path, raw, f"{name}.yaml"))
        assert main(["estimate", "--config", paths["a"], paths["b"],
                     "--out", str(tmp_path / "ab")]) == 0
        capsys.readouterr()
        assert main(["estimate", "--config", paths["c"],
                     "--out", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
            "c_estimate.csv", "c_estimate_manifest.json"]
        assert "a_estimate" not in out and "b_estimate" not in out
        assert out.count("final position error") == 1

    def test_reproduce_flags_do_not_leak(self, tmp_path):
        # a plain run after a Joseph run writes the plain run's pinned bytes
        assert main(["reproduce", "free", "--joseph-update",
                     "--out", str(tmp_path / "joseph")]) == 0
        assert main(["reproduce", "free",
                     "--out", str(tmp_path / "plain")]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (tmp_path / "plain").glob("*.csv")}
        assert written == REFERENCE_RUNS["free"][1]


class TestCliSimulate:
    def test_missing_field_exit_code_and_message(self, tmp_path, capsys):
        raw = minimal_free()
        del raw["ts"]
        path = write_config(tmp_path, raw)
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "ts: required" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        raw = minimal_free(seed=123)
        raw["noise"] = {"output_var": 1.0}
        path = write_config(tmp_path, raw)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", str(path),
                     "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(path),
                     "--out", str(out_b)]) == 0
        csv_a = (out_a / "scenario_trace.csv").read_bytes()
        csv_b = (out_b / "scenario_trace.csv").read_bytes()
        assert csv_a == csv_b

    def test_seed_override_changes_noise(self, tmp_path):
        raw = minimal_free(seed=123)
        raw["noise"] = {"output_var": 1.0}
        path = write_config(tmp_path, raw)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["simulate", "--config", str(path), "--out", str(out_a)])
        main(["simulate", "--config", str(path), "--out", str(out_b),
              "--seed", "99"])
        assert ((out_a / "scenario_trace.csv").read_bytes()
                != (out_b / "scenario_trace.csv").read_bytes())

    def test_trace_csv_round_trip(self, tmp_path):
        raw = minimal_free(seed=5)
        path = write_config(tmp_path, raw)
        main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        trace = read_trace_csv(tmp_path / "scenario_trace.csv")
        direct = propagate_free(parse_config(raw).scenario())
        assert np.array_equal(trace.x, direct.x)
        assert np.array_equal(trace.y, direct.y)

    def test_header_matches_contract(self, tmp_path):
        path = write_config(tmp_path, minimal_free())
        main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        first = (tmp_path / "scenario_trace.csv").read_text().splitlines()[0]
        assert first == "k,t,x1,x2,x3,y_clean,y"

    def test_jobs_fan_out(self, tmp_path):
        paths = [write_config(tmp_path, minimal_free(seed=s), f"s{s}.yaml")
                 for s in (1, 2, 3)]
        code = main(["simulate", "--config", *map(str, paths),
                     "--out", str(tmp_path), "--jobs", "3"])
        assert code == 0
        for s in (1, 2, 3):
            assert (tmp_path / f"s{s}_trace.csv").exists()


class TestCliObservability:
    def test_zero_input_not_observable(self, tmp_path, capsys):
        raw = minimal_free()
        raw["input"]["max_speed"] = 0.0
        path = write_config(tmp_path, raw)
        code = main(["observability", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 3
        assert "NOT OBSERVABLE (rank 0/3)" in out

    def test_sinusoid_observable_with_diagonal_ratio(self, tmp_path, capsys):
        raw = minimal_free(steps=20000)
        path = write_config(tmp_path, raw)
        code = main(["observability", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "OBSERVABLE (rank 3/3)" in out
        ratio = float(out.split("off-diagonal ratio:")[1].split()[0])
        assert ratio < 1e-2

    def test_current_profile_observable(self, tmp_path, capsys):
        raw = {
            "mode": "current",
            "ts": 1.0 / 750.0,
            "steps": 9425,
            "x0": [2.0, 2.0, 0.0],
            "s": [2.0, 3.0, 1.0],
            "input": {"kind": "literature"},
        }
        path = write_config(tmp_path, raw)
        code = main(["observability", "--config", str(path),
                     "--out", str(tmp_path / "gram")])
        out = capsys.readouterr().out
        assert code == 0
        assert "OBSERVABLE (rank 8/8)" in out
        full = np.loadtxt(tmp_path / "gram" / "gramian_full.csv",
                          delimiter=",")
        assert full.shape == (8, 8)


# A current-mode sinusoid design with its first amplitude zeroed: the
# 8-state window is truly rank 6/8 and G11 rank 2/3 (exit 3).
RANK_DEFICIENT_DESIGN = {
    "mode": "current",
    "ts": 0.01,
    "steps": 20000,
    "seed": 1117147996,
    "x0": [-29.280883191899875, 13.009019978534297, -20.183690934257527],
    "s": [4.835133601386607, 4.4432961628423495, -5.625691508623909],
    "v_f": [0.13195474970972493, 0.0630608843492973, 0.07311956314414009],
    "input": {"kind": "sinusoid", "harmonics": [6, 4, 2], "n0": 6565,
              "amplitudes": [0.0, 3.627988373340052, 7.255976746680104]},
}

# `observability` runs: (config YAML, extra argv, exit code, SHA-256 of
# stdout and of every Gramian CSV written to --out). The loader, the parser
# and the Gramian rows must keep every output byte. --rank-tol 100 lies
# above the smallest singular value of H and eigenvalue of G, so the
# override alone turns the bundled free run unobservable; on the bundled
# current run it cuts the 8x8 Gramian to rank 6 but keeps G11 at rank 3.
OBSERVABILITY_RUNS = {
    "free": (lambda: dump_config(builtin_free_config()), [], 0, {
        "stdout": "7782452b804705b996af14242e7f9ee4845168823223b9d6537bc491a2484d3f",
        "gramian_free.csv": "7d9bec483c956b8f3eb59bd3bb5ceec3ac77b2994202171521cd528511318f6d",
    }),
    "current": (lambda: dump_config(builtin_current_config()), [], 0, {
        "stdout": "567291bdc00beec44e31e9ea599b08af954f515679cbc288c2153c3d0a3da9b6",
        "gramian_full.csv": "5b219aaefcba3e10999524e0180130d54b3129882c4dc119d1a189293f224ca7",
        "gramian_g11.csv": "f6b85c91179b5b5a4a80a3a7a1ad0ae20122e949076200ae89e49cd2bb569371",
    }),
    "rank_deficient": (lambda: yaml.safe_dump(RANK_DEFICIENT_DESIGN), [], 3, {
        "stdout": "4b779834ecc99c0b3842c6738856b0d01bf9d75b00d538d9a8fceba7421e3909",
        "gramian_full.csv": "54a5a0a138ef78a814244fc8f109efc05423c499339acf10c71d4cef8edd4857",
        "gramian_g11.csv": "3e5013f4ea6d73078499ce79b10811b621bd52ed3501f843a321ddfd8ad62691",
    }),
    "free_rank_tol": (lambda: dump_config(builtin_free_config()),
                      ["--rank-tol", "100"], 3, {
        "stdout": "4252c624ca5a9eca7825f8012b311b36f6f8017caf6c5cb34ba49b7edd79d02d",
        "gramian_free.csv": "7d9bec483c956b8f3eb59bd3bb5ceec3ac77b2994202171521cd528511318f6d",
    }),
    "current_rank_tol": (lambda: dump_config(builtin_current_config()),
                         ["--rank-tol", "100"], 3, {
        "stdout": "30b2bb031141e9c5fcf1358341889fc37629f7849e2ec03e56da0f0591251c8d",
        "gramian_full.csv": "5b219aaefcba3e10999524e0180130d54b3129882c4dc119d1a189293f224ca7",
        "gramian_g11.csv": "f6b85c91179b5b5a4a80a3a7a1ad0ae20122e949076200ae89e49cd2bb569371",
    }),
}


@pytest.mark.parametrize("name", list(OBSERVABILITY_RUNS))
def test_observability_matches_pinned_digests(name, tmp_path, capsys):
    text, extra, expected_code, digests = OBSERVABILITY_RUNS[name]
    config = tmp_path / "scenario.yaml"
    config.write_text(text())
    code = main(["observability", "--config", str(config),
                 "--out", str(tmp_path / "gram"), *extra])
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "gram").glob("*.csv")}
    written["stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest()
    assert code == expected_code
    assert written == digests


@pytest.mark.parametrize("rank_tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("design", ["free", "rank_deficient"])
def test_bad_rank_tol_is_config_error(design, rank_tol, tmp_path, capsys):
    # -1 would report the rank-6 design as OBSERVABLE (rank 8/8) with exit
    # 0 and nan would report rank 0, so both stop before any verdict
    config = tmp_path / "scenario.yaml"
    config.write_text(OBSERVABILITY_RUNS[design][0]())
    code = main(["observability", "--config", str(config),
                 "--rank-tol", rank_tol])
    captured = capsys.readouterr()
    assert code == 2
    assert "rank_tol must be finite and >= 0" in captured.err
    assert captured.out == ""


def test_refused_observability_run_creates_no_out_dir(tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text(OBSERVABILITY_RUNS["current"][0]())
    out = tmp_path / "gram"
    code = main(["observability", "--config", str(config),
                 "--rank-tol", "-1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


class TestCliEstimate:
    def test_inline_and_trace_paths_agree(self, tmp_path):
        raw = minimal_free(seed=3, steps=500)
        raw["noise"] = {"output_var": 1.0}
        raw["filter"] = {
            "x0_hat": [125.0, 125.0, 125.0],
            "p0_diag": [1e4, 1e4, 1e4],
            "q_diag": [1e-4, 1e-4, 1e-4],
            "r": 1.0,
        }
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        out_a = tmp_path / "inline"
        out_b = tmp_path / "fromtrace"
        assert main(["estimate", "--config", str(path),
                     "--out", str(out_a)]) == 0
        assert main(["estimate", "--config", str(path),
                     "--trace", str(tmp_path / "scenario_trace.csv"),
                     "--out", str(out_b)]) == 0
        est_a = (out_a / "scenario_estimate.csv").read_bytes()
        est_b = (out_b / "scenario_estimate.csv").read_bytes()
        assert est_a == est_b

    def test_estimate_csv_columns(self, tmp_path):
        raw = minimal_free(seed=3, steps=200)
        raw["filter"] = {
            "x0_hat": [1.0, 2.0, 3.0],
            "p0_diag": [1.0, 1.0, 1.0],
            "q_diag": [0.0, 0.0, 0.0],
            "r": 1.0,
        }
        path = write_config(tmp_path, raw)
        main(["estimate", "--config", str(path), "--out", str(tmp_path)])
        header = (tmp_path / "scenario_estimate.csv").read_text().splitlines()[0]
        assert header == "k,t,xhat1,xhat2,xhat3,err_norm,trace_P"

    def test_trace_with_other_ts_rejected(self, tmp_path, capsys):
        raw = minimal_free(seed=3, steps=200)
        raw["filter"] = {
            "x0_hat": [125.0, 125.0, 125.0],
            "p0_diag": [1e4, 1e4, 1e4],
            "q_diag": [1e-4, 1e-4, 1e-4],
            "r": 1.0,
        }
        path = write_config(tmp_path, raw)
        other = write_config(tmp_path, {**raw, "ts": 0.02}, "other.yaml")
        assert main(["simulate", "--config", str(other),
                     "--out", str(tmp_path)]) == 0
        code = main(["estimate", "--config", str(path),
                     "--trace", str(tmp_path / "other_trace.csv"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "ts: config has 0.01, trace has 0.02" in capsys.readouterr().err

    def test_one_row_trace_rejected(self, tmp_path, capsys):
        trace = tmp_path / "short_trace.csv"
        trace.write_text("k,t,x1,x2,x3,y_clean,y\n0,0.0,1.0,1.0,1.0,3.0,3.0\n")
        with pytest.raises(ValueError, match="1 data rows"):
            read_trace_csv(trace)
        raw = minimal_free(steps=1)
        raw["filter"] = {
            "x0_hat": [1.0, 1.0, 1.0],
            "p0_diag": [1.0, 1.0, 1.0],
            "q_diag": [0.0, 0.0, 0.0],
            "r": 1.0,
        }
        path = write_config(tmp_path, raw)
        code = main(["estimate", "--config", str(path), "--trace", str(trace),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "at least 2" in capsys.readouterr().err

    def test_filter_section_required(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_free())
        code = main(["estimate", "--config", str(path),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "filter: required" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        raw = minimal_free(steps=50)
        raw["filter"] = {
            "x0_hat": [1.0, 2.0, 3.0],
            "p0_diag": [0.0, 0.0, 0.0],
            "q_diag": [0.0, 0.0, 0.0],
            "r": 1.0,
        }
        path = write_config(tmp_path, raw)
        code = main(["estimate", "--config", str(path),
                     "--out", str(tmp_path)])
        assert code == 4
        assert "positive definite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_overflowing_covariance_is_numerical_failure(self, tmp_path,
                                                         capsys):
        raw = minimal_free(steps=50)
        raw["filter"] = {
            "x0_hat": [1.0, 2.0, 3.0],
            "p0_diag": [1e308, 1e308, 1e308],
            "q_diag": [1e308, 1e308, 1e308],
            "r": 1.0,
        }
        path = write_config(tmp_path, raw)
        code = main(["estimate", "--config", str(path),
                     "--out", str(tmp_path)])
        assert code == 4
        assert "step 1: covariance not finite" in capsys.readouterr().err


class TestCliReproduce:
    def test_free_initial_error_and_artifacts(self, tmp_path, capsys):
        code = main(["reproduce", "free", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        err_rows = np.loadtxt(tmp_path / "free_error.csv", delimiter=",",
                              skiprows=1)
        # ||(125,125,125) - (25,25,25)|| = 100*sqrt(3) = 173.205...
        assert abs(err_rows[0, 2] - 100.0 * math.sqrt(3)) < 1e-9
        assert "initial position error: 173.205" in out
        truth = read_trace_csv(tmp_path / "free_truth.csv")
        assert truth.y_clean[0] == 1875.0
        est_header = (tmp_path / "free_estimate.csv"
                      ).read_text().splitlines()[0]
        assert est_header == "k,t,xhat1,xhat2,xhat3,err_norm,trace_P"

    def test_current_first_row_current_guess(self, reference_output):
        # the shared `reproduce current` run of the digest test
        out = reference_output("current")
        header, first = (out / "current_estimate.csv"
                         ).read_text().splitlines()[:2]
        cols = header.split(",")
        row = dict(zip(cols, first.split(",")))
        assert [float(row[f"vfhat{i}"]) for i in (1, 2, 3)] == [0.1, -0.1, 0.1]
        assert header == ("k,t,xhat1,xhat2,xhat3,xhat4,xhat5,xhat6,xhat7,"
                          "xhat8,err_norm,trace_P,vfhat1,vfhat2,vfhat3")
        err_header = (out / "current_error.csv"
                      ).read_text().splitlines()[0]
        assert err_header == "k,t,err_norm,vf_err_norm"
