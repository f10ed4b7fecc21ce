"""Session-scoped runs that several tests read.

A full 22 500-step current-model filter takes about 2 s, so each run that
more than one test needs is made once per session here and shared:

* reference_output: the pinned reference CLI runs (helpers.REFERENCE_RUNS);
* bundled_run: library runs of the bundled configs, with their wall time;
* noiseless_current_run: the current-model test scenario filtered with
  q = 0.

Tests only read what these return.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import NOISELESS_CURRENT_FILTER, REFERENCE_RUNS, current_setup
from singlerange.cli import main
from singlerange.config import (
    builtin_current_config,
    builtin_free_config,
    dump_config,
)
from singlerange.estimators import FilterRun, run_current_filter, run_free_filter
from singlerange.signals import IntegralTrace, integrate
from singlerange.truthsim import TruthTrace, propagate_current, propagate_free


@pytest.fixture(scope="session")
def reference_output(tmp_path_factory):
    """Output directory of a reference CLI run; each run happens once."""
    done = {}

    def output(name):
        if name not in done:
            out = tmp_path_factory.mktemp(name)
            argv = REFERENCE_RUNS[name][0] + ["--out", str(out)]
            if name == "estimate_trace":
                config = out / "current.yaml"
                config.write_text(dump_config(builtin_current_config()))
                trace = output("current") / "current_truth.csv"
                argv += ["--config", str(config), "--trace", str(trace)]
            assert main(argv) == 0
            done[name] = out
        return done[name]

    return output


@dataclass(frozen=True)
class BundledRun:
    """A bundled config filtered through the library.

    elapsed is the wall time of the config build, scenario, truth
    propagation, input integral and filter together.
    """

    cfg: object
    trace: TruthTrace
    integral: IntegralTrace
    run: FilterRun
    elapsed: float


def _filter_bundled(mode, seed):
    t_start = time.perf_counter()
    cfg = builtin_free_config() if mode == "free" else builtin_current_config()
    scenario = cfg.scenario(seed=seed)
    fc = cfg.filter
    if mode == "free":
        trace = propagate_free(scenario)
        ii = integrate(scenario.input)
        run = run_free_filter(trace, ii, np.array(fc.x0_hat),
                              np.array(fc.p0_diag), np.array(fc.q_diag), fc.r)
    else:
        trace = propagate_current(scenario)
        ii = integrate(scenario.input)
        run = run_current_filter(trace, ii, np.array(fc.x0_hat),
                                 np.array(fc.vf_hat), np.array(fc.p0_diag),
                                 np.array(fc.q_diag), fc.r, np.array(cfg.s),
                                 v_f_true=np.array(cfg.v_f))
    return BundledRun(cfg, trace, ii, run, time.perf_counter() - t_start)


@pytest.fixture(scope="session")
def bundled_run():
    """bundled_run(mode, seed=None): the bundled "free" or "current" run.

    seed None keeps the config's seed; each (mode, seed) runs once.
    """
    done = {}

    def run(mode, seed=None):
        if (mode, seed) not in done:
            done[mode, seed] = _filter_bundled(mode, seed)
        return done[mode, seed]

    return run


@pytest.fixture(scope="session")
def noiseless_current_run():
    """22 500 noiseless literature-profile steps filtered with q = 0."""
    cfg, trace, ii = current_setup(steps=22500)
    return run_current_filter(trace, ii, s=cfg.s, v_f_true=cfg.v_f,
                              **NOISELESS_CURRENT_FILTER)
