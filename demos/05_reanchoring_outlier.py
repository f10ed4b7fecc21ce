"""Re-anchoring: shedding a corrupted reference measurement.

Every derived-output form subtracts the measurement taken at an anchor
instant (initially t = 0). A single outlier there poisons every later
output, so the filter converges to a biased estimate and periodically
re-yanks whenever the measurement row passes near zero. Because the
output identities hold at ANY anchor, the remedy is to periodically
replace the anchor with a fresh measurement while the state estimate
keeps its own update dynamics.

Here the t = 0 squared-range sample is corrupted by +500 m^2. The plain
filter never recovers; the filter that re-anchors every 10 steps sheds
the outlier almost immediately and converges normally.
"""

import numpy as np

from singlerange.estimators import run_free_filter
from singlerange.signals import SinusoidInput, integrate
from singlerange.truthsim import (
    ScenarioConfig,
    TruthTrace,
    propagate_free,
)

scenario = ScenarioConfig(
    x0=np.array([25.0, 25.0, 25.0]), ts=0.01, steps=20000,
    input=SinusoidInput.from_max_speed(0.5, np.array([1, 2, 3]),
                                       0.01 * np.pi))
trace = propagate_free(scenario)

corrupted_y = trace.y.copy()
corrupted_y[0] += 500.0
corrupted = TruthTrace(ts=trace.ts, x=trace.x, y_clean=trace.y_clean,
                       y=corrupted_y)

integral = integrate(scenario.input)
settings = dict(p0=np.full(3, 1e4), q=np.full(3, 1e-4), r=1.0)
x0_hat = np.array([125.0, 125.0, 125.0])

plain = run_free_filter(corrupted, integral, x0_hat, **settings)
anchored = run_free_filter(corrupted, integral, x0_hat,
                           reanchor_every=10, **settings)

print("outlier of +500 m^2 on the very first squared-range sample\n")
print("   t [s]   plain filter err [m]   re-anchored err [m]")
for k in range(0, len(plain.t), len(plain.t) // 10):
    print(f"  {plain.t[k]:6.1f}   {plain.err_norm[k]:17.2f}   "
          f"{anchored.err_norm[k]:16.4f}")
print(f"  {plain.t[-1]:6.1f}   {plain.err_norm[-1]:17.2f}   "
      f"{anchored.err_norm[-1]:16.4f}")

print("\nthe plain filter keeps a persistent output bias; the re-anchored")
print("filter behaves like a clean run after the first anchor refresh.")
