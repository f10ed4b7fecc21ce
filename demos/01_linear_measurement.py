"""From squared range to a linear measurement.

A vehicle moves in 3D with a known velocity and measures only its squared
distance to a beacon at the origin. The squared range is quadratic in the
unknown position, but subtracting the first measurement and the squared
norm of the velocity integral leaves a quantity that is exactly linear in
the initial position:

    (y(t) - y(0) - ||I(t)||^2) / 2  =  I(t) . x0,   I(t) = integral of u

This script simulates a short run, checks the identity sample by sample,
and recovers the initial position by plain least squares.
"""

import numpy as np

from singlerange.observability import build_regression, solve_ls
from singlerange.signals import SinusoidInput, integrate
from singlerange.truthsim import ScenarioConfig, propagate_free

x0 = np.array([25.0, 25.0, 25.0])
input_velocity = SinusoidInput.from_max_speed(
    max_speed=0.5, harmonics=np.array([1, 2, 3]), omega=0.01 * np.pi)

scenario = ScenarioConfig(x0=x0, ts=0.01, steps=4000, input=input_velocity)
trace = propagate_free(scenario)
integral = integrate(scenario.input)

print("agent starts at", x0, "and only ever sees squared ranges\n")

# the derived output is linear in x0: check the identity on a few samples
system = build_regression(trace, integral)
for k in (0, 1000, 2000, 4000):
    direct = integral.values[k] @ x0
    print(f"  k={k:5d}  derived output {system.ybar[k]:12.6f}   "
          f"I_k . x0 {direct:12.6f}")

result = solve_ls(system)
print("\nleast-squares recovery of the initial position:")
print("  estimate   ", result.x0)
print("  truth      ", x0)
print("  rank       ", result.rank, "of 3")
print(f"  condition   {result.condition_number:.1f}")

# the regression also tells us when the position is NOT identifiable:
# push the vehicle along a single axis and the kernel shows what is lost
lame = ScenarioConfig(
    x0=x0, ts=0.01, steps=4000,
    input=lambda t: np.stack([np.cos(t), np.zeros_like(t),
                              np.zeros_like(t)], axis=-1))
lame_trace = propagate_free(lame)
lame_sys = build_regression(lame_trace, integrate(lame.input))
lame_result = solve_ls(lame_sys)
print("\nsingle-axis excitation instead:")
print("  rank", lame_result.rank, "of 3 -> not identifiable")
print("  unidentifiable directions (kernel basis columns):")
print(np.array_str(lame_result.kernel, precision=3, suppress_small=True))
