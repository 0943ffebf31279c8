"""Horizontal lifts that finish and lifts that blow up.

The fig1 connection on a 1-d chart has coefficient Gamma(p, v) = -(1 + v^2),
so along the identity path the lift solves c' = 1 + c^2 and follows a shifted
tangent curve.  Seeds below 1/tan(1) reach the far fiber; seeds above it run
away to infinity before t = 1.  An escaping lift steps in c up to |c| = 16
and then in w = -1/c, where it reaches |c| = 1e8, the escape norm, in a few
steps; its last step lands where |c| = 1e8, just before the blow-up.
"""

import numpy as np

from pathlift import IntegratorOptions, completion_threshold, gallery, horizontal_lift, path_segment

conn = gallery("fig1")
path = path_segment([0.0], [1.0])
threshold = 1.0 / np.tan(1.0)
escape_norm = IntegratorOptions().escape_norm

print("lifts of the identity path under fig1")
print(f"closed-form completion threshold: cot(1) = {threshold:.6f}")
print()
print(f"{'v0':>5}  {'status':<9} {'endpoint / escape time':<24} {'closed form':<12} "
      f"{'steps':>5} {'rejected':>8}")
for v0 in (0.0, 0.3, 0.6, 0.7, 1.0, 2.0, 5.0):
    traj = horizontal_lift(conn, path, [v0])
    counts = f"{traj.steps:5d} {traj.rejected:8d}"
    if traj.complete:
        exact = np.tan(1.0 + np.arctan(v0))
        print(f"{v0:5.2f}  {'complete':<9} c(1) = {traj.final_fiber[0]:<16.9f} {exact:<12.9f} {counts}")
    else:
        exact = np.arctan(escape_norm) - np.arctan(v0)  # where c reaches the escape norm
        print(f"{v0:5.2f}  {'escaped':<9} t_e  = {traj.t_escape:<16.9f} {exact:<12.9f} {counts}")

print()
grid = 0.6 + 1e-3 * np.arange(101)
v_star, lo, hi = completion_threshold(conn, path, grid, IntegratorOptions())
print(f"measured threshold from a 1e-3 grid: v* = {v_star:.6f} in [{lo:.3f}, {hi:.3f}]")
print(f"|v* - cot(1)| = {abs(v_star - threshold):.2e}")
