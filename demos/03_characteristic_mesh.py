"""The explicit scheme on the mesh aligned with the characteristics.

With the time step h_t = h/a the implicit compact scheme collapses to an
explicit four-point recursion whose nodes all lie on characteristics.  With
the cell-averaged data (midpoint integral for the initial velocity, triangle
and rhomb averages for the forcing) the recursion reproduces the exact
solution at every node up to roundoff, even for data with jumps and Dirac
atoms.

Run:  python demos/03_characteristic_mesh.py
"""

import dataclasses

import numpy as np

from compactwave import SchemeKind, make_example, run_errors, step_count
from compactwave.problems import make_sine_mode_problem


def max_nodal_error(problem, n, m):
    """Ch, the largest error over every node and level of the run."""
    axis = problem.axis(n)
    [(_, triple)] = run_errors(problem, [SchemeKind.EXPLICIT_CHARACTERISTIC], axis, m)
    return triple.Ch


problem = make_example(1.5)
for n in (20, 40, 80):
    # steps of h/a up to the horizon T = 1
    m = step_count(problem, problem.axis(n), SchemeKind.EXPLICIT_CHARACTERISTIC)
    err = max_nodal_error(problem, n, m)
    print(f"jump-velocity data, N={n:3d}, M={m:3d}: max nodal error {err:.3E}")

print()
# the sine mode measured against its travelling-wave form
travelling = lambda x, t: 0.5 * (np.sin(2 * np.pi * (x - t)) + np.sin(2 * np.pi * (x + t)))
smooth = dataclasses.replace(make_sine_mode_problem((1.0,), (1.0,), (2,)), exact=travelling)
err = max_nodal_error(smooth, 32, 24)
print(f"travelling sine waves, N=32, M=24: max nodal error {err:.3E}")
print("\nBoth runs agree with the closed-form solution to roundoff: the")
print("errors above are pure floating-point noise, not discretization error.")
