"""Graded spatial meshes: node distributions, step statistics, and the
practical stability rule for the time-step count.

The generalized compact scheme keeps 4th-order accuracy on smoothly graded
layouts (power grading xi^{3/2}, exponential, logarithmic) and degrades
gracefully on the singular gradings xi^{3/4}, xi^{5/8}, xi^{1/2}, where the
weight condition on adjacent step ratios is strongly violated.

Run:  python demos/02_graded_meshes.py
"""

from compactwave import (
    NODE_DISTRIBUTIONS,
    SchemeKind,
    build_graded_axis,
    fit_order,
    make_smooth_nonuniform_problem,
    mesh_stats,
    run_errors,
    step_count,
)

RESOLUTIONS = (100, 200, 400)
KIND = SchemeKind.COMPACT_1D

problem = make_smooth_nonuniform_problem()

print(f"{'phi':>5} {'order':>6} {'err(400)':>10} {'h_max/h_min':>12} "
      f"{'rho_min':>8} {'rho_max':>8} {'M/N':>6}")
for name, phi in NODE_DISTRIBUTIONS.items():
    points = []
    for n in RESOLUTIONS:
        axis = build_graded_axis(phi, n, 1.0, -0.5)
        # practical rule: M = floor(sqrt(2) a T / h_min)
        m = step_count(problem, axis, KIND)
        [(_, triple)] = run_errors(problem, [KIND], axis, m)
        points.append((n, triple.Ch))
    gamma = fit_order(points).gamma
    stats = mesh_stats(build_graded_axis(phi, RESOLUTIONS[-1], 1.0, -0.5))
    print(
        f"{name:>5} {gamma:>6.3f} {points[-1][1]:>10.3E} {stats.ratio:>12.2f} "
        f"{stats.rho_min:>8.4f} {stats.rho_max:>8.4f} {m / RESOLUTIONS[-1]:>6.2f}"
    )

print("\nphi0 is the uniform layout (included for comparison); the graded")
print("scheme reproduces the uniform compact scheme exactly there.")
