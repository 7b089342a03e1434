"""Uniform-mesh convergence on weak data.

Six benchmark problems with smoothness parameter alpha combine jump/kink
initial data, Dirac initial velocity, and one-sided polynomial or Dirac
forcing.  The compact scheme's practical error orders track the theoretical
predictions (4/5 alpha rates, capped at 4) and beat the classical weighted
2nd-order scheme by orders of magnitude on the same data.

Run:  python demos/01_uniform_convergence.py
"""

import numpy as np

from compactwave import (
    ErrorObserver,
    SchemeConfig,
    SchemeKind,
    build_time_mesh,
    build_uniform_axis,
    fit_order,
    make_example,
    run,
    theoretical_orders,
)
from compactwave.analysis import NORM_NAMES

RESOLUTIONS = (100, 200, 400)


def study(alpha, kind):
    problem = make_example(alpha)
    points = {norm: [] for norm in NORM_NAMES}
    for n in RESOLUTIONS:
        axis = build_uniform_axis(n, 1.0, -0.5)
        tmesh = build_time_mesh(n, 1.0)  # time step equal to the spatial one
        obs = ErrorObserver(problem.exact, axis, tmesh)
        run(problem, SchemeConfig(kind=kind), [axis], tmesh, observer=obs)
        triple = obs.result().as_dict()
        for norm in NORM_NAMES:
            points[norm].append((n, triple[norm]))
    return points


print(f"{'alpha':>6} {'norm':>4} {'order(4th)':>11} {'theory':>7} "
      f"{'order(2nd)':>11} {'theory':>7} {'err4th(400)':>12} {'err2nd(400)':>12}")
for alpha in (1.5, 2.5, 3.5):
    fourth = study(alpha, SchemeKind.COMPACT_1D)
    second = study(alpha, SchemeKind.SECOND_ORDER)
    th4 = dict(zip(NORM_NAMES, theoretical_orders(alpha, 4)))
    th2 = dict(zip(NORM_NAMES, theoretical_orders(alpha, 2)))
    for norm in NORM_NAMES:
        g4 = fit_order(fourth[norm]).gamma
        g2 = fit_order(second[norm]).gamma
        print(
            f"{alpha:>6} {norm:>4} {g4:>11.3f} {th4[norm]:>7.3f} "
            f"{g2:>11.3f} {th2[norm]:>7.3f} "
            f"{fourth[norm][-1][1]:>12.3E} {second[norm][-1][1]:>12.3E}"
        )

print("\nThe error orders respond to the data smoothness, not to the formal")
print("scheme order: only at alpha = 11/2 does the compact scheme reach its")
print("full 4th order (run the CLI with --full for the larger resolutions).")
