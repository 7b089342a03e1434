"""Uniform-mesh convergence on weak data.

Six benchmark problems with smoothness parameter alpha combine jump/kink
initial data, Dirac initial velocity, and one-sided polynomial or Dirac
forcing.  The compact scheme's practical error orders track the theoretical
predictions (4/5 alpha rates, capped at 4) and beat the classical weighted
2nd-order scheme by orders of magnitude on the same data.

Run:  python demos/01_uniform_convergence.py
"""

from compactwave import (
    SchemeKind,
    build_uniform_axis,
    fit_order,
    make_example,
    run_errors,
    step_count,
    theoretical_orders,
)
from compactwave.analysis import NORM_NAMES

RESOLUTIONS = (100, 200, 400)
KINDS = (SchemeKind.COMPACT_1D, SchemeKind.SECOND_ORDER)


def study(alpha):
    """(norm -> [(N, error)]) per kind; both kinds march as one stack."""
    problem = make_example(alpha)
    points = {kind: {norm: [] for norm in NORM_NAMES} for kind in KINDS}
    for n in RESOLUTIONS:
        axis = build_uniform_axis(n, 1.0, -0.5)
        m = step_count(problem, axis, KINDS[0])  # M = N: time step equal to h
        for kind, (_, triple) in zip(KINDS, run_errors(problem, KINDS, axis, m)):
            for norm, err in triple.as_dict().items():
                points[kind][norm].append((n, err))
    return points


print(f"{'alpha':>6} {'norm':>4} {'order(4th)':>11} {'theory':>7} "
      f"{'order(2nd)':>11} {'theory':>7} {'err4th(400)':>12} {'err2nd(400)':>12}")
for alpha in (1.5, 2.5, 3.5):
    fourth, second = study(alpha).values()
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
