"""Uniform-mesh convergence on weak data.

Six benchmark problems with smoothness parameter alpha combine jump/kink
initial data, Dirac initial velocity, and one-sided polynomial or Dirac
forcing.  The compact scheme's practical error orders track the theoretical
predictions (4/5 alpha rates, capped at 4) and beat the classical weighted
2nd-order scheme by orders of magnitude on the same data.

Run:  python demos/01_uniform_convergence.py
"""

from compactwave import SchemeKind
from compactwave.analysis import NORM_NAMES, study

RESOLUTIONS = (100, 200, 400)
KINDS = (SchemeKind.COMPACT_1D, SchemeKind.SECOND_ORDER)

# both kinds march as one stack on each problem's uniform axis at M = N (h_t = h)
reports = study([(f"E_{alpha}", "uniform", RESOLUTIONS) for alpha in (1.5, 2.5, 3.5)], KINDS)

print(f"{'alpha':>6} {'norm':>4} {'order(4th)':>11} {'theory':>7} "
      f"{'order(2nd)':>11} {'theory':>7} {'err4th(400)':>12} {'err2nd(400)':>12}")
for fourth, second in zip(reports[::2], reports[1::2]):
    fourth.fit()
    second.fit()
    err4, err2 = fourth.results[-1][1].as_dict(), second.results[-1][1].as_dict()
    for norm in NORM_NAMES:
        print(
            f"{fourth.alpha:>6} {norm:>4} {fourth.fits[norm].gamma:>11.3f} "
            f"{fourth.gamma_th[norm]:>7.3f} {second.fits[norm].gamma:>11.3f} "
            f"{second.gamma_th2[norm]:>7.3f} {err4[norm]:>12.3E} {err2[norm]:>12.3E}"
        )

print("\nThe error orders respond to the data smoothness, not to the formal")
print("scheme order: only at alpha = 11/2 does the compact scheme reach its")
print("full 4th order (run the CLI with --full for the larger resolutions).")
