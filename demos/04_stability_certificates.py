"""Time-step condition, sharp spectral constants, and energy certificates.

The compact family is conditionally stable: C0 h_t^2 sum_i a_i^2/h_i^2 must
stay below 1 - eps0^2.  This demo evaluates the condition for the step rule
used by the graded-mesh studies (marginally violated, yet stable in
practice), shows the sharp constant of the mass/stiffness operator
inequality, numerically certifies the strong and weak energy estimates on a
random run, and finally demonstrates what happens when the step rule is
relaxed by a factor of two.

Run:  python demos/04_stability_certificates.py
"""

import math

import numpy as np

from compactwave import (
    SchemeConfig,
    SchemeKind,
    build_time_mesh,
    build_uniform_axis,
    check_cfl,
    make_smooth_nonuniform_problem,
    mesh_stats,
    run_errors,
    select_time_step_count,
    sharp_alpha2,
    step_count,
    verify_energy_bound,
)
from compactwave.problems import ProblemSpec
from compactwave.schemes import assemble

a = 1.0 / math.sqrt(5.0)
axis = build_uniform_axis(800, 1.0, -0.5)
m = select_time_step_count(mesh_stats(axis).h_min, a, 1.0)
report = check_cfl("prod_stiffprod", [axis], (a,), 1.0 / m, math.sqrt(0.5))
print(f"step rule M = {m}: condition value {report.value:.4f} vs threshold "
      f"{report.threshold:.4f} -> passed={report.passed}, marginal={report.marginal}")

alpha2 = sharp_alpha2([axis], (a,), "prod_stiffprod")
bound = 6.0 * a**2 / axis.h**2
print(f"sharp constant alpha^2 = {alpha2:.4E}, upper bound 6 a^2/h^2 = {bound:.4E} "
      f"(ratio {alpha2 / bound:.6f})")

# certify the energy estimates on a random small run
rng = np.random.default_rng(0)
mesh = build_uniform_axis(16, 1.0)
speeds = (1.0,)
h_t = 0.5 * math.sqrt(0.5 / (1.0 / mesh.h**2))
steps = 10
problem = ProblemSpec(
    name="random", speeds=speeds, origin=(0.0,), extents=(1.0,),
    horizon=steps * h_t, u0=lambda x: np.zeros_like(x),
)
tmesh = build_time_mesh(steps, steps * h_t)
scheme = assemble(problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [mesh], tmesh)
u1n = rng.standard_normal(15)
forcing = [rng.standard_normal(15) for _ in range(steps)]
v0 = np.zeros(17)
v0[1:-1] = rng.standard_normal(15)
trajectory = scheme.march_data(v0, u1n, forcing)
certs = verify_energy_bound(scheme, trajectory, u1n, forcing, math.sqrt(0.5))
for which in ("strong", "weak"):
    cert = certs[which]
    print(f"{which:>6} energy estimate: lhs {cert.lhs:.4E} <= rhs {cert.rhs:.4E} "
          f"({cert.satisfied})")

# relaxing the rule by a factor 2 in the condition is catastrophic
problem = make_smooth_nonuniform_problem()
m_bad = step_count(problem, axis, SchemeKind.COMPACT_1D, 1.0 / math.sqrt(2.0))
[(result, _)] = run_errors(problem, [SchemeKind.COMPACT_1D], axis, m_bad)
print(f"\nhalved step rule (M = {m_bad}): blew_up={result.blew_up} after "
      f"{result.completed_levels} levels (exponential growth)")
