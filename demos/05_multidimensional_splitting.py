"""Multidimensional schemes: sine-transform solves versus operator splitting.

For n >= 2 the implicit compact step can be solved either with fast sine
transforms (the step operator is diagonal over the tensor sine basis) or by
factorizing it into per-axis tridiagonal solves.  The factorization differs
from the unsplit operator by a 4th-order residual, so both advance the same
solution to scheme accuracy.

Run:  python demos/05_multidimensional_splitting.py
"""

import numpy as np

from compactwave import Scheme, SchemeKind, build_time_mesh, build_uniform_axis
from compactwave.operators import pair_appliers, step_factor
from compactwave.problems import make_sine_mode_problem
from compactwave.solvers import SplittingHandle

problem = make_sine_mode_problem((1.0, 1.3), (1.0, 0.8), (2, 1))
meshes = [build_uniform_axis(24, 1.0), build_uniform_axis(20, 0.8)]
tmesh = build_time_mesh(60, 1.0)
grids = np.meshgrid(*(m.nodes for m in meshes), indexing="ij")

for kind in (SchemeKind.COMPACT_2D_SUM, SchemeKind.COMPACT_ND, SchemeKind.SPLITTING):
    err = 0.0

    def watch(level, t, v):
        global err
        err = max(err, float(np.max(np.abs(problem.exact(*grids, t) - v))))

    result = Scheme(problem, kind, meshes, tmesh).run(watch)
    print(f"{kind.value:>10}: stable={result.stable}, max error vs exact mode {err:.3E}")

# the factorization identity behind the splitting scheme
rng = np.random.default_rng(1)
h_t = tmesh.h_t
speeds = problem.speeds
values = rng.standard_normal(tuple(m.nodes.size for m in meshes))
# the splitting pair's mass: tensor average plus the factorization residual
mass, stiffness = pair_appliers("prod_residual_stiffprod", meshes, speeds, h_t)
handle = SplittingHandle([step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)])
lhs = handle.apply(values)
rhs = mass(values) + h_t**2 / 12.0 * stiffness(values)
print(f"\nfactorized step = unsplit step + residual: max identity defect "
      f"{float(np.max(np.abs(lhs - rhs))):.3E}")
