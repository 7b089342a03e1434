"""Compact 4th-order finite-difference solvers for the wave equation on
uniform and graded rectangular meshes, with stability certification and a
convergence-order harness."""

from . import analysis, mesh, operators, problems, schemes, solvers, stability
from .analysis import ErrorObserver, ErrorTriple, fit_order, run_errors, theoretical_orders
from .mesh import (
    AxisMesh,
    MeshStats,
    NODE_DISTRIBUTIONS,
    TimeMesh,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
    select_time_step_count,
)
from .operators import PiecewiseData
from .problems import ProblemSpec, catalog, make_example, make_smooth_nonuniform_problem
from .schemes import RunResult, Scheme, SchemeKind, run_explicit_characteristic, step_count
from .stability import check_cfl, largest_step, random_run, sharp_alpha2, verify_energy_bound

__version__ = "0.1.0"
