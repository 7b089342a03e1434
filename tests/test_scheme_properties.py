"""Property tests of the step solve of every implicit backend: drawn axes,
speeds and time steps; the factored and spectral solves against the step
operator they invert and against a dense oracle."""

import dataclasses

import numpy as np
import pytest

from compactwave.mesh import (
    NODE_DISTRIBUTIONS,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
)
from compactwave.schemes import _KINDS, Scheme, SchemeKind
from oracles import assemble_dense_operator, dense_solve_oracle
from test_schemes import IMPLICIT_KINDS, zero_problem

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# hypothesis imports libcst to print a failing example, and libcst's import
# raises this DeprecationWarning; ignored here so that a failure is reported
# as a failed test instead of aborting the session
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


# every implicit (kind, ndim) on uniform axes, and every factored kind on
# drawn phi0..phi6 axes (ndim None: the dimension is drawn from the kind's)
BACKEND_CASES = IMPLICIT_KINDS + [
    (SchemeKind.COMPACT_1D, None),
    (SchemeKind.SECOND_ORDER, None),
    (SchemeKind.SPLITTING, None),
]
_PROPERTY_SETTINGS = hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def _step_instance(draw, kind, ndim):
    """A scheme of `kind` on drawn axes, speeds and time step (at most the
    characteristic step h_min/a), and a seed for its right-hand side."""
    if ndim is None:
        dims = draw(st.sampled_from(_KINDS[kind].dims))
        sizes = st.integers(8, 80) if dims == 1 else st.integers(3, 8)
        meshes = [
            build_graded_axis(
                NODE_DISTRIBUTIONS[draw(st.sampled_from(sorted(NODE_DISTRIBUTIONS)))],
                draw(sizes),
                1.0,
                -0.5,
            )
            for _ in range(dims)
        ]
    else:
        top = 40 if ndim == 1 else 8
        meshes = [
            build_uniform_axis(draw(st.integers(3, top)), draw(st.floats(0.5, 2.0)))
            for _ in range(ndim)
        ]
    speeds = tuple(draw(st.floats(0.5, 1.5)) for _ in meshes)
    h_t = draw(st.floats(0.05, 1.0)) * min(mesh_stats(m).h_min for m in meshes) / max(speeds)
    problem = dataclasses.replace(zero_problem(len(meshes)), speeds=speeds)
    scheme = Scheme(problem, kind, meshes, build_time_mesh(4, 4.0 * h_t))
    return scheme, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("kind,ndim", BACKEND_CASES)
@_PROPERTY_SETTINGS
@hypothesis.given(data=st.data())
def test_solve_step_carries_trace_and_inverts_step_operator(kind, ndim, data):
    untraced, rng = data.draw(_step_instance(kind, ndim))
    shift = rng.uniform(-1.0, 1.0)
    problem = dataclasses.replace(
        untraced.problem, exact=lambda *args: np.cos(args[0] + shift) + args[-1]
    )
    scheme = Scheme(problem, untraced.kind, untraced.meshes, untraced.tmesh)
    shape = tuple(m.nodes.size for m in scheme.meshes)
    interior = tuple(slice(1, -1) for _ in shape)
    rhs = rng.standard_normal(tuple(s - 2 for s in shape))
    t = scheme.tmesh.nodes[2]
    got = scheme.solve_step(rhs, t, np.zeros(shape))
    trace = np.zeros(shape)
    scheme.boundary_values(trace, t)
    faces = np.ones(shape, dtype=bool)
    faces[interior] = False
    assert np.array_equal(got[faces], trace[faces])
    back = scheme.apply_step_operator_interior(got)
    assert np.max(np.abs(back - rhs)) <= 1e-12 * np.max(np.abs(rhs))


@pytest.mark.parametrize("kind,ndim", BACKEND_CASES)
@_PROPERTY_SETTINGS
@hypothesis.given(data=st.data())
def test_solve_step_matches_dense_oracle_with_zero_trace(kind, ndim, data):
    scheme, rng = data.draw(_step_instance(kind, ndim))
    shape = tuple(m.nodes.size for m in scheme.meshes)
    interior = tuple(slice(1, -1) for _ in shape)
    inner_shape = tuple(s - 2 for s in shape)

    def step_operator(values):
        full = np.zeros(shape)
        full[interior] = values
        return scheme.apply_step_operator_interior(full)

    rhs = rng.standard_normal(inner_shape)
    dense = assemble_dense_operator(step_operator, inner_shape)
    expected = dense_solve_oracle(dense, rhs.reshape(-1)).reshape(inner_shape)
    got = scheme.solve_step(rhs, scheme.tmesh.nodes[2], np.zeros(shape))
    assert np.count_nonzero(got) == np.count_nonzero(got[interior])
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(got[interior] - expected)) <= 1e-11 * scale


@pytest.mark.parametrize("kind,ndim", BACKEND_CASES)
@_PROPERTY_SETTINGS
@hypothesis.given(data=st.data())
def test_marched_levels_satisfy_the_increment_equations(kind, ndim, data):
    # every level of a march solves its step equation for the increment,
    # S (v^1 - v^0) = h_t u1n + (h_t^2/2) (f^0 - A v^0) and
    # S (v^{m+1} - 2 v^m + v^{m-1}) = h_t^2 (f^m - A v^m), with the step
    # operator S applied to the whole difference, faces included; every
    # face holds the trace exactly
    drawn, rng = data.draw(_step_instance(kind, ndim))
    problem = drawn.problem
    if data.draw(st.booleans(), label="traced"):
        shift = rng.uniform(-1.0, 1.0)
        exact = lambda *args: np.cos(args[0] + shift) * (1.0 + args[-1])
        problem = dataclasses.replace(problem, exact=exact)
    tmesh = build_time_mesh(8, 8.0 * drawn.h_t)
    scheme = Scheme(problem, drawn.kind, drawn.meshes, tmesh)
    shape = tuple(m.nodes.size for m in scheme.meshes)
    interior = tuple(slice(1, -1) for _ in shape)
    inner_shape = tuple(s - 2 for s in shape)
    # v0's faces are drawn too: a base level off the trace is lifted as well
    v0 = rng.standard_normal(shape)
    u1n = rng.standard_normal(inner_shape)
    forcing = [rng.standard_normal(inner_shape) for _ in range(tmesh.n_steps)]
    levels = scheme.march_data(v0, u1n, forcing)
    assert len(levels) == tmesh.n_steps + 1
    h_t = scheme.h_t
    faces = np.ones(shape, dtype=bool)
    faces[interior] = False
    for m in range(tmesh.n_steps):
        if m == 0:
            diff = levels[1] - levels[0]
            rhs = h_t * u1n + 0.5 * h_t**2 * (forcing[0] - scheme.apply_a_interior(levels[0]))
        else:
            diff = levels[m + 1] - 2.0 * levels[m] + levels[m - 1]
            rhs = h_t**2 * (forcing[m] - scheme.apply_a_interior(levels[m]))
        scale = max(np.max(np.abs(rhs)), *(np.max(np.abs(v)) for v in levels[max(m - 1, 0):m + 2]))
        assert np.max(np.abs(scheme.apply_step_operator_interior(diff) - rhs)) <= 1e-12 * scale
        trace = np.zeros(shape)
        scheme.boundary_values(trace, tmesh.nodes[m + 1])
        assert np.array_equal(levels[m + 1][faces], trace[faces])
