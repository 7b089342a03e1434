import math

import numpy as np
import pytest

from compactwave import operators, schemes
from compactwave.mesh import build_time_mesh, build_uniform_axis
from compactwave.operators import (
    PiecewiseData,
    PPiece,
    QPiece,
    SeparableTerm,
    SpaceDirac,
    TimeDirac,
    _dalembert_forcing_part,
    _forcing_convolution,
    _signed_power,
    _signed_power_antideriv,
)
from compactwave.problems import (
    EXAMPLE_ALPHAS,
    EXAMPLE_COEFFICIENTS,
    catalog,
    make_example,
    make_sine_mode_problem,
    make_smooth_nonuniform_problem,
)
from oracles import (
    example_exact_frozen,
    forcing_convolution_gauss,
    signed_power_antideriv_pow,
    signed_power_pow,
)

try:
    import hypothesis
except ImportError:  # without the "test" extra only the property test skips
    hypothesis = None


def test_eval_P_pointwise():
    assert PPiece(0).eval(-0.3) == 0.0
    assert PPiece(0).eval(0.3) == 1.0
    assert PPiece(0).eval(0.0) == 0.5
    assert PPiece(2).eval(0.25) == pytest.approx(0.25)
    assert PPiece(2).eval(-0.25) == pytest.approx(-0.25)
    assert PPiece(1).eval(0.25) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="SpaceDirac"):
        PPiece(-1)  # the degree -1 piece is the atom


def test_eval_Q_pointwise():
    t_star = 0.4
    assert QPiece(1, t_star).eval(t_star + 0.2) == pytest.approx(0.2)
    assert QPiece(1, t_star).eval(t_star - 0.1) == 0.0
    assert QPiece(0, t_star).eval(t_star + 0.1) == 1.0
    assert QPiece(0, t_star).eval(t_star) == 0.5
    with pytest.raises(ValueError, match="TimeDirac"):
        QPiece(-1, t_star)  # the degree -1 piece is the atom


def test_antiderivative_matches_quadrature():
    from scipy.integrate import quad

    assert PPiece(0).antideriv(-0.8) == 0.0
    assert PPiece(0).antideriv(0.8) == pytest.approx(0.8)
    for k in range(1, 5):
        for x in np.linspace(-0.8, 0.8, 9):
            oracle, _ = quad(lambda s: float(PPiece(k).eval(s)), 0.0, x, limit=200)
            assert PPiece(k).antideriv(x) == pytest.approx(oracle, abs=1e-10), (k, x)


def test_catalog_construction():
    for alpha in EXAMPLE_ALPHAS:
        spec = make_example(alpha)
        assert spec.alpha == alpha
        assert spec.t_star == pytest.approx(0.5)
        assert spec.speeds[0] == pytest.approx(1.0 / math.sqrt(5.0))
    spec = make_example(0.5)
    assert isinstance(spec.u1_data.terms[0].space, SpaceDirac)
    assert isinstance(spec.f_data.terms[0].space, SpaceDirac)
    assert isinstance(spec.f_data.terms[0].time, TimeDirac)
    spec = make_example(4.5)
    c1, c2, c3 = EXAMPLE_COEFFICIENTS[4.5]
    assert (c1, c2, c3) == (3.7, 13.0, 31.0)
    assert spec.u1_data.terms[0].coef == c1
    assert isinstance(spec.u1_data.terms[0].space, PPiece)
    assert spec.u1_data.terms[0].space.degree == 3
    term2 = spec.f_data.terms[1]
    assert isinstance(term2.time, QPiece) and term2.time.degree == 1


def test_unknown_alpha_rejected():
    with pytest.raises(ValueError):
        make_example(2.0)
    with pytest.raises(KeyError):
        catalog("E_9.9")


def test_initial_consistency():
    # exact solution at t=0 equals the initial data at continuity points
    xs = np.linspace(-0.49, 0.49, 41)
    xs = xs[np.abs(xs) > 1e-3]
    for alpha in EXAMPLE_ALPHAS:
        spec = make_example(alpha)
        assert np.max(np.abs(spec.exact(xs, 0.0) - spec.u0(xs))) < 1e-12, alpha


def test_trace_consistency_all_catalog():
    # boundary traces of the exact solution match the smooth g formulas
    ts = np.linspace(0.0, 1.0, 101)
    for alpha in EXAMPLE_ALPHAS:
        spec = make_example(alpha)
        g0, g1 = spec.g
        left = np.array([spec.exact(spec.origin[0], t) for t in ts])
        right = np.array([spec.exact(spec.origin[0] + spec.extents[0], t) for t in ts])
        assert np.max(np.abs(left - g0(ts))) < 1e-11, alpha
        assert np.max(np.abs(right - g1(ts))) < 1e-11, alpha


def test_trace_consistency_smooth():
    spec = make_smooth_nonuniform_problem()
    ts = np.linspace(0.0, 1.0, 101)
    g0, g1 = spec.g
    left = np.array([float(spec.exact(-0.5, t)) for t in ts])
    right = np.array([float(spec.exact(0.5, t)) for t in ts])
    assert np.max(np.abs(left - g0(ts))) < 1e-12
    assert np.max(np.abs(right - g1(ts))) < 1e-12
    assert g0(0.0) == pytest.approx(0.0, abs=1e-15)


def test_smooth_traces_take_scalar_arithmetic_for_a_float_time():
    spec = make_smooth_nonuniform_problem()
    ts = np.linspace(0.0, 1.0, 41)
    for g in spec.g:
        batch = g(ts)
        for t, expected in zip(ts, batch):
            value = g(float(t))
            assert isinstance(value, float) and np.ndim(value) == 0
            if t < 0.25:
                # the bracket cancels O(1) terms to zero at t = 0
                assert abs(value - expected) <= 4.0 * np.finfo(float).eps
            else:
                np.testing.assert_array_max_ulp(value, expected, maxulp=4)


def test_g1_vanishing_branch_for_quadratic_data():
    # the odd trace part vanishes when the data degree is two
    spec = make_example(2.5)
    g0, g1 = spec.g
    a = spec.speeds[0]
    ts = np.linspace(0.0, 1.0, 7)
    even = 0.5 * ((1 - 2 * a * ts) ** 2 + (1 + 2 * a * ts) ** 2)
    assert np.allclose(g1(ts), even, atol=1e-14)
    assert np.allclose(g0(ts), -even, atol=1e-14)


def test_strong_solution_pde_residual():
    # for alpha >= 7/2 the solution is strong away from the singular lines:
    # the centred second differences must reproduce the forcing as delta -> 0
    for alpha in (3.5, 4.5):
        spec = make_example(alpha)
        a = spec.speeds[0]
        k = int(alpha)
        c1, c2, c3 = EXAMPLE_COEFFICIENTS[alpha]

        def f_value(x, t):
            total = c2 * PPiece(0).eval(x) * QPiece(k - 2, spec.t_star).eval(t)
            total += c3 * PPiece(1).eval(x) * QPiece(k - 3, spec.t_star).eval(t)
            return total

        rng = np.random.default_rng(int(alpha * 10))
        pts = []
        while len(pts) < 6:
            x = rng.uniform(-0.45, 0.45)
            t = rng.uniform(0.05, 0.95)
            # stay away from the singular characteristics and t = t_*
            lines = [abs(t - spec.t_star)]
            lines += [abs(abs(x) - a * t), abs(abs(x) - a * abs(t - spec.t_star))]
            lines += [abs((t - spec.t_star) - (0.5 - x) / a)]
            if min(lines) > 0.05:
                pts.append((x, t))
        for x, t in pts:
            prev = None
            for delta in (1e-3, 5e-4):
                utt = (
                    spec.exact(x, t + delta) - 2 * spec.exact(x, t) + spec.exact(x, t - delta)
                ) / delta**2
                uxx = (
                    spec.exact(x + delta, t) - 2 * spec.exact(x, t) + spec.exact(x - delta, t)
                ) / delta**2
                residual = abs(float(utt - a * a * uxx - f_value(x, t)))
                if prev is not None:
                    assert residual < 0.3 * prev or residual < 1e-7
                prev = residual


def test_smooth_problem_pde_residual():
    spec = make_smooth_nonuniform_problem()
    a = spec.speeds[0]
    rng = np.random.default_rng(1)
    for _ in range(8):
        x = rng.uniform(-0.4, 0.4)
        t = rng.uniform(0.1, 0.9)
        delta = 1e-4
        utt = (spec.exact(x, t + delta) - 2 * spec.exact(x, t) + spec.exact(x, t - delta)) / delta**2
        uxx = (spec.exact(x + delta, t) - 2 * spec.exact(x, t) + spec.exact(x - delta, t)) / delta**2
        assert abs(float(utt - a * a * uxx - spec.f_fn(np.asarray(x), t))) < 1e-5


def test_forcing_part_against_triangle_quadrature():
    # independent iterated quadrature of the forcing integral over the
    # backward cone (breakpoints declared to the adaptive integrator)
    from scipy.integrate import quad

    spec = make_example(3.5)
    a = spec.speeds[0]
    c1, c2, c3 = EXAMPLE_COEFFICIENTS[3.5]
    k = 3

    def u_from_quadrature(x, t):
        u0p = 0.5 * (PPiece(k).eval(x - a * t) + PPiece(k).eval(x + a * t))
        u1_breaks = [p for p in (0.0,) if x - a * t < p < x + a * t]
        u1p, _ = quad(lambda s: float(PPiece(k - 1).eval(s)), x - a * t, x + a * t,
                      points=u1_breaks or None, limit=200)
        u1p *= c1 / (2 * a)

        def inner(s):
            lo, hi = x - a * (t - s), x + a * (t - s)
            breaks = [p for p in (0.0,) if lo < p < hi]
            val, _ = quad(
                lambda xi: float(
                    c2 * PPiece(0).eval(xi) * (s - spec.t_star)
                    + c3 * PPiece(1).eval(xi) * QPiece(0, spec.t_star).eval(s)
                ),
                lo,
                hi,
                points=breaks or None,
                limit=200,
            )
            return val

        s_breaks = [s for s in (t - x / a, t + x / a) if spec.t_star < s < t]
        total, _ = quad(inner, spec.t_star, t, points=s_breaks or None, limit=200)
        total /= 2 * a
        refl = c2 * max((t - spec.t_star) - (0.5 - x) / a, 0.0) ** k / (k * (k - 1))
        return u0p + u1p + total - refl

    for x, t in ((0.1, 0.8), (-0.2, 0.9), (0.3, 0.7)):
        assert float(spec.exact(x, t)) == pytest.approx(u_from_quadrature(x, t), abs=1e-9)


def test_singular_lines_take_average_of_one_sided_limits():
    # E_0.5 jumps across x = +-a t (data) and x = +-a (t - t_*) (forcing);
    # on those lines the evaluator returns the mean of the limits in x,
    # also where the point misses the line by roundoff (except at the apex
    # (0, t_*), checked last)
    spec = make_example(0.5)
    a, t_star = spec.speeds[0], spec.t_star
    n = 40
    h = 1.0 / n
    h_t = h / a
    nodes = -0.5 + np.arange(n + 1) * 1.0 / n
    points = []
    for m in range(0, 18):
        for j in (n // 2 - m, n // 2 + m):
            points.append((nodes[j], m * h_t))
    for t in (0.6, 0.75, 0.9):
        for side in (-1.0, 1.0):
            x = side * a * (t - t_star)
            points += [(x, t), (np.nextafter(x, np.inf), t), (np.nextafter(x, -np.inf), t)]
    delta = 1e-7
    for x, t in points:
        limits = 0.5 * (spec.exact(x + delta, t) + spec.exact(x - delta, t))
        assert float(spec.exact(x, t)) == pytest.approx(float(limits), abs=1e-12), (x, t)
    # the apex (0, t_*) of the forcing cone is the exception: both x-limits
    # miss the forcing wave, and the evaluator adds 1/4 of its jump
    # c3 / (2a), the weight the characteristic-mesh scheme gives an atom on
    # a footprint corner
    (term,) = spec.f_data.terms
    before = float(spec.exact(0.0, t_star - delta))
    quarter = 0.25 * term.coef / (2.0 * a)
    assert float(spec.exact(0.0, t_star)) == pytest.approx(before + quarter, abs=1e-12)
    limits = 0.5 * (spec.exact(delta, t_star) + spec.exact(-delta, t_star))
    assert float(limits) == pytest.approx(before, abs=1e-12)


def test_pure_dalembert_sine():
    spec = make_sine_mode_problem((1.0,), (1.0,), (2,))
    a = 1.0
    xs = np.linspace(0.0, 1.0, 11)
    t = 0.37
    expected = 0.5 * (np.sin(2 * np.pi * (xs - a * t)) + np.sin(2 * np.pi * (xs + a * t)))
    assert np.allclose(spec.exact(xs, t), expected, atol=1e-12)


def test_smooth_problem_rejects_unit_speed():
    with pytest.raises(ValueError):
        make_smooth_nonuniform_problem(a=1.0)


def test_catalog_lookup():
    assert catalog("E_2.5").alpha == 2.5
    assert catalog("smooth1d").name == "smooth1d"
    with pytest.raises(KeyError):
        catalog("nope")


def test_integer_signed_powers_match_float_pow():
    rng = np.random.default_rng(6)
    x = np.concatenate(
        [np.linspace(-0.75, 0.75, 1201), rng.uniform(-3.0, 3.0, 4000), [1e-300, -1e-300]]
    )
    for k in range(2, 7):
        np.testing.assert_array_max_ulp(_signed_power(k, x), signed_power_pow(k, x), maxulp=4)
    for k in range(2, 5):
        np.testing.assert_array_max_ulp(
            _signed_power_antideriv(k, x), signed_power_antideriv_pow(k, x), maxulp=4
        )
    for k in range(2, 7):
        assert _signed_power(k, 0.0) == 0.0 and _signed_power_antideriv(k, 0.0) == 0.0
        # scalars in, scalars out: the d'Alembert formula evaluates single points
        assert np.ndim(_signed_power(k, -0.3)) == 0
        assert float(_signed_power(k, -0.3)) == pytest.approx(
            float(signed_power_pow(k, -0.3)), rel=1e-15
        )


@pytest.mark.skipif(hypothesis is None, reason="property test needs hypothesis")
# hypothesis imports libcst to print a failing example, which warns on import
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
def test_forcing_convolution_matches_gauss_oracle():
    st = hypothesis.strategies
    tau = st.one_of(st.just(0.0), st.floats(-1.0, 0.0), st.floats(0.0, 1.0))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        j=st.integers(0, 3),
        degree=st.integers(0, 3),
        a=st.floats(0.25, 3.0),
        tau=tau,
        xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
    )
    def check(j, degree, a, tau, xs):
        # nodes exactly on the cone's sides x = +-a tau and on the breakpoint
        x = np.array(xs + [a * tau, -a * tau, 0.0])
        new = _forcing_convolution(j, degree, x, np.asarray(tau), a)
        ref = forcing_convolution_gauss(j, degree, x, tau, a)
        assert new.shape == x.shape
        assert np.all(np.abs(new - ref) <= 1e-13 * (1.0 + np.abs(ref)))

    check()


@pytest.mark.skipif(hypothesis is None, reason="property test needs hypothesis")
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
def test_cone_integral_of_a_block_of_times_equals_the_scalar_calls_bitwise():
    # the characteristic runner's call: a (B, N+1) block of levels at once,
    # against one call per level, with terms switched on inside the block, so
    # that rows before a t_* take that term's exact zeros where a scalar call
    # skips it
    st = hypothesis.strategies
    block = schemes._BLOCK
    space = st.one_of(
        st.builds(PPiece, st.integers(0, 3)), st.builds(SpaceDirac, st.floats(-0.5, 0.5))
    )

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(2, 60))
        a = data.draw(st.floats(0.25, 3.0))
        nodes = build_uniform_axis(n, 1.0, -0.5).nodes
        times = (data.draw(st.integers(0, 3 * block)) + np.arange(block)) * (1.0 / n / a)
        # t_* on a level of the block or anywhere between its first and last
        t_star = st.one_of(st.sampled_from(list(times)), st.floats(times[0], times[-1]))
        time = st.one_of(st.builds(QPiece, st.integers(0, 3), t_star), st.builds(TimeDirac, t_star))
        terms = PiecewiseData(tuple(data.draw(st.lists(
            st.builds(SeparableTerm, st.floats(-2.0, 2.0), space, time), min_size=1, max_size=4
        ))))
        got = _dalembert_forcing_part(terms, nodes[None, :], times[:, None], a)
        want = np.stack([_dalembert_forcing_part(terms, nodes, t, a) for t in times])
        assert got.tobytes() == want.tobytes()
        off = got[times < min(term.time.t_star for term in terms)]
        assert np.all(off == 0.0) and not np.any(np.signbit(off))

    check()


def test_forcing_convolution_broadcasts_like_the_oracle():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, 50)
    tau = rng.uniform(-0.5, 1.0, 50)
    for j in range(4):
        for degree in range(4):
            for xs, ts in ((x, tau), (x[:, None], tau[None, :7]), (0.1, tau)):
                new = _forcing_convolution(j, degree, xs, ts, 0.4)
                ref = forcing_convolution_gauss(j, degree, xs, ts, 0.4)
                assert new.shape == ref.shape
                assert np.all(np.abs(new - ref) <= 1e-13 * (1.0 + np.abs(ref)))


def test_catalog_exact_matches_gauss_convolution_at_scale(monkeypatch):
    # every level of the N = 800 runs on [0, 1] (time step h, as the studies
    # use), the closed-form forcing against the quadrature oracle
    n = 800
    closed = {}
    for alpha in EXAMPLE_ALPHAS:
        spec = make_example(alpha)
        nodes = build_uniform_axis(n, spec.extents[0], spec.origin[0]).nodes
        closed[alpha] = (spec, nodes, [spec.exact(nodes, t) for t in np.arange(n + 1) / n])
    monkeypatch.setattr(operators, "_forcing_convolution", forcing_convolution_gauss)
    for alpha, (spec, nodes, values) in closed.items():
        worst = max(
            float(np.max(np.abs(v - spec.exact(nodes, t))))
            for v, t in zip(values, np.arange(n + 1) / n)
        )
        assert worst <= 1e-13, (alpha, worst)


def _study_times(spec, n):
    """The nodes of a uniform axis with n intervals and the time meshes that
    the studies run on it: the step rule's and the characteristic mesh's."""
    axis = build_uniform_axis(n, spec.extents[0], spec.origin[0])
    tmesh = build_time_mesh(schemes.step_count(spec, axis, "compact1d"), spec.horizon)
    m_char = schemes.step_count(spec, axis, "characteristic")
    return axis.nodes, (tmesh.nodes, schemes.characteristic_meshes(spec, n, m_char)[1].nodes)


@pytest.mark.parametrize("alpha", EXAMPLE_ALPHAS)
def test_catalog_exact_equals_the_frozen_evaluator_bitwise(alpha):
    # every level of the step-rule and characteristic meshes of the study
    # sizes (an odd N too), one time per call as the observer asks and one
    # (nodes x times) block: the same bytes as the evaluator frozen in
    # oracles, sign of zero included, and the block equals the scalar calls
    spec = make_example(alpha)
    frozen = example_exact_frozen(alpha)
    for n in (20, 40, 41, 200):
        nodes, meshes = _study_times(spec, n)
        for times in meshes:
            levels = np.stack([spec.exact(nodes, t) for t in times])
            want = np.stack([frozen(nodes, t) for t in times])
            assert levels.tobytes() == want.tobytes(), (n, times.size)
            block = spec.exact(nodes[None, :], times[:, None])
            assert block.tobytes() == levels.tobytes(), (n, times.size)
            assert block.tobytes() == frozen(nodes[None, :], times[:, None]).tobytes()


@pytest.mark.skipif(hypothesis is None, reason="property test needs hypothesis")
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
def test_catalog_exact_on_its_singular_lines_equals_the_frozen_evaluator_bitwise():
    # nodes on the data's lines x = +-a t, the forcing's x = +-a (t - t_*)
    # (and one ulp off each), at the faces and the breakpoint, at t = t_*,
    # before t = 0 and past the horizon, for drawn speeds and intervals
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        alpha = data.draw(st.sampled_from(EXAMPLE_ALPHAS))
        a = data.draw(st.one_of(st.none(), st.floats(0.25, 3.0)))
        extent = data.draw(st.sampled_from([1.0, 0.8, 2.0]))
        horizon = data.draw(st.sampled_from([1.0, 0.6]))
        spec = make_example(alpha, extent, horizon, a)
        frozen = example_exact_frozen(alpha, extent, horizon, a)
        a, t_star, half = spec.speeds[0], spec.t_star, extent / 2.0
        t = data.draw(st.one_of(
            st.just(t_star), st.just(0.0), st.floats(-0.5, -1e-9), st.floats(0.0, 1.5 * horizon)
        ))
        lines = [a * t, -a * t, a * (t - t_star), -a * (t - t_star), half, -half, 0.0]
        lines += [np.nextafter(x, side) for x in lines for side in (-np.inf, np.inf)]
        drawn = data.draw(st.lists(st.floats(-half, half), max_size=20))
        nodes = np.array(data.draw(st.permutations(lines + drawn)))
        got, want = spec.exact(nodes, t), frozen(nodes, t)
        assert got.tobytes() == want.tobytes()
        # one node a call, and a block of this time and two others
        points = np.array([spec.exact(x, t) for x in nodes])
        assert points.tobytes() == want.tobytes()
        times = np.array([t, data.draw(st.floats(-0.5, 1.5 * horizon)), t_star])
        block = spec.exact(nodes[None, :], times[:, None])
        levels = np.stack([frozen(nodes, s) for s in times])
        assert block.tobytes() == levels.tobytes()

    check()
