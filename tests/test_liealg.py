"""Bracket algebra, closure and approximability tests.

Derived expectations are computed by independent oracles kept inside this
file: direct matrix products, finite-difference Jacobians and dense
normal-equation least squares; scipy's ``expm`` for the generator
exponential.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from enspulse.liealg import (
    DispersionPolyElement,
    PolyVectorField,
    SampledElement,
    _bracket_sampled,
    _row_norms,
    _Span,
    ad_power,
    approximable,
    bracket_poly,
    evaluate_monomials,
    expm_skew,
    lie_closure,
    pauli,
    reachable_functions,
    so3_generators,
    two_qubit_coupling_generators,
    vf_bracket,
)

SO3 = so3_generators()


def rand_skew_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m - m.conj().T


# ---------------------------------------------------------------------------
# generator exponential
# ---------------------------------------------------------------------------

# entries up to 2 reach every rotation angle of so(3); past about 4, scipy's
# real expm itself drifts from orthogonal by 1e-13 and stops being an oracle
ENTRIES = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


def scipy_expm_stack(g):
    return np.array([expm(m) for m in g.reshape(-1, *g.shape[-2:])]).reshape(g.shape)


@settings(max_examples=60, deadline=None)
@given(a=arrays(np.float64, (5, 3, 3), elements=ENTRIES))
def test_expm_skew_matches_scipy_on_real_3x3_stacks(a):
    g = a - np.swapaxes(a, -1, -2)
    got = expm_skew(g)
    assert got.dtype == np.float64
    assert np.abs(got - scipy_expm_stack(g)).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(re=arrays(np.float64, (2, 3, 4, 4), elements=ENTRIES),
       im=arrays(np.float64, (2, 3, 4, 4), elements=ENTRIES))
def test_expm_skew_matches_scipy_on_complex_4x4_stacks(re, im):
    a = re + 1j * im
    g = a - np.conj(np.swapaxes(a, -1, -2))
    got = expm_skew(g)
    assert got.shape == g.shape
    assert np.abs(got - scipy_expm_stack(g)).max() <= 1e-13


def test_expm_skew_of_one_matrix_and_of_zero():
    g = 0.7 * SO3["x"].entries.real
    assert np.abs(expm_skew(g) - expm(g)).max() <= 1e-15
    assert np.array_equal(expm_skew(np.zeros((4, 4), dtype=complex)), np.eye(4))


# ---------------------------------------------------------------------------
# matrix bracket: the generators' commutators, and bracket_poly's algebra on
# parameter-free elements
# ---------------------------------------------------------------------------


def const(m):
    """The parameter-free element with coefficient ``m``."""
    return DispersionPolyElement.single({}, m)


def entries(elem):
    """The coefficient of a parameter-free element; zero for the empty element."""
    return elem.monomials[0].coeff if elem.monomials else 0.0


def test_bracket_so3_cyclic():
    x, y = SO3["x"].entries, SO3["y"].entries
    assert np.allclose(x @ y - y @ x, SO3["z"].entries, atol=1e-15)


def test_bracket_self_is_zero():
    assert bracket_poly(const(SO3["x"].entries), const(SO3["x"].entries)).is_zero()


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        bracket_poly(const(SO3["x"].entries), const(np.eye(2)))


def test_bracket_coupling_pair_direct_product_oracle():
    gens = two_qubit_coupling_generators()
    b1, b2 = gens["b1"].entries, gens["b2"].entries
    # oracle: explicit 4x4 multiplication
    got = b1 @ b2 - b2 @ b1
    # proportional to -i sx (x) id with a positive constant
    direction = -1j * np.kron(pauli("x"), pauli("i"))
    ratio = got[np.abs(direction) > 0.5] / direction[np.abs(direction) > 0.5]
    assert np.allclose(ratio, ratio[0], atol=1e-13)
    assert ratio[0].real > 0 and abs(ratio[0].imag) < 1e-13
    assert ratio[0].real == pytest.approx(8.0, abs=1e-12)


def test_bracket_antisymmetry_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rand_skew_hermitian(rng, 4)
        b = rand_skew_hermitian(rng, 4)
        assert np.allclose(
            entries(bracket_poly(const(a), const(b))), -entries(bracket_poly(const(b), const(a))), atol=0.0
        )


def test_bracket_jacobi_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b, c = (rand_skew_hermitian(rng, 3) for _ in range(3))
        ea, eb, ec = (const(m) for m in (a, b, c))
        jac = (
            entries(bracket_poly(ea, bracket_poly(eb, ec)))
            + entries(bracket_poly(eb, bracket_poly(ec, ea)))
            + entries(bracket_poly(ec, bracket_poly(ea, eb)))
        )
        scale = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
        assert np.linalg.norm(jac) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# dispersion-polynomial bracket
# ---------------------------------------------------------------------------


def eps_gen(axis, name="eps"):
    return DispersionPolyElement.single({name: 1}, SO3[axis])


def test_bracket_poly_squares_parameter():
    out = bracket_poly(eps_gen("x"), eps_gen("y"))
    assert len(out.monomials) == 1
    assert out.monomials[0].exponent_dict() == {"eps": 2}
    assert np.allclose(out.monomials[0].coeff, SO3["z"].entries, atol=1e-15)


def test_bracket_poly_zero():
    zero = DispersionPolyElement(())
    assert bracket_poly(eps_gen("x"), zero).is_zero()


MONOMIAL_FAMILY = st.tuples(
    st.sampled_from([("eps",), ("eps1", "eps2")]),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=80)
@given(MONOMIAL_FAMILY)
def test_evaluate_over_a_grid_equals_pointwise_evaluate(family):
    names, exponents, complex_coeffs, seed = family
    rng = np.random.default_rng(seed)
    terms = []
    for e in exponents:
        coeff = rng.standard_normal((3, 3))
        if complex_coeffs:
            coeff = coeff + 1j * rng.standard_normal((3, 3))
        terms.append((dict(zip(names, e)), coeff))
    elem = DispersionPolyElement.make(terms)
    grid = {name: rng.uniform(-2.0, 2.0, 9) for name in names}
    table = elem.evaluate(grid)
    assert table.shape == (9, 3, 3)
    # every term taken in absolute value bounds the roundoff of the sum
    bound = DispersionPolyElement.make(
        [(m.exponent_dict(), np.abs(m.coeff)) for m in elem.monomials]
    ).evaluate({name: np.abs(v) for name, v in grid.items()})
    for i in range(9):
        point = elem.evaluate({name: float(v[i]) for name, v in grid.items()})
        assert point.shape == (3, 3)
        assert np.all(np.abs(table[i] - point) <= 1e-15 * bound[i].real)


def test_odd_ad_ladder():
    x1 = DispersionPolyElement.single({"eps1": 1}, SO3["x"])
    y2 = DispersionPolyElement.single({"eps2": 1}, SO3["y"])
    out = ad_power(x1, y2, 3)
    assert len(out.monomials) == 1
    assert out.monomials[0].exponent_dict() == {"eps1": 3, "eps2": 1}
    assert np.allclose(out.monomials[0].coeff, -SO3["z"].entries, atol=1e-12)


@pytest.mark.parametrize("k", range(5))
def test_odd_ad_ladder_sign_pattern(k):
    # (ad_{e1 Ox})^(2k+1) (e2 Oy) == (-1)^k e1^(2k+1) e2 Oz, exactly
    x1 = DispersionPolyElement.single({"eps1": 1}, SO3["x"])
    y2 = DispersionPolyElement.single({"eps2": 1}, SO3["y"])
    out = ad_power(x1, y2, 2 * k + 1)
    assert len(out.monomials) == 1
    mon = out.monomials[0]
    assert mon.exponent_dict() == {"eps1": 2 * k + 1, "eps2": 1}
    expected = (-1.0) ** k * SO3["z"].entries
    assert np.max(np.abs(mon.coeff - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# vector-field bracket
# ---------------------------------------------------------------------------


def heisenberg_fields():
    g1 = PolyVectorField.make(3, [{(0, 0, 0): 1.0}, {}, {(0, 1, 0): -1.0}])
    g2 = PolyVectorField.make(3, [{}, {(0, 0, 0): 1.0}, {(1, 0, 0): 1.0}])
    return g1, g2


def test_planar_fields_bracket():
    g1, g2 = heisenberg_fields()
    out = vf_bracket(g1, g2)
    assert out.components[0] == {}
    assert out.components[1] == {}
    assert out.components[2] == {(0, 0, 0): 2.0}


def test_vf_bracket_self_zero():
    g1, _ = heisenberg_fields()
    assert vf_bracket(g1, g1).is_zero()


def test_vf_center_commutes():
    g1, g2 = heisenberg_fields()
    center = vf_bracket(g1, g2)
    assert vf_bracket(center, g1).is_zero()
    assert vf_bracket(center, g2).is_zero()


def rand_field(rng, nvars, max_deg=2):
    comps = []
    keys = [k for k in np.ndindex(*(max_deg + 1,) * nvars) if sum(k) <= max_deg]
    for _ in range(nvars):
        comps.append({tuple(k): rng.standard_normal() for k in keys})
    return PolyVectorField.make(nvars, comps)


def fd_bracket_at(f, g, x, h=1e-6):
    """Finite-difference oracle for (Dg) f - (Df) g at a point."""
    n = len(x)

    def jac(field, x0):
        out = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            out[:, j] = (field.evaluate(x0 + e) - field.evaluate(x0 - e)) / (2 * h)
        return out

    return jac(g, x) @ f.evaluate(x) - jac(f, x) @ g.evaluate(x)


def test_vf_bracket_matches_finite_differences():
    rng = np.random.default_rng(11)
    f = rand_field(rng, 3)
    g = rand_field(rng, 3)
    br = vf_bracket(f, g)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=3)
        assert np.allclose(br.evaluate(x), fd_bracket_at(f, g, x), atol=1e-6)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_closure_rf_scale_pair():
    report = lie_closure([eps_gen("x"), eps_gen("y")], max_depth=4)
    assert len(report.basis) == 3
    assert report.nilpotency.verdict == "not_nilpotent"
    funcs_x = reachable_functions(report, SO3["x"])
    assert {"eps": 1} in funcs_x and {"eps": 3} in funcs_x
    funcs_z = reachable_functions(report, SO3["z"])
    assert {"eps": 2} in funcs_z


def test_closure_offset_pair_all_powers():
    gens = [
        DispersionPolyElement.single({"omega": 1}, SO3["z"]),
        DispersionPolyElement.single({}, SO3["x"]),
        DispersionPolyElement.single({}, SO3["y"]),
    ]
    report = lie_closure(gens, max_depth=5)
    funcs_x = reachable_functions(report, SO3["x"])
    for power in range(4):
        assert ({"omega": power} if power else {}) in funcs_x


def heisenberg_matrices():
    e = np.zeros((3, 3, 3, 3))
    x = np.zeros((3, 3)); x[0, 1] = 1.0
    y = np.zeros((3, 3)); y[1, 2] = 1.0
    return x, y


def test_closure_heisenberg_matrix_nilpotent():
    x, y = heisenberg_matrices()
    gens = [DispersionPolyElement.single({}, x), DispersionPolyElement.single({}, y)]
    report = lie_closure(gens, max_depth=6)
    assert len(report.basis) == 3
    assert report.nilpotency.verdict == "nilpotent"
    assert report.nilpotency.step == 2


def test_closure_heisenberg_vector_fields_nilpotent():
    report = lie_closure(list(heisenberg_fields()), max_depth=6)
    assert report.nilpotency.verdict == "nilpotent"
    assert report.nilpotency.step == 2
    assert len(report.basis) == 3


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 40)), elements=st.floats(-1e150, 1e150)))
def test_span_norms_are_numpys_norms_bit_for_bit(v):
    assert np.array_equal(_row_norms(v).view(np.int64), np.linalg.norm(v, axis=1).view(np.int64))
    assert np.sqrt(v[0].dot(v[0])).view(np.int64) == np.linalg.norm(v[0]).view(np.int64)


def test_a_span_widens_to_longer_rows_with_zero_columns():
    span = _Span()
    assert span.add(np.eye(2)) == [0, 1]
    # a row over a coordinate added since: the basis is zero there
    coords, outside = span.coords([[1.0, 2.0, 3.0]])
    assert span.q.shape == (2, 3) and np.array_equal(span.q[:, 2], [0.0, 0.0])
    assert np.array_equal(coords, [[1.0, 2.0]]) and np.array_equal(outside, [3.0])
    assert span.add([[0.0, 0.0, 2.0], [1.0, 1.0, 1.0]]) == [0]
    assert np.array_equal(span.q, np.eye(3))


def test_closure_sampled_phase_pair_span():
    theta = np.linspace(0.0, 1.0, 11)
    b1 = SampledElement.make([(np.cos(theta), SO3["x"]), (np.sin(theta), SO3["y"])])
    b2 = SampledElement.make([(-np.sin(theta), SO3["x"]), (np.cos(theta), SO3["y"])])
    report = lie_closure([b1, b2], max_depth=5)
    assert len(report.basis) == 3
    # every reachable coordinate function is a combination of 1, cos, sin
    span = np.vstack([np.ones_like(theta), np.cos(theta), np.sin(theta)])
    q, _ = np.linalg.qr(span.T)
    for funcs in report.per_direction_functions:
        for h in funcs:
            proj = q @ (q.T @ h)
            assert np.linalg.norm(h - proj) <= 1e-9 * max(np.linalg.norm(h), 1.0)


def test_closure_sampled_phase_pair_counts_surviving_brackets():
    # pointwise [b1, b2] = Oz and [bi, Oz] = -+b(other): the x-y directions
    # only ever carry cos and sin, and z only the constant, so the function
    # ranks are 2, 2, 1 and depth 3 adds nothing new, whatever the bound
    theta = np.linspace(0.0, 2 * np.pi, 33)
    b1 = SampledElement.make([(np.cos(theta), SO3["x"]), (np.sin(theta), SO3["y"])])
    b2 = SampledElement.make([(-np.sin(theta), SO3["x"]), (np.cos(theta), SO3["y"])])
    for depth in (5, 8, 30):
        report = lie_closure([b1, b2], max_depth=depth)
        assert [len(f) for f in report.per_direction_functions] == [2, 2, 1]
        assert report.depth_reached == 3


def test_sampled_bracket_that_cancels_is_exactly_zero():
    # [b1, [b1, b2]] = -b2 pointwise, so [b2, [b1, [b1, b2]]] cancels
    # identically; its raw table is roundoff of norm ~4e-17
    theta = np.linspace(0.0, 2 * np.pi, 33)
    b1 = SampledElement.make([(np.cos(theta), SO3["x"]), (np.sin(theta), SO3["y"])])
    b2 = SampledElement.make([(-np.sin(theta), SO3["x"]), (np.cos(theta), SO3["y"])])
    inner = _bracket_sampled(b1, _bracket_sampled(b1, b2))
    raw = b2.values @ inner.values - inner.values @ b2.values
    assert np.linalg.norm(raw) < 1e-15
    c = _bracket_sampled(b2, inner)
    assert c.is_zero() and not np.any(c.values)


SL2 = {
    "h": np.diag([1.0, -1.0]),
    "e": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "f": np.array([[0.0, 0.0], [1.0, 0.0]]),
}


def test_closure_sampled_runs_on_while_a_level_adds_an_element():
    # a = h, b = cos e + sin f.  Level 2 is +-(2 cos e - 2 sin f): no new
    # direction, and e and f keep carrying only cos and sin.  Yet
    # [b, [a, b]] = -4 cos sin h puts a second function on h at depth 3.
    theta = np.linspace(0.0, 2 * np.pi, 33)
    a = SampledElement.make([(np.ones_like(theta), SL2["h"])])
    b = SampledElement.make([(np.cos(theta), SL2["e"]), (np.sin(theta), SL2["f"])])
    for depth in (3, 5, 8):
        report = lie_closure([a, b], max_depth=depth)
        assert report.depth_reached >= 3
        assert len(reachable_functions(report, SL2["h"])) >= 2
        cs = np.cos(theta) * np.sin(theta)
        funcs = reachable_functions(report, SL2["h"])
        assert np.linalg.norm(cs - funcs.T @ (funcs @ cs)) <= 1e-9 * np.linalg.norm(cs)


def test_closure_symbolic_runs_on_while_a_level_adds_an_element():
    # the symbolic twin: a = h, b = t e + t^2 f; [b, [a, b]] = -4 t^3 h
    a = DispersionPolyElement.single({}, SL2["h"])
    b = DispersionPolyElement.make([({"t": 1}, SL2["e"]), ({"t": 2}, SL2["f"])])
    for depth in (3, 5):
        report = lie_closure([a, b], max_depth=depth)
        assert report.depth_reached >= 3
        assert {"t": 3} in reachable_functions(report, SL2["h"])


def phase_generator(theta):
    return SampledElement.make([(np.cos(theta), SO3["x"]), (np.sin(theta), SO3["y"])])


def test_sampled_element_is_the_summed_table():
    theta = np.linspace(0.0, 1.0, 5)
    b = phase_generator(theta)
    assert (b.npoints, b.dim) == (5, 3)
    for k, t in enumerate(theta):
        assert np.array_equal(b.values[k], np.cos(t) * SO3["x"].entries + np.sin(t) * SO3["y"].entries)
    with pytest.raises(ValueError):
        SampledElement.make([])
    with pytest.raises(ValueError):
        SampledElement.make([(theta, SO3["x"]), (theta[:3], SO3["y"])])


def test_closure_single_sampled_generator_cancels_itself():
    # [b, b] = 0 identically: only roundoff is left in its table, so the
    # closure stops at the plane of Ox and Oy, as its symbolic twin does
    theta = np.linspace(0.0, 2 * np.pi, 33)
    report = lie_closure([phase_generator(theta)], max_depth=6)
    twin = lie_closure(
        [DispersionPolyElement.make([({"c": 1}, SO3["x"]), ({"s": 1}, SO3["y"])])], max_depth=6
    )
    assert (len(report.basis), report.depth_reached) == (2, 2)
    assert (len(twin.basis), twin.depth_reached) == (2, 2)


SO3_DIRECTION = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)
SMALL_FAMILY = st.lists(
    st.lists(st.tuples(st.integers(0, 2), SO3_DIRECTION), min_size=1, max_size=2),
    min_size=1,
    max_size=3,
)
EPS_GRID = np.linspace(0.5, 1.5, 17)


@settings(max_examples=60)
@given(SMALL_FAMILY)
@example([[(0, (2, 0, 1)), (0, (-2, 0, -1))], [(0, (0, 0, 1))]])  # first generator cancels to zero
def test_sampled_twin_closes_like_symbolic_family(family):
    # integer so(3) coefficients keep symbolic cancellation exact; 17 grid
    # points separate every eps power a depth-4 bracket can carry
    def matrix(c):
        return sum(k * SO3[a].entries for k, a in zip(c, "xyz"))

    symbolic = [DispersionPolyElement.make([({"eps": e}, matrix(c)) for e, c in g]) for g in family]
    assume(not all(g.is_zero() for g in symbolic))
    sampled = [
        SampledElement.make(
            zip(evaluate_monomials([{"eps": e} for e, _ in g], {"eps": EPS_GRID}), [matrix(c) for _, c in g])
        )
        for g in family
    ]
    sym = lie_closure(symbolic, max_depth=4)
    smp = lie_closure(sampled, max_depth=4)
    assert len(smp.basis) == len(sym.basis)
    assert (smp.nilpotency.verdict, smp.nilpotency.step) == (sym.nilpotency.verdict, sym.nilpotency.step)

    def summary(r):
        ranks = [len(f) for f in r.per_direction_functions]
        return len(r.basis), ranks, r.depth_reached, (r.nilpotency.verdict, r.nilpotency.step)

    for report, gens in ((sym, symbolic), (smp, sampled)):
        if report.depth_reached < 4:
            # a level added no element, so the closure is done: a deeper
            # bound finds nothing more
            assert summary(lie_closure(gens, max_depth=10)) == summary(report)


def test_closure_rejects_empty_and_bad_depth():
    with pytest.raises(ValueError):
        lie_closure([])
    with pytest.raises(ValueError):
        lie_closure([eps_gen("x")], max_depth=0)


def test_reachable_functions_outside_span():
    report = lie_closure([eps_gen("x")], max_depth=3)
    with pytest.raises(ValueError):
        reachable_functions(report, SO3["z"])


# ---------------------------------------------------------------------------
# approximability
# ---------------------------------------------------------------------------


def dense_ls_oracle(family, target):
    """Normal-equation least squares, independent of numpy's lstsq path."""
    gram = family @ family.T
    rhs = family @ target
    coeffs = np.linalg.solve(gram, rhs)
    resid = target - family.T @ coeffs
    return coeffs, np.linalg.norm(resid), np.max(np.abs(resid))


def test_approximable_odd_powers_fit_constant():
    eps = np.linspace(0.9, 1.1, 101)
    family = evaluate_monomials([{"eps": 1}, {"eps": 3}, {"eps": 5}], {"eps": eps})
    target = np.full_like(eps, np.pi / 2)
    fit = approximable(target, family, tol=2e-3)
    coeffs_o, l2_o, max_o = dense_ls_oracle(family, target)
    assert fit.achievable
    assert np.allclose(fit.coefficients, coeffs_o, atol=1e-8)
    assert fit.l2_residual == pytest.approx(l2_o, abs=1e-10)
    assert fit.max_residual == pytest.approx(max_o, abs=1e-10)
    # frozen from the dense oracle: the optimal L2 fit misses a flat target
    # by 1.59e-3 in sup norm on this range
    assert max_o == pytest.approx(1.5940786e-3, rel=1e-5)


def test_approximable_exact_member():
    eps = np.linspace(0.5, 1.5, 33)
    family = evaluate_monomials([{"eps": 3}], {"eps": eps})
    fit = approximable(eps**3, family, tol=1e-12)
    assert fit.achievable
    assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert fit.max_residual <= 1e-12


def test_approximable_even_target_odd_family_fails():
    eps = np.linspace(-0.2, 0.2, 41)
    family = evaluate_monomials([{"eps": 1}, {"eps": 3}, {"eps": 5}], {"eps": eps})
    target = np.full_like(eps, np.pi / 2)
    fit = approximable(target, family, tol=1e-3)
    assert not fit.achievable
    # odd fits vanish at eps=0 while the target does not
    assert fit.max_residual >= np.pi / 2 - 1e-9


def test_approximable_constant_family_reproduces_constants():
    eps = np.linspace(0.7, 1.3, 17)
    family = np.vstack([np.ones_like(eps), eps])
    fit = approximable(np.full_like(eps, 2.5), family, tol=1e-12)
    assert fit.achievable and fit.max_residual <= 1e-10


def test_approximable_rank_zero_family():
    with pytest.raises(ValueError):
        approximable(np.ones(5), np.zeros((2, 5)), tol=1e-3)
