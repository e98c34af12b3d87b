"""Linear-ensemble necessary conditions and nonholonomic-integrator tests.

Oracles: eigenvalue-product characteristic polynomials, closed-form scalar
least squares, exact piecewise integration of the planar integrator, and
scipy's ``expm`` for the zero-order-hold exponential.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from enspulse.linear import (
    LinearSystemSample,
    _expm,
    characteristic_coefficients,
    companion_transform,
    controllability_matrix,
    ensemble_necessary_conditions,
    heisenberg_invariant,
    heisenberg_trajectories,
    reachability_residual,
)


def rand_controllable(rng, n=4):
    while True:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        sys = LinearSystemSample(0.0, a, b)
        k = controllability_matrix(sys)
        sv = np.linalg.svd(k, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            return sys


# ---------------------------------------------------------------------------
# companion form
# ---------------------------------------------------------------------------


def test_companion_of_companion_is_identity():
    sys = LinearSystemSample(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]))
    out = companion_transform(sys)
    assert np.allclose(out.transform, np.eye(2), atol=1e-12)
    assert np.allclose(out.coefficients, [0.0, 0.0], atol=1e-12)


def test_companion_random_reconstruction():
    rng = np.random.default_rng(31)
    for _ in range(50):
        sys = rand_controllable(rng)
        out = companion_transform(sys)
        assert out.residual <= 1e-10 * max(np.linalg.norm(sys.a), 1.0)


def test_companion_roundtrip_recovers_system():
    rng = np.random.default_rng(32)
    sys = rand_controllable(rng)
    out = companion_transform(sys)
    t_inv = np.linalg.inv(out.transform)
    comp = np.zeros((4, 4))
    comp[:-1, 1:] = np.eye(3)
    comp[-1] = -out.coefficients
    assert np.allclose(t_inv @ comp @ out.transform, sys.a, atol=1e-8)
    assert np.allclose(t_inv @ np.eye(4)[-1], sys.b.ravel(), atol=1e-8)


def test_companion_rejects_uncontrollable():
    a = np.block([[np.array([[1.0, 2.0], [0.0, 3.0]]), np.zeros((2, 2))],
                  [np.zeros((2, 2)), np.diag([4.0, 5.0])]])
    b = np.array([0.0, 1.0, 0.0, 0.0])  # confined to the first block
    with pytest.raises(ValueError, match="rank 2"):
        companion_transform(LinearSystemSample(0.0, a, b))


def test_characteristic_coefficients_match_eigen_oracle():
    rng = np.random.default_rng(33)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        mine = characteristic_coefficients(a)
        # oracle: polynomial from eigenvalue products, ascending coefficients
        oracle = np.poly(np.linalg.eigvals(a))[::-1][:4].real
        assert np.allclose(mine, oracle, atol=1e-8 * max(1.0, np.abs(oracle).max()))


# ---------------------------------------------------------------------------
# ensemble necessary conditions
# ---------------------------------------------------------------------------


def test_conditions_pass_for_scaled_diagonals():
    samples = [
        LinearSystemSample(s, np.diag([s, 2 * s]), np.array([1.0, 1.0]))
        for s in (1.0, 1.5, 2.0)
    ]
    report = ensemble_necessary_conditions(samples)
    assert report.passed
    assert not report.coincident_pairs and not report.rank_deficient


def test_conditions_flag_shared_characteristic_polynomial():
    rng = np.random.default_rng(34)
    base = rand_controllable(rng)
    t1 = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    t2 = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    s1 = LinearSystemSample(1.0, t1 @ base.a @ np.linalg.inv(t1), t1 @ base.b)
    s2 = LinearSystemSample(2.0, t2 @ base.a @ np.linalg.inv(t2), t2 @ base.b)
    report = ensemble_necessary_conditions([s1, s2], tol=1e-6)
    assert not report.passed
    assert (0, 1) in report.coincident_pairs


def test_conditions_flag_rank_deficiency_and_invariant_subspace():
    # companion sample with vanishing constant coefficient
    coeffs = np.array([0.0, 2.0, -1.0])
    a = np.zeros((3, 3))
    a[:-1, 1:] = np.eye(2)
    a[-1] = -coeffs
    b = np.array([0.0, 0.0, 1.0])
    good = LinearSystemSample(0.0, np.diag([1.0, 2.0, 3.0]), np.ones(3))
    report = ensemble_necessary_conditions([good, LinearSystemSample(1.0, a, b)])
    assert not report.passed
    assert 1 in report.rank_deficient
    # span{A^k b : k >= 1} misses one dimension
    krylov = np.column_stack([np.linalg.matrix_power(a, k) @ b for k in range(1, 4)])
    assert np.linalg.matrix_rank(krylov) == 2


def test_conditions_need_two_samples():
    with pytest.raises(ValueError):
        ensemble_necessary_conditions(
            [LinearSystemSample(0.0, np.eye(2), np.array([1.0, 0.0]))]
        )


@pytest.mark.parametrize("tol", [float("nan"), -1e-8, float("inf")])
def test_conditions_reject_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # a NaN or negative tol passed everything and an infinite one flagged everything
    samples = [LinearSystemSample(s, np.diag([s, 2 * s]), np.ones(2)) for s in (1.0, 1.5)]
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        ensemble_necessary_conditions(samples, tol=tol)


# ---------------------------------------------------------------------------
# reachability residual
# ---------------------------------------------------------------------------


def scalar_pair_residual_oracle(e1=0.9, e2=1.1):
    """Closed form: minimize (e1 s - 1)^2 + (e2 s - 1)^2 over s."""
    s = (e1 + e2) / (e1**2 + e2**2)
    return np.hypot(e1 * s - 1.0, e2 * s - 1.0)


def test_scalar_two_gain_residual_matches_closed_form():
    samples = [
        LinearSystemSample(0.9, np.zeros((1, 1)), np.array([0.9])),
        LinearSystemSample(1.1, np.zeros((1, 1)), np.array([1.1])),
    ]
    targets = [np.array([1.0]), np.array([1.0])]
    res = reachability_residual(samples, targets, horizon=8, dt=0.125)
    assert res == pytest.approx(scalar_pair_residual_oracle(), abs=1e-12)


def test_single_system_reachable_target():
    rng = np.random.default_rng(35)
    sys = rand_controllable(rng, 3)
    res = reachability_residual([sys], [np.array([0.3, -0.4, 0.1])], horizon=6, dt=0.2)
    assert res <= 1e-9


def test_common_input_distinct_drifts_compatible_targets():
    # only input-matrix variation is structurally obstructed; simulate one
    # control and ask for exactly the states it produces
    rng = np.random.default_rng(36)
    b = rng.standard_normal(3)
    a1 = rng.standard_normal((3, 3))
    a2 = rng.standard_normal((3, 3))
    samples = [LinearSystemSample(1.0, a1, b), LinearSystemSample(2.0, a2, b)]
    horizon, dt = 10, 0.15
    controls = rng.standard_normal(horizon)
    targets = []
    from scipy.linalg import expm

    for sys in samples:
        aug = np.zeros((4, 4))
        aug[:3, :3] = sys.a * dt
        aug[:3, 3:] = sys.b * dt
        e = expm(aug)
        ad, bd = e[:3, :3], e[:3, 3:]
        x = np.zeros(3)
        for u in controls:
            x = ad @ x + (bd * u).ravel()
        targets.append(x)
    res = reachability_residual(samples, targets, horizon, dt)
    assert res <= 1e-9


def test_residual_monotone_in_horizon():
    samples = [
        LinearSystemSample(0.8, np.zeros((1, 1)), np.array([0.8])),
        LinearSystemSample(1.2, np.zeros((1, 1)), np.array([1.2])),
    ]
    targets = [np.array([1.0]), np.array([1.0])]
    res = [reachability_residual(samples, targets, n, dt=0.1) for n in (1, 2, 4, 8)]
    assert all(res[i] >= res[i + 1] - 1e-12 for i in range(3))


@pytest.mark.parametrize("dt", [float("nan"), 0.0, -0.1, float("inf")])
def test_residual_rejects_a_step_that_is_not_positive_and_finite(dt):
    samples = [LinearSystemSample(s, np.zeros((1, 1)), np.array([s])) for s in (0.9, 1.1)]
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        reachability_residual(samples, [np.array([1.0])] * 2, horizon=4, dt=dt)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.integers(1, 2),
    log_dt=st.floats(-3.0, np.log10(3.0)),
    log_scale=st.floats(-1.0, 1.0),
    jordan=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_order_hold_exponential_matches_scipy(n, m, log_dt, log_scale, jordan, seed):
    # the augmented matrix [[A dt, B dt], [0, 0]] is not normal; a Jordan
    # block drift is the least normal A of all
    rng = np.random.default_rng(seed)
    if jordan:
        a = rng.standard_normal() * np.eye(n) + np.eye(n, k=1)
    else:
        a = rng.standard_normal((n, n))
    a *= 10.0**log_scale
    dt = 10.0**log_dt
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a * dt
    aug[:n, n:] = rng.standard_normal((n, m)) * dt
    want = expm(aug)
    assert np.abs(_expm(aug) - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("lengths", [(4, 2), (2, 3), (3, 0)])
def test_residual_refuses_a_target_of_another_length_by_index(lengths):
    # two 3-state samples; the stacked lengths of (4, 2) used to pass
    rng = np.random.default_rng(37)
    samples = [rand_controllable(rng, 3) for _ in range(2)]
    targets = [np.ones(k) for k in lengths]
    bad = 0 if lengths[0] != 3 else 1
    with pytest.raises(ValueError, match=f"target {bad} has {lengths[bad]} entries for a sample of dimension 3"):
        reachability_residual(samples, targets, horizon=4, dt=0.1)


def test_residual_refuses_a_discretization_that_overflows_by_index():
    # e^{400 * 3} overflows; e^{-400 * 3} underflows to zero and is fine.
    # With a scalar drift every state lies on the line of b, so the residual
    # is the distance from (1, 1) to the line of (1, 2), 1/sqrt(5)
    ones, b = np.ones(2), np.array([1.0, 2.0])
    free = LinearSystemSample(1.0, np.eye(2), ones)
    grows = LinearSystemSample(400.0, 400.0 * np.eye(2), b)
    with pytest.raises(ValueError, match="sample 1: its zero-order-hold discretization overflows"):
        reachability_residual([free, grows], [ones, ones], horizon=8, dt=3.0)
    decays = LinearSystemSample(-400.0, -400.0 * np.eye(2), b)
    res = reachability_residual([free, decays], [ones, ones], horizon=8, dt=3.0)
    assert res == pytest.approx(1 / np.sqrt(5), abs=1e-12)


# ---------------------------------------------------------------------------
# nonholonomic integrator
# ---------------------------------------------------------------------------


def closed_form_oracle(u1, u2, dt, eps):
    """Exact piecewise integration: the third coordinate picks up
    (u2 x1 - u1 x2) dt per step with the quadratic terms cancelling."""
    x1 = x2 = x3 = 0.0
    for a, b in zip(u1, u2):
        x3 += (b * x1 - a * x2) * dt  # eps=1 path contribution
        x1 += a * dt
        x2 += b * dt
    return np.array([eps * x1, eps * x2, eps**2 * x3])


def test_ratio_law_twenty_random_draws():
    rng = np.random.default_rng(37)
    for _ in range(20):
        u1 = rng.uniform(-1, 1, 16)
        u2 = rng.uniform(-1, 1, 16)
        report = heisenberg_invariant(u1, u2, 0.1, (0.5, 1.0, 2.0))
        assert report.passed
        assert report.second_order_spread <= 1e-6


def test_trajectories_match_closed_form():
    rng = np.random.default_rng(38)
    u1 = rng.uniform(-1, 1, 12)
    u2 = rng.uniform(-1, 1, 12)
    finals = heisenberg_trajectories(u1, u2, 0.2, (0.5, 1.0, 2.0))
    for row, eps in zip(finals, (0.5, 1.0, 2.0)):
        assert np.allclose(row, closed_form_oracle(u1, u2, 0.2, eps), atol=1e-9)


def rk4_oracle(u1, u2, dt, eps, substeps):
    """Classical fixed-step RK4 on the piecewise-constant controls."""

    def rhs(x, a, b):
        return np.array([eps * a, eps * b, eps * (-a * x[1] + b * x[0])])

    h = dt / substeps
    x = np.zeros(3)
    for a, b in zip(u1, u2):
        for _ in range(substeps):
            k1 = rhs(x, a, b)
            k2 = rhs(x + 0.5 * h * k1, a, b)
            k3 = rhs(x + 0.5 * h * k2, a, b)
            k4 = rhs(x + h * k3, a, b)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_exact_step_matches_rk4_oracle():
    # RK4 integrates the quadratic flow exactly within a step, at any substep count
    rng = np.random.default_rng(39)
    u1 = rng.uniform(-1, 1, 10)
    u2 = rng.uniform(-1, 1, 10)
    finals = heisenberg_trajectories(u1, u2, 0.25, (0.5, 1.3))
    for row, eps in zip(finals, (0.5, 1.3)):
        for substeps in (4, 8):
            assert np.abs(row - rk4_oracle(u1, u2, 0.25, eps, substeps)).max() < 1e-12


def test_zero_controls_stay_at_origin():
    finals = heisenberg_trajectories(np.zeros(5), np.zeros(5), 0.1, (0.5, 1.0))
    assert np.all(finals == 0.0)


def test_no_control_reaches_unit_third_coordinate_at_two_gains():
    # achieved pairs (x3(0.9), x3(1.1)) all lie on the ray K*(0.81, 1.21),
    # so their distance to (1, 1) is bounded below by the projection residual
    ray = np.array([0.81, 1.21])
    k_star = ray @ np.ones(2) / (ray @ ray)
    bound = np.linalg.norm(k_star * ray - 1.0)
    rng = np.random.default_rng(40)
    for _ in range(10):
        u1 = rng.uniform(-2, 2, 12)
        u2 = rng.uniform(-2, 2, 12)
        finals = heisenberg_trajectories(u1, u2, 0.2, (0.9, 1.1))
        achieved = finals[:, 2]
        assert np.linalg.norm(achieved - 1.0) >= bound - 1e-9


def test_heisenberg_rejects_zero_gain():
    with pytest.raises(ValueError):
        heisenberg_invariant(np.ones(3), np.ones(3), 0.1, (0.0, 1.0))


def test_heisenberg_rejects_an_empty_gain_list():
    with pytest.raises(ValueError, match="gains must be nonempty and finite"):
        heisenberg_invariant(np.ones(3), np.ones(3), 0.1, ())
