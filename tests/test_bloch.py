"""Ensemble propagation, distance/fidelity and frame-law tests.

Independent oracles used here: a truncated-series matrix exponential, a
direct ordered 2x2 matrix product, and brute-force summation for grid
distances.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enspulse.bloch import (
    ControlSequence,
    DispersionGrid,
    EnsembleState,
    TargetSpec,
    ensemble_distance,
    fidelity_map,
    net_rotation,
    net_su2,
    phase_frame_check,
    propagate,
    step_propagator,
    step_rotation,
    su2_to_so3,
)
from enspulse.liealg import pauli, so3_generators

SO3 = so3_generators()

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def series_expm(m, terms=40):
    """Truncated-series exponential, independent of any library路 routine."""
    out = np.eye(m.shape[0], dtype=np.complex128)
    acc = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        acc = acc @ m / k
        out = out + acc
    return out


def su2_step_matrix(omega, eps, u, v, dt):
    gen = -0.5j * (omega * pauli("z") + eps * u * pauli("x") + eps * v * pauli("y"))
    return series_expm(gen * dt)


def so3_step_matrix(omega, eps, u, v, dt):
    gen = (
        omega * SO3["z"].entries + eps * u * SO3["y"].entries + eps * v * SO3["x"].entries
    )
    return series_expm(gen * dt).real


def rand_pulse(rng, n, dt=1e-4, scale=2000.0):
    return ControlSequence(dt, rng.uniform(-scale, scale, size=(n, 2)))


# ---------------------------------------------------------------------------
# single-step propagator
# ---------------------------------------------------------------------------


def test_step_quarter_turn_maps_z_to_x():
    dt = 1e-3
    u = (np.pi / 2) / dt
    _, rot = step_propagator(0.0, 1.0, u, 0.0, dt)
    assert np.allclose(rot @ [0, 0, 1], [1, 0, 0], atol=1e-12)


def test_step_pure_offset_is_diagonal():
    omega, dt = 1234.5, 1e-4
    su2, _ = step_propagator(omega, 0.7, 0.0, 0.0, dt)
    assert su2.alpha == pytest.approx(np.exp(-0.5j * omega * dt), abs=1e-14)
    assert su2.beta == 0.0


def test_step_against_series_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        omega, u, v = rng.uniform(-3000, 3000, 3)
        eps = rng.uniform(0.5, 1.5)
        dt = 10 ** rng.uniform(-5, -3)
        su2, rot = step_propagator(omega, eps, u, v, dt)
        assert np.allclose(su2.matrix, su2_step_matrix(omega, eps, u, v, dt), atol=1e-12)
        assert np.allclose(rot, so3_step_matrix(omega, eps, u, v, dt), atol=1e-12)
        assert abs(np.linalg.det(su2.matrix) - 1.0) < 1e-12


def test_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        step_propagator(np.inf, 1.0, 0.0, 0.0, 1e-4)
    with pytest.raises(ValueError):
        step_propagator(0.0, 1.0, 0.0, 0.0, -1e-4)


def test_su2_so3_channel_correspondence():
    # adjoint of the SU(2) step equals the SO(3) step with u and v swapped
    rng = np.random.default_rng(4)
    for _ in range(10):
        omega, u, v = rng.uniform(-2000, 2000, 3)
        eps = rng.uniform(0.6, 1.4)
        dt = 2e-4
        su2, _ = step_propagator(omega, eps, u, v, dt)
        _, rot_swapped = step_propagator(omega, eps, v, u, dt)
        assert np.allclose(su2_to_so3(su2.matrix), rot_swapped, atol=1e-11)


# ---------------------------------------------------------------------------
# full-pulse propagation
# ---------------------------------------------------------------------------


def test_zero_pulse_leaves_z_state():
    grid = DispersionGrid.from_ranges(omega=(-3000, 3000, 9), epsilon=(0.8, 1.2, 5))
    pulse = ControlSequence(1e-4, np.zeros((16, 2)))
    out = propagate(pulse, grid, EnsembleState.uniform_bloch(grid, (0, 0, 1)))
    assert np.allclose(out.values, np.tile([0, 0, 1.0], (grid.size, 1)), atol=1e-13)


def test_single_step_matches_step_propagator():
    grid = DispersionGrid(axes={"omega": np.array([0.0]), "epsilon": np.array([1.0])})
    pulse = ControlSequence(1e-4, np.array([[800.0, -300.0]]))
    out = propagate(pulse, grid, EnsembleState.uniform_spinor(grid, 1, 0))
    su2, _ = step_propagator(0.0, 1.0, 800.0, -300.0, 1e-4)
    assert np.allclose(out.values[0], [su2.alpha, su2.beta], atol=1e-14)


def test_propagation_matches_ordered_product_oracle():
    rng = np.random.default_rng(5)
    pulse = rand_pulse(rng, 16)
    omega, eps = 1700.0, 1.07
    grid = DispersionGrid(axes={"omega": np.array([omega]), "epsilon": np.array([eps])})
    out = propagate(pulse, grid, EnsembleState.uniform_spinor(grid, 1, 0))
    acc = np.eye(2, dtype=complex)
    for k in range(pulse.nsteps):
        acc = su2_step_matrix(omega, eps, pulse.u[k], pulse.v[k], pulse.dt) @ acc
    assert np.allclose(out.values[0], acc[:, 0], atol=1e-10)


def test_unitary_states_propagate_like_columns():
    rng = np.random.default_rng(6)
    pulse = rand_pulse(rng, 8)
    grid = DispersionGrid(axes={"omega": np.array([-900.0, 400.0])})
    # a U(2) start with a global phase, so not in SU(2)
    u0, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for start in (np.eye(2), u0):
        out = propagate(pulse, grid, EnsembleState.uniform_unitary(grid, start))
        for i, omega in enumerate(grid.axes["omega"]):
            su2 = net_su2(pulse, omega=omega)
            assert np.allclose(out.values[i], su2.matrix @ start, atol=1e-11)


def so3_pulse_oracle(pulse, omega, eps, theta, model):
    """Ordered product of series-exponential SO(3) steps in the theta frame."""
    ct, st_ = np.cos(theta), np.sin(theta)
    acc = np.eye(3)
    for u, v in pulse.samples:
        ue, ve = u * ct + v * st_, -u * st_ + v * ct
        if model == "hard_pulse":
            step = so3_step_matrix(0.0, eps, ue, ve, pulse.dt) @ so3_step_matrix(
                omega, 0.0, 0.0, 0.0, pulse.dt
            )
        else:
            step = so3_step_matrix(omega, eps, ue, ve, pulse.dt)
        acc = step @ acc
    return acc


def increasing(lo, hi, max_size):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=max_size, unique=True).map(
        lambda vals: np.array(sorted(vals))
    )


@pytest.mark.parametrize("model", ["exact", "hard_pulse"])
@PROPERTY
@given(
    samples=st.lists(
        st.tuples(st.floats(-3000.0, 3000.0), st.floats(-3000.0, 3000.0)),
        min_size=1,
        max_size=8,
    ),
    dt=st.floats(1e-5, 3e-4),
    omega=increasing(-3000.0, 3000.0, 2),
    eps=increasing(0.5, 1.5, 2),
    theta=increasing(-np.pi, np.pi, 2),
    start=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
)
def test_bloch_propagation_matches_so3_step_product(model, samples, dt, omega, eps, theta, start):
    start = np.array(start)
    assume(np.linalg.norm(start) > 1e-3)
    start /= np.linalg.norm(start)
    pulse = ControlSequence(dt, np.array(samples))
    grid = DispersionGrid(axes={"omega": omega, "epsilon": eps, "theta": theta})
    out = propagate(pulse, grid, EnsembleState.uniform_bloch(grid, start), model=model)
    pts = grid.points()
    for i in range(grid.size):
        rot = so3_pulse_oracle(pulse, pts["omega"][i], pts["epsilon"][i], pts["theta"][i], model)
        assert np.abs(out.values[i] - rot @ start).max() < 1e-10
        if i == 0:
            net = net_rotation(pulse, pts["omega"][0], pts["epsilon"][0], pts["theta"][0], model)
            assert np.abs(net - rot).max() < 1e-10


def su2_from(coords):
    q = np.asarray(coords, dtype=float)
    q = q / np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


quaternion = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 1e-3)


@PROPERTY
@given(quaternion, quaternion)
def test_su2_to_so3_is_a_rotation_homomorphism(q1, q2):
    u1, u2 = su2_from(q1), su2_from(q2)
    r1, r2 = su2_to_so3(u1), su2_to_so3(u2)
    assert np.abs(r1.T @ r1 - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(r1) - 1.0) < 1e-12
    assert np.abs(su2_to_so3(u1 @ u2) - r1 @ r2).max() < 1e-12
    sig = [pauli("x"), pauli("y"), pauli("z")]
    traces = np.array(
        [[np.trace(sig[i] @ u1 @ sig[j] @ u1.conj().T).real / 2 for j in range(3)] for i in range(3)]
    )
    assert np.abs(r1 - traces).max() < 1e-12
    assert np.array_equal(su2_to_so3(np.stack([u1, u2])), np.stack([r1, r2]))


def test_norm_preservation_long_pulse():
    rng = np.random.default_rng(7)
    pulse = rand_pulse(rng, 10_000)
    grid = DispersionGrid.from_ranges(omega=(-2000, 2000, 5), epsilon=(0.9, 1.1, 3))
    bloch = propagate(pulse, grid, EnsembleState.uniform_bloch(grid, (0, 0, 1)))
    assert np.abs(np.linalg.norm(bloch.values, axis=1) - 1).max() < 1e-9
    spin = propagate(pulse, grid, EnsembleState.uniform_spinor(grid, 1, 0))
    assert np.abs((np.abs(spin.values) ** 2).sum(axis=1) - 1).max() < 1e-9


def test_composition_property():
    rng = np.random.default_rng(8)
    p1, p2 = rand_pulse(rng, 12), rand_pulse(rng, 7)
    grid = DispersionGrid.from_ranges(omega=(-1500, 1500, 4), epsilon=(0.85, 1.15, 3))
    init = EnsembleState.uniform_spinor(grid, 1, 0)
    joint = propagate(p1.concat(p2), grid, init)
    half = propagate(p1, grid, init)
    staged = propagate(p2, grid, half)
    assert np.abs(joint.values - staged.values).max() < 1e-10


def test_eps_scaling_equivalence_at_zero_offset():
    rng = np.random.default_rng(9)
    pulse = rand_pulse(rng, 20)
    eps = 1.17
    g_eps = DispersionGrid(axes={"omega": np.array([0.0]), "epsilon": np.array([eps])})
    g_one = DispersionGrid(axes={"omega": np.array([0.0]), "epsilon": np.array([1.0])})
    a = propagate(pulse, g_eps, EnsembleState.uniform_spinor(g_eps, 1, 0))
    b = propagate(pulse.scaled(eps), g_one, EnsembleState.uniform_spinor(g_one, 1, 0))
    assert np.abs(a.values - b.values).max() == 0.0


def test_drift_reversal_conjugation():
    # pi rotations about x invert the free precession exactly
    omega, dt = 2100.0, 3e-4
    z = su2_step_matrix(omega, 1.0, 0.0, 0.0, dt)
    xpi = series_expm(-0.5j * np.pi * pauli("x"))
    xpi_m = series_expm(+0.5j * np.pi * pauli("x"))
    sandwich = xpi @ z @ xpi_m
    z_inv = su2_step_matrix(-omega, 1.0, 0.0, 0.0, dt)
    assert np.linalg.norm(sandwich - z_inv) < 1e-12


# ---------------------------------------------------------------------------
# distances and fidelities
# ---------------------------------------------------------------------------


def test_distance_zero_for_identical():
    grid = DispersionGrid.from_ranges(omega=(-10, 10, 3))
    state = EnsembleState.uniform_bloch(grid, (0, 1, 0))
    rep = ensemble_distance(state, TargetSpec.constant_bloch((0, 1, 0)))
    assert rep.l2 == 0.0 and rep.sup == 0.0


def test_distance_orthogonal_bloch_pair():
    grid = DispersionGrid.from_ranges(omega=(-10, 10, 7), epsilon=(0.9, 1.1, 5))
    state = EnsembleState.uniform_bloch(grid, (1, 0, 0))
    rep = ensemble_distance(state, TargetSpec.constant_bloch((0, 0, 1)))
    assert rep.l2 == pytest.approx(np.sqrt(2), abs=1e-12)
    assert rep.sup == pytest.approx(np.sqrt(2), abs=1e-12)


def test_distance_matches_brute_force():
    rng = np.random.default_rng(10)
    grid = DispersionGrid.from_ranges(omega=(-5, 5, 4), epsilon=(0.9, 1.1, 3))
    vals = rng.standard_normal((grid.size, 3))
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    tgts = rng.standard_normal((grid.size, 3))
    tgts /= np.linalg.norm(tgts, axis=1, keepdims=True)
    state = EnsembleState(grid, "bloch", vals)
    rep = ensemble_distance(state, TargetSpec.per_point("bloch", tgts))
    acc = sum(np.sum((vals[i] - tgts[i]) ** 2) for i in range(grid.size))
    assert rep.l2 == pytest.approx(np.sqrt(acc / grid.size), abs=1e-12)


def test_spinor_distance_is_phase_invariant():
    grid = DispersionGrid.from_ranges(omega=(0, 0, 1))
    state = EnsembleState.uniform_spinor(grid, np.exp(0.7j) / np.sqrt(2), np.exp(0.7j) / np.sqrt(2))
    rep = ensemble_distance(state, TargetSpec.constant_spinor(1 / np.sqrt(2), 1 / np.sqrt(2)))
    # the sqrt in the phase-aligned distance amplifies roundoff to ~sqrt(eps)
    assert rep.sup < 1e-7


def test_fidelity_perfect_and_orthogonal():
    grid = DispersionGrid.from_ranges(omega=(-800, 800, 5), epsilon=(0.95, 1.05, 3))
    zero = ControlSequence(1e-4, np.zeros((4, 2)))
    fmap = fidelity_map(zero, grid, TargetSpec.constant_bloch((0, 0, 1)))
    assert np.allclose(fmap.values, 1.0, atol=1e-12)
    fmap2 = fidelity_map(zero, grid, TargetSpec.constant_bloch((1, 0, 0)))
    assert np.allclose(fmap2.values, 0.5, atol=1e-12)


def test_fidelity_range_validation():
    grid = DispersionGrid.from_ranges(omega=(0, 0, 1))
    from enspulse.bloch import FidelityMap

    with pytest.raises(ValueError):
        FidelityMap(grid, np.array([1.5]))


# ---------------------------------------------------------------------------
# phase-dispersion frame law
# ---------------------------------------------------------------------------


def test_phase_frame_law_random_pulses():
    rng = np.random.default_rng(11)
    grid = DispersionGrid(axes={"theta": np.array([0.0, 0.5, 1.0])})
    for _ in range(5):
        pulse = rand_pulse(rng, 24)
        assert phase_frame_check(pulse, grid) <= 1e-9


def test_phase_frame_law_zero_pulse():
    grid = DispersionGrid(axes={"theta": np.array([0.0, 0.3, 2.2])})
    zero = ControlSequence(1e-4, np.zeros((6, 2)))
    assert phase_frame_check(zero, grid) == 0.0


def test_phase_frame_law_dense_theta_grid_with_offsets():
    rng = np.random.default_rng(12)
    pulse = rand_pulse(rng, 64)
    grid = DispersionGrid(
        axes={
            "omega": np.linspace(-1000, 1000, 5),
            "epsilon": np.array([0.9, 1.0, 1.1]),
            "theta": np.linspace(0, 2 * np.pi, 33),
        }
    )
    assert phase_frame_check(pulse, grid) <= 1e-9


def test_phase_frame_requires_theta_axis():
    grid = DispersionGrid.from_ranges(omega=(-1, 1, 3))
    with pytest.raises(ValueError):
        phase_frame_check(ControlSequence(1e-4, np.zeros((2, 2))), grid)


# ---------------------------------------------------------------------------
# control-sequence validation
# ---------------------------------------------------------------------------


def test_amplitude_bound_enforced():
    with pytest.raises(ValueError):
        ControlSequence(1e-4, np.array([[3000.0, 4000.0]]), a_max=4999.0)
    ControlSequence(1e-4, np.array([[3000.0, 4000.0]]), a_max=5000.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        DispersionGrid(axes={"omega": np.array([1.0, 0.5])})
    with pytest.raises(ValueError):
        DispersionGrid(axes={"bogus": np.array([1.0])})


def test_grid_mismatch_rejected():
    g1 = DispersionGrid.from_ranges(omega=(-10, 10, 3))
    g2 = DispersionGrid.from_ranges(omega=(-10, 10, 4))
    pulse = ControlSequence(1e-4, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="different grid"):
        propagate(pulse, g2, EnsembleState.uniform_bloch(g1, (0, 0, 1)))
    state = EnsembleState.uniform_bloch(g1, (0, 0, 1))
    with pytest.raises(ValueError, match="kinds differ"):
        ensemble_distance(state, TargetSpec.constant_spinor(1, 0))


def test_net_rotation_agrees_with_series_product():
    rng = np.random.default_rng(13)
    pulse = rand_pulse(rng, 9)
    omega, eps = -1300.0, 0.93
    acc = np.eye(3)
    for k in range(pulse.nsteps):
        acc = so3_step_matrix(omega, eps, pulse.u[k], pulse.v[k], pulse.dt) @ acc
    assert np.allclose(net_rotation(pulse, omega, eps), acc, atol=1e-11)
    assert np.allclose(
        step_rotation(omega, eps, pulse.u[0], pulse.v[0], pulse.dt),
        so3_step_matrix(omega, eps, pulse.u[0], pulse.v[0], pulse.dt),
        atol=1e-12,
    )
