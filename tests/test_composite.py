"""Bracket-word compilation tests.

Oracles: scipy.linalg.expm for exact exponentials, direct 4x4 matrix
products for the two-qubit identities, dense normal equations for fits, and
closed-form segment rotations (Rodrigues' formula, involution exponentials
and local SU(2) factors) for the segment simulators.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from enspulse.bloch import net_rotation
from enspulse.composite import (
    BracketWord,
    RobustRotationSpec,
    commutator_block,
    compile_j_robust_zz,
    compile_omega_robust,
    compile_robust_rotation,
    fit_coefficients,
    gate_fidelity,
    generator_level_rotation_fidelity,
    reduce_coupling_tensor,
    rotation_fidelity,
    simulate_two_qubit,
    COUPLING_ELEMENTS,
    DEFAULT_DT,
    RF_CHANNELS,
    Segment,
    _coupling_segments,
    _omega_segments,
    _realize,
    _rf_samples,
    _segments,
)
from enspulse.bloch import ControlSequence
from enspulse.errors import InfeasibleError
from enspulse.liealg import approximable, expm_skew, pauli, so3_generators

SO3 = so3_generators()


# ---------------------------------------------------------------------------
# group-commutator blocks
# ---------------------------------------------------------------------------


def test_block_zero_time_is_empty():
    assert commutator_block("y", "x", 0.0).nsteps == 0


def test_block_approximates_bracket_direction():
    t = 1e-4
    block = commutator_block("y", "x", t)
    target = expm(t * (SO3["y"].entries @ SO3["x"].entries - SO3["x"].entries @ SO3["y"].entries)).real
    achieved = net_rotation(block, omega=0.0, epsilon=1.0)
    assert np.linalg.norm(achieved - target) < 10 * t**1.5


def test_block_error_scaling_slope():
    errs = []
    ts = np.array([1e-2, 1e-3, 1e-4])
    brak = SO3["y"].entries @ SO3["x"].entries - SO3["x"].entries @ SO3["y"].entries
    for t in ts:
        block = commutator_block("y", "x", t)
        err = np.linalg.norm(net_rotation(block) - expm(t * brak).real)
        errs.append(err)
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert 1.35 <= slope <= 1.65


def test_subdivision_monotone_improvement():
    t = 0.5
    brak = SO3["y"].entries @ SO3["x"].entries - SO3["x"].entries @ SO3["y"].entries
    target = expm(t * brak).real
    errs = []
    for m in (1, 4, 16):
        block = commutator_block("y", "x", t / m)
        pulse = block
        for _ in range(m - 1):
            pulse = pulse.concat(block)
        errs.append(np.linalg.norm(net_rotation(pulse) - target))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# coefficient fitting
# ---------------------------------------------------------------------------


def test_fit_matches_dense_oracle():
    grid = np.linspace(0.9, 1.1, 21)
    target = np.full(grid.shape, np.pi / 2)
    fit = fit_coefficients(target, [{"eps": 1}, {"eps": 3}], {"eps": grid})
    a = np.vstack([grid, grid**3])
    oracle = np.linalg.solve(a @ a.T, a @ target)
    assert np.allclose(fit.coefficients, oracle, atol=1e-10)
    resid_oracle = np.abs(target - a.T @ oracle).max()
    assert fit.max_residual <= 2 * resid_oracle + 1e-15


def test_fit_exact_member():
    grid = np.linspace(0.8, 1.2, 11)
    fit = fit_coefficients(grid**3, [{"eps": 3}], {"eps": grid})
    assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert fit.max_residual <= 1e-12


def test_fit_even_target_odd_basis_infeasible():
    grid = np.linspace(-0.2, 0.2, 21)
    fit = fit_coefficients(np.full(grid.shape, np.pi / 2), [{"eps": 1}, {"eps": 3}], {"eps": grid})
    assert not fit.achievable


def test_omega_fit_from_word_exponents_equals_hand_built_family():
    grid = np.linspace(-0.3, 0.3, 15)
    target = np.pi / 2 + 0.4 * grid**2
    powers = (0, 1, 2, 3)
    oracle = approximable(target, np.array([grid**p for p in powers]), 5e-2)
    out = compile_omega_robust(target, grid, powers=powers)
    assert np.array_equal(out.diagnostics["coefficients"], oracle.coefficients)
    assert out.diagnostics["fit_max"] == oracle.max_residual


# ---------------------------------------------------------------------------
# rf-scale compensation
# ---------------------------------------------------------------------------


def test_robust_rotation_generator_level():
    grid = np.linspace(0.9, 1.1, 21)
    spec = RobustRotationSpec("x", np.pi / 2, grid, basis=(1, 3, 5))
    out = compile_robust_rotation(spec)
    fids = generator_level_rotation_fidelity(out, np.pi / 2, "x", grid)
    assert fids.min() >= 0.9999


def test_generator_level_fidelity_matches_per_point_exponentials():
    # oracle: one evaluate and one expm per grid point
    grid = np.linspace(0.8, 1.2, 17)
    angles = np.pi / 2 + 0.1 * grid
    out = compile_robust_rotation(RobustRotationSpec("y", angles, grid, basis=(1, 3, 5), tol=0.5))
    fids = generator_level_rotation_fidelity(out, angles, "y", grid)
    oracle = [
        rotation_fidelity(
            expm(out.predicted.evaluate({"eps": e}).real), expm(a * SO3["y"].entries.real)
        )
        for e, a in zip(grid, angles)
    ]
    assert fids.shape == grid.shape
    assert np.abs(fids - oracle).max() <= 1e-15


def test_generator_level_exactness_separates_fit_from_compilation():
    # exp of the predicted element misses the target by the fit residual
    # alone, independent of how well the commutator blocks realize it
    grid = np.linspace(0.9, 1.1, 13)
    out = compile_robust_rotation(RobustRotationSpec("x", np.pi / 2, grid, (1, 3)))
    coeffs = np.array(out.diagnostics["coefficients"])
    for e in grid:
        achieved = expm(out.predicted.evaluate({"eps": e}).real)
        angle_fit = coeffs @ np.array([e, e**3])
        assert np.linalg.norm(achieved - expm(angle_fit * SO3["x"].entries).real) <= 1e-10


def test_robust_rotation_monotone_in_basis():
    grid = np.linspace(0.9, 1.1, 21)
    worst = []
    for basis in ((1,), (1, 3), (1, 3, 5)):
        out = compile_robust_rotation(RobustRotationSpec("x", np.pi / 2, grid, basis, tol=1.0))
        fids = generator_level_rotation_fidelity(out, np.pi / 2, "x", grid)
        worst.append(1.0 - fids.min())
    assert worst[0] > worst[1] > worst[2]


def test_robust_rotation_single_point_is_plain():
    out = compile_robust_rotation(RobustRotationSpec("x", 1.1, np.array([1.0]), basis=(1,)))
    assert out.sequence.nsteps == 1
    fid = rotation_fidelity(net_rotation(out.sequence), expm(1.1 * SO3["x"].entries).real)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_robust_rotation_simulation_beats_plain():
    # the x-axis rotation is driven by the v channel in this plant; the
    # crossover against an already-decent plain rotation needs a hefty
    # subdivision count (commutator overhead ~ m^-0.4)
    grid = np.linspace(0.9, 1.1, 11)
    spec = RobustRotationSpec("x", np.pi / 2, grid, basis=(1, 3), subdivisions=512)
    out = compile_robust_rotation(spec)
    target = expm(np.pi / 2 * SO3["x"].entries).real
    plain = ControlSequence(1e-3, np.array([[0.0, np.pi / 2 / 1e-3]]))
    fid_comp = min(
        rotation_fidelity(net_rotation(out.sequence, epsilon=e), target) for e in grid
    )
    fid_plain = min(
        rotation_fidelity(net_rotation(plain, epsilon=e), target) for e in grid
    )
    assert fid_comp > fid_plain


def test_robust_rotation_simulation_improves_with_subdivision():
    grid = np.linspace(0.95, 1.05, 5)
    target = expm(np.pi / 2 * SO3["x"].entries).real
    worst = []
    for m in (1, 4, 16):
        out = compile_robust_rotation(
            RobustRotationSpec("x", np.pi / 2, grid, basis=(1, 3), subdivisions=m)
        )
        worst.append(
            1.0
            - min(rotation_fidelity(net_rotation(out.sequence, epsilon=e), target) for e in grid)
        )
    assert worst[0] > worst[1] > worst[2]


def test_robust_rotation_fidelity_map_beats_plain():
    # state-level comparison through the ensemble fidelity map
    from enspulse.bloch import DispersionGrid, TargetSpec, fidelity_map

    grid1d = np.linspace(0.9, 1.1, 11)
    spec = RobustRotationSpec("x", np.pi / 2, grid1d, basis=(1, 3), subdivisions=128)
    out = compile_robust_rotation(spec)
    grid = DispersionGrid(axes={"epsilon": grid1d})
    target = TargetSpec.constant_bloch((0.0, -1.0, 0.0))
    plain = ControlSequence(1e-3, np.array([[0.0, np.pi / 2 / 1e-3]]))
    fid_comp = fidelity_map(out.sequence, grid, target).min
    fid_plain = fidelity_map(plain, grid, target).min
    assert fid_comp > fid_plain


@pytest.mark.parametrize(
    "compile_empty",
    [
        lambda: compile_omega_robust(np.full(5, 0.4), np.linspace(-1.0, 1.0, 5), powers=()),
        lambda: compile_j_robust_zz(0.7, 1.0, 0.1, basis=()),
    ],
    ids=["omega-powers", "zz-basis"],
)
def test_empty_powers_are_rejected_by_name(compile_empty):
    with pytest.raises(ValueError, match="parameter powers must be nonempty"):
        compile_empty()


# ---------------------------------------------------------------------------
# offset compensation with strong rf
# ---------------------------------------------------------------------------


def test_drift_reversal_identity():
    # conjugating a drift period by instantaneous pi x-rotations inverts it
    omega_dt = 0.37
    lhs = (
        expm(np.pi * SO3["x"].entries)
        @ expm(omega_dt * SO3["z"].entries)
        @ expm(-np.pi * SO3["x"].entries)
    )
    assert np.linalg.norm(lhs - expm(-omega_dt * SO3["z"].entries)) <= 1e-12
    # and in the spinor representation
    sx, sz = pauli("x"), pauli("z")
    lhs2 = expm(-0.5j * np.pi * sx) @ expm(-0.5j * omega_dt * sz) @ expm(0.5j * np.pi * sx)
    assert np.linalg.norm(lhs2 - expm(0.5j * omega_dt * sz)) <= 1e-12


def test_omega_robust_negative_drift_segments():
    out = compile_omega_robust(np.array([0.4]), np.array([0.0]), powers=(0,), axis="x")
    # plain rotation for a collapsed grid
    assert len(out.sequence) == 1
    assert out.sequence[0].kind == "rot"
    assert out.sequence[0].angle == pytest.approx(0.4)


def test_omega_robust_inversion_generator_level():
    grid = np.linspace(-0.3, 0.3, 21)
    out = compile_omega_robust(np.full(grid.shape, np.pi), grid, powers=(0, 1, 2), axis="x")
    fids = []
    for w in grid:
        achieved = expm(out.predicted.evaluate({"omega": w}).real)
        fids.append(rotation_fidelity(achieved, expm(np.pi * SO3["x"].entries).real))
    assert min(fids) >= 0.999


def test_omega_robust_simulation_consistency():
    grid = np.linspace(-0.2, 0.2, 5)
    out = compile_omega_robust(np.full(grid.shape, 0.8), grid, powers=(0, 1, 2), axis="x",
                               subdivisions=8)
    for w in grid:
        sim = simulate_strong_rf(out.sequence, w)
        pred = expm(out.predicted.evaluate({"omega": w}).real)
        assert rotation_fidelity(sim, pred) >= 0.995


def test_single_quadrature_even_target_infeasible():
    grid = np.linspace(-0.3, 0.3, 21)
    with pytest.raises(InfeasibleError):
        compile_omega_robust(
            np.full(grid.shape, 0.5), grid, powers=(1, 3), axis="y", single_quadrature=True
        )


def test_single_quadrature_drops_even_powers_on_y():
    grid = np.linspace(0.1, 0.4, 21)  # asymmetric range: odd powers suffice
    out = compile_omega_robust(
        0.3 * grid, grid, powers=(1, 3), axis="y", single_quadrature=True, tol=1e-6
    )
    assert out.diagnostics["powers"] == [1, 3]


# ---------------------------------------------------------------------------
# the shared group-commutator realizer
# ---------------------------------------------------------------------------

AMOUNTS = st.floats(-2.0, 2.0, allow_nan=False)


def bracket_words(labels, depth=3):
    leaf = st.sampled_from(labels).map(BracketWord.leaf)
    if depth == 1:
        return leaf
    sub = bracket_words(labels, depth - 1)
    return st.one_of(leaf, st.builds(BracketWord.ad, sub, sub))


def cancelled(leaves):
    """What is left of a leaf list once every adjacent pair (label, a),
    (label, -a) has cancelled; a zero leaf is the identity."""
    left = []
    for label, a in leaves:
        if a == 0.0:
            continue
        if left and left[-1] == (label, -a):
            left.pop()
        else:
            left.append((label, a))
    return left


@pytest.mark.parametrize("labels", [("x", "y"), ("drift", "rx", "ry"), ("b1", "b2")])
@given(data=st.data(), a=AMOUNTS)
def test_a_realized_word_and_its_negative_cancel_leaf_by_leaf(labels, data, a):
    # one inverse rule for every family: the block at -a is the block at a
    # reversed with every amount negated
    word = data.draw(bracket_words(labels))
    leaves = _realize(word, a) + _realize(word, -a)
    assert all(isinstance(label, str) and label in labels for label, _ in leaves)
    assert cancelled(leaves) == []


@given(bracket_words(("x", "y")), AMOUNTS)
def test_realized_rf_word_and_its_negative_cancel(word, a):
    samples = _rf_samples([_realize(word, a) + _realize(word, -a)], 1)
    seq = ControlSequence(DEFAULT_DT, samples)
    for eps in (0.6, 1.0, 1.7):
        assert np.linalg.norm(net_rotation(seq, omega=0.0, epsilon=eps) - np.eye(3)) <= 1e-12


@given(st.lists(st.tuples(bracket_words(("x", "y")), AMOUNTS), min_size=1, max_size=3), st.integers(1, 5))
def test_rf_blocks_tile_bitwise_as_their_pieces_repeat(words, subdivisions):
    # each word's block mapped once and tiled is its leaves repeated, each
    # the sample a / dt on its channel
    blocks = [_realize(word, a) for word, a in words]
    got = _rf_samples(blocks, subdivisions)
    leaves = [leaf for block in blocks for leaf in block * subdivisions]
    want = np.zeros((len(leaves), 2))
    for row, (label, a) in zip(want, leaves):
        row[RF_CHANNELS[label]] = a / DEFAULT_DT
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(bracket_words(("drift", "rx", "ry")), AMOUNTS)
def test_realized_strong_rf_word_and_its_negative_cancel(word, a):
    segs = _segments([_realize(word, a) + _realize(word, -a)], 1, _omega_segments)
    for w in (-0.7, 0.0, 1.3):
        assert np.linalg.norm(simulate_strong_rf(segs, w) - np.eye(3)) <= 1e-12


@given(bracket_words(("b1", "b2")), AMOUNTS)
def test_realized_coupling_word_and_its_negative_cancel(word, a):
    segs = _segments([_realize(word, a) + _realize(word, -a)], 1, _coupling_segments)
    for j in (0.5, 1.0, 2.0):
        u = simulate_two_qubit(segs, j)
        phase = np.trace(u) / 4
        assert np.linalg.norm(u / phase - np.eye(4)) <= 1e-12


@pytest.mark.parametrize(
    "leaf_map, label, kind, flip",
    [
        (_omega_segments, "drift", "drift", Segment("rot", axis="x", angle=-np.pi)),
        (_coupling_segments, "b2", "coupling", Segment("local", qubit=1, axis="x", angle=np.pi)),
    ],
    ids=["drift", "coupling"],
)
def test_a_negative_period_runs_between_one_flip_pair(leaf_map, label, kind, flip):
    # a flipped period is never flipped again: exactly one pair, one period
    scale = 2.0 if kind == "coupling" else 1.0
    unflip = Segment(flip.kind, qubit=flip.qubit, axis=flip.axis, angle=-flip.angle)
    assert leaf_map(label, -0.3) == [flip, Segment(kind, duration=scale * 0.3), unflip]
    assert leaf_map(label, 0.3) == [Segment(kind, duration=scale * 0.3)]


def test_segment_blocks_are_mapped_once_and_repeated():
    # the leaves of each block map to segment objects that every repeat shares
    blocks = [_realize(BracketWord.ad(BracketWord.leaf("b1"), BracketWord.leaf("b2")), -0.2)]
    segs = _segments(blocks, 3, _coupling_segments)
    once = _segments(blocks, 1, _coupling_segments)
    assert segs == once * 3
    assert all(a is b for a, b in zip(segs, segs[len(once):]))


# ---------------------------------------------------------------------------
# coupling-strength compensation
# ---------------------------------------------------------------------------


def test_coupling_bracket_constant():
    b1 = COUPLING_ELEMENTS["b1"]
    b2 = COUPLING_ELEMENTS["b2"]
    from enspulse.liealg import bracket_poly

    nested = bracket_poly(b1, bracket_poly(b1, b2))
    assert len(nested.monomials) == 1
    assert nested.monomials[0].exponent_dict() == {"J": 3}
    expected = -16.0 * b2.monomials[0].coeff
    assert np.max(np.abs(nested.monomials[0].coeff - expected)) <= 1e-12


def test_b1_conjugation_segments():
    # the b1 leaf realizes exp(s J B1) through local conjugation of coupling
    s, j = 0.2, 1.3
    segs = _coupling_segments("b1", s)
    achieved = simulate_two_qubit(segs, j)
    b1 = -2j * np.kron(pauli("y"), pauli("z"))
    assert np.linalg.norm(achieved - expm(s * j * b1)) <= 1e-12
    segs_neg = _coupling_segments("b1", -s)
    assert np.linalg.norm(simulate_two_qubit(segs_neg, j) - expm(-s * j * b1)) <= 1e-12
    assert all(seg.duration >= 0 for seg in segs + segs_neg)


def test_zz_robust_trivial_delta():
    theta, j0 = np.pi / 3, 2.0
    out = compile_j_robust_zz(theta, j0, 0.0, basis=(1,))
    coupling = [s for s in out.sequence if s.kind == "coupling"]
    assert len(coupling) == 1
    assert coupling[0].duration == pytest.approx(theta / j0, abs=1e-12)


def test_zz_robust_generator_level():
    theta, j0, delta = np.pi / 4, 1.0, 0.1
    out = compile_j_robust_zz(theta, j0, delta, basis=(1, 3))
    zz = np.kron(pauli("z"), pauli("z"))
    target = expm(-1j * theta * zz)
    fids = []
    for j in np.linspace(j0 * (1 - delta), j0 * (1 + delta), 21):
        achieved = expm(out.predicted.evaluate({"J": j}))
        fids.append(gate_fidelity(achieved, target))
    assert min(fids) >= 0.999
    assert all(s.duration >= 0 for s in out.sequence if s.kind == "coupling")


def test_zz_robust_simulation_converges_to_prediction():
    worst = []
    for m in (1, 4, 16):
        out = compile_j_robust_zz(np.pi / 4, 1.0, 0.1, basis=(1, 3), subdivisions=m)
        worst.append(
            1.0
            - min(
                gate_fidelity(simulate_two_qubit(out.sequence, j), expm(out.predicted.evaluate({"J": j})))
                for j in (0.9, 1.0, 1.1)
            )
        )
    assert worst[0] > worst[1] > worst[2]
    assert worst[2] <= 0.03


# ---------------------------------------------------------------------------
# the segment simulators against closed-form segment rotations
# ---------------------------------------------------------------------------

PAULI = {a: pauli(a) for a in "xyzi"}


def simulate_strong_rf(segments, omega):
    """Time-ordered SO(3) product of drift and instantaneous-rotation
    segments, each exponentiated by :func:`~enspulse.liealg.expm_skew`."""
    out = np.eye(3)
    for seg in segments:
        ang, axis = (omega * seg.duration, "z") if seg.kind == "drift" else (seg.angle, seg.axis)
        out = expm_skew(ang * SO3[axis].entries.real) @ out
    return out


def rodrigues_strong_rf(segments, omega):
    """Ordered product of each segment's exp(ang G) = I + sin(ang) G + (1 - cos(ang)) G^2."""
    out = np.eye(3)
    for seg in segments:
        ang, axis = (omega * seg.duration, "z") if seg.kind == "drift" else (seg.angle, seg.axis)
        g = SO3[axis].entries.real
        out = (np.eye(3) + np.sin(ang) * g + (1 - np.cos(ang)) * (g @ g)) @ out
    return out


def involution_rot(m, angle):
    """exp(-i angle M) for M with M^2 = I."""
    return np.cos(angle) * np.eye(4) - 1j * np.sin(angle) * m


def closed_form_two_qubit(segments, j):
    """Ordered product of each segment's unitary: involution exponentials for
    the couplings and the tensor's three commuting terms, and cos - i sin
    SU(2) factors for the local rotations."""
    zz, xx, yy = (np.kron(PAULI[a], PAULI[a]) for a in "zxy")
    out = np.eye(4, dtype=complex)
    for seg in segments:
        if seg.kind == "coupling":
            u = involution_rot(zz, j * seg.duration)
        elif seg.kind == "local":
            half = 0.5 * seg.angle
            one = np.cos(half) * PAULI["i"] - 1j * np.sin(half) * PAULI[seg.axis]
            u = np.kron(one, PAULI["i"]) if seg.qubit == 1 else np.kron(PAULI["i"], one)
        else:
            a, b, g = seg.tensor
            t = seg.duration
            u = involution_rot(xx, a * t) @ involution_rot(yy, b * t) @ involution_rot(zz, g * t)
        out = u @ out
    return out


SPANS = st.floats(0.0, 3.0, allow_nan=False)
ANGLES = st.floats(-4.0, 4.0, allow_nan=False)
AXES = st.sampled_from("xyz")
STRONG_RF_SEGMENTS = st.lists(
    st.one_of(
        st.builds(Segment, st.just("drift"), duration=SPANS),
        st.builds(Segment, st.just("rot"), axis=AXES, angle=ANGLES),
    ),
    max_size=30,
)
TWO_QUBIT_SEGMENTS = st.lists(
    st.one_of(
        st.builds(Segment, st.just("coupling"), duration=SPANS),
        st.builds(
            Segment, st.just("local"), qubit=st.sampled_from((0, 1)), axis=AXES, angle=ANGLES
        ),
        st.builds(
            Segment, st.just("tensor"), duration=SPANS,
            tensor=st.tuples(*[st.floats(-1.5, 1.5, allow_nan=False)] * 3),
        ),
    ),
    max_size=30,
)


@given(STRONG_RF_SEGMENTS, st.floats(-2.0, 2.0, allow_nan=False))
def test_strong_rf_simulation_matches_rodrigues_on_random_segments(segments, omega):
    want = rodrigues_strong_rf(segments, omega)
    assert np.abs(simulate_strong_rf(segments, omega) - want).max() <= 1e-12


@given(TWO_QUBIT_SEGMENTS, st.floats(0.0, 2.0, allow_nan=False))
def test_two_qubit_simulation_matches_closed_forms_on_random_segments(segments, j):
    want = closed_form_two_qubit(segments, j)
    assert np.abs(simulate_two_qubit(segments, j) - want).max() <= 1e-12


def test_segment_simulations_match_closed_forms_on_compiled_sequences():
    grid = np.linspace(-0.2, 0.2, 5)
    omega = compile_omega_robust(np.full(grid.shape, 0.8), grid, powers=(0, 1, 2), subdivisions=8)
    for w in grid:
        got = simulate_strong_rf(omega.sequence, w)
        assert np.abs(got - rodrigues_strong_rf(omega.sequence, w)).max() <= 1e-12
    zz = compile_j_robust_zz(np.pi / 4, 1.0, 0.1, basis=(1, 3), subdivisions=8)
    echo = reduce_coupling_tensor(0.3, 0.2, 0.5, 1.0)
    for j in (0.9, 1.0, 1.1):
        for seq in (zz.sequence, echo.sequence):
            got = simulate_two_qubit(seq, j)
            assert np.abs(got - closed_form_two_qubit(seq, j)).max() <= 1e-12


# ---------------------------------------------------------------------------
# coupling-tensor reduction
# ---------------------------------------------------------------------------


def test_tensor_echo_direct_oracle():
    alpha, beta, gamma, t = 0.3, 0.2, 0.5, 1.0
    out = reduce_coupling_tensor(alpha, beta, gamma, t)
    achieved = simulate_two_qubit(out.sequence, j=0.0)
    zz = np.kron(pauli("z"), pauli("z"))
    xx = np.kron(pauli("x"), pauli("x"))
    yy = np.kron(pauli("y"), pauli("y"))
    # oracle: direct products of the conjugated tensor evolutions
    a_mat = expm(-1j * t * (alpha * xx + beta * yy + gamma * zz))
    u = expm(-1j * 0.5 * np.pi * np.kron(pauli("z"), pauli("i")))
    oracle = u @ a_mat @ u.conj().T @ a_mat
    assert np.linalg.norm(achieved - oracle) <= 1e-10
    assert np.linalg.norm(achieved - expm(-1j * 2 * gamma * t * zz)) <= 1e-10


def test_tensor_echo_zero_transverse():
    out = reduce_coupling_tensor(0.0, 0.0, 0.7, 1.0)
    achieved = simulate_two_qubit(out.sequence, 0.0)
    zz = np.kron(pauli("z"), pauli("z"))
    assert np.linalg.norm(achieved - expm(-1j * 1.4 * zz)) <= 1e-10


def test_tensor_echo_gamma_zero_identity():
    out = reduce_coupling_tensor(0.4, 0.3, 0.0, 1.0)
    achieved = simulate_two_qubit(out.sequence, 0.0)
    phase = achieved[0, 0] / abs(achieved[0, 0])
    assert np.linalg.norm(achieved / phase - np.eye(4)) <= 1e-10


def test_tensor_echo_commutes_with_zz():
    out = reduce_coupling_tensor(0.9, 0.1, 0.33, 0.8)
    achieved = simulate_two_qubit(out.sequence, 0.0)
    zz = np.kron(pauli("z"), pauli("z"))
    assert np.linalg.norm(achieved @ zz - zz @ achieved) <= 1e-12


# ---------------------------------------------------------------------------
# one reachability verdict for every compiler
# ---------------------------------------------------------------------------

REACH_GRID = np.linspace(0.9, 1.1, 9)


@pytest.mark.parametrize(
    "compile_unreachable, message",
    [
        pytest.param(
            lambda: compile_robust_rotation(RobustRotationSpec("x", 1.0, REACH_GRID, (1, 2))),
            "power eps\\^2 on axis x is not bracket-reachable",
            id="rf",
        ),
        pytest.param(
            lambda: compile_omega_robust(
                0.3 * REACH_GRID, REACH_GRID, powers=(2,), axis="y", single_quadrature=True
            ),
            "axis y carries no requested offset powers",
            id="omega-single-quadrature",
        ),
        pytest.param(
            lambda: compile_j_robust_zz(0.7, 1.0, 0.1, basis=(1, 2)),
            "power J\\^2 on axis zz is not bracket-reachable",
            id="zz",
        ),
    ],
)
def test_every_compiler_rejects_an_unreachable_power(compile_unreachable, message):
    # the closure of each backend's own element table decides, before any fit
    with pytest.raises(InfeasibleError, match=message):
        compile_unreachable()


# ---------------------------------------------------------------------------
# one compile step: subdivisions, then reachability, then the fit
# ---------------------------------------------------------------------------


def robust_rotation_subdivided(m):
    # the spec is a mutable record: the compiler checks the count it is given
    spec = RobustRotationSpec("x", 1.0, REACH_GRID, (1, 3))
    spec.subdivisions = m
    return compile_robust_rotation(spec)


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize(
    "compile_subdivided",
    [
        robust_rotation_subdivided,
        lambda m: compile_omega_robust(np.full(REACH_GRID.shape, 0.3), REACH_GRID, subdivisions=m),
        lambda m: compile_j_robust_zz(0.7, 1.0, 0.1, subdivisions=m),
    ],
    ids=["rf", "omega", "zz"],
)
def test_every_compiler_rejects_a_subdivision_count_below_one(compile_subdivided, m):
    with pytest.raises(ValueError, match=f"subdivisions must be >= 1, got {m}"):
        compile_subdivided(m)


@pytest.mark.parametrize(
    "compile_zero",
    [
        lambda: compile_robust_rotation(RobustRotationSpec("x", 0.0, REACH_GRID, (1, 3))),
        lambda: compile_omega_robust(np.zeros(REACH_GRID.shape), REACH_GRID),
        lambda: compile_j_robust_zz(-0.0, 1.0, 0.1),
    ],
    ids=["rf", "omega", "zz"],
)
def test_every_compiler_rejects_a_zero_target_by_name(compile_zero):
    # nothing to compile: the words would carry no rotation
    with pytest.raises(ValueError, match="target angle is zero at every grid point"):
        compile_zero()

