"""Ensemble propagation, fidelity and frame-law tests.

Independent oracles used here: a truncated-series matrix exponential and a
direct ordered 2x2 matrix product.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enspulse import kernels
from enspulse.bloch import (
    ControlSequence,
    DispersionGrid,
    EnsembleState,
    TargetSpec,
    _pointwise_fidelity,
    fidelity_map,
    fidelity_of_states,
    net_rotation,
    net_su2,
    phase_frame_check,
    propagate,
)
from enspulse.composite import RobustRotationSpec, compile_robust_rotation
from enspulse.liealg import pauli, so3_generators

SO3 = so3_generators()

PROPERTY = settings(max_examples=40)


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


def one_step(u, v, dt):
    return ControlSequence(dt, np.array([[u, v]], dtype=float))


def su2_to_so3(m):
    """Adjoint image of SU(2) matrices (..., 2, 2), read from their first column."""
    return kernels.adjoint(m[..., 0, 0], m[..., 1, 0])


# ---------------------------------------------------------------------------
# single-step propagator
# ---------------------------------------------------------------------------


def test_step_quarter_turn_maps_z_to_x():
    dt = 1e-3
    u = (np.pi / 2) / dt
    rot = net_rotation(one_step(u, 0.0, dt), 0.0, 1.0)
    assert np.allclose(rot @ [0, 0, 1], [1, 0, 0], atol=1e-12)


def test_step_pure_offset_is_diagonal():
    omega, dt = 1234.5, 1e-4
    su2 = net_su2(one_step(0.0, 0.0, dt), omega, 0.7)
    assert su2.alpha == pytest.approx(np.exp(-0.5j * omega * dt), abs=1e-14)
    assert su2.beta == 0.0


def test_step_against_series_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        omega, u, v = rng.uniform(-3000, 3000, 3)
        eps = rng.uniform(0.5, 1.5)
        dt = 10 ** rng.uniform(-5, -3)
        step = one_step(u, v, dt)
        su2, rot = net_su2(step, omega, eps), net_rotation(step, omega, eps)
        assert np.allclose(su2.matrix, su2_step_matrix(omega, eps, u, v, dt), atol=1e-12)
        assert np.allclose(rot, so3_step_matrix(omega, eps, u, v, dt), atol=1e-12)
        assert abs(np.linalg.det(su2.matrix) - 1.0) < 1e-12


def test_su2_so3_channel_correspondence():
    # adjoint of the SU(2) step equals the SO(3) step with u and v swapped
    rng = np.random.default_rng(4)
    for _ in range(10):
        omega, u, v = rng.uniform(-2000, 2000, 3)
        eps = rng.uniform(0.6, 1.4)
        dt = 2e-4
        su2 = net_su2(one_step(u, v, dt), omega, eps)
        rot_swapped = net_rotation(one_step(v, u, dt), omega, eps)
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
    pulse = one_step(800.0, -300.0, 1e-4)
    out = propagate(pulse, grid, EnsembleState.uniform_spinor(grid, 1, 0))
    # the step propagator: the series exponential of the one step's generator
    assert np.allclose(out.values[0], su2_step_matrix(0.0, 1.0, 800.0, -300.0, 1e-4)[:, 0], atol=1e-14)


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


@settings(max_examples=30, deadline=None)
@given(
    npoints=st.sampled_from([1, 7, kernels._CHUNK + 5, 2 * kernels._SPLIT + 3]),
    hard_pulse=st.booleans(),
    with_theta=st.booleans(),
    start=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_bloch_output_is_the_rotation_table_applied_by_einsum(npoints, hard_pulse, with_theta, start, seed):
    # R x0 is formed from the pair without the (npoints, 3, 3) table: bitwise
    # the table and einsum for a uniform initial vector, the CLI's case, and
    # within an ulp of a unit vector's components for per-point ones
    rng = np.random.default_rng(seed)
    u, v, dt, omega, eps, theta, *_ = random_pass(rng, 5, npoints, with_theta, hard_pulse)
    rot = kernels.rotation_propagate(u, v, dt, omega, eps, theta, hard_pulse)
    uniform = np.tile(np.array(start), (npoints, 1))
    per_point = rng.normal(size=(npoints, 3))
    per_point /= np.linalg.norm(per_point, axis=1, keepdims=True)
    for xyz0 in (uniform, per_point):
        got = kernels.bloch_propagate(u, v, dt, omega, eps, theta, xyz0, hard_pulse)
        want = np.einsum("nij,nj->ni", rot, xyz0)
        if xyz0 is uniform:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        else:
            assert np.abs(got - want).max() <= 2.3e-16


def one_shot_bloch(u, v, dt, omega, eps, theta, xyz0, hard_pulse):
    """The Bloch output as formed before it went per chunk: the adjoint's
    rows over every point at once, each row summed as einsum sums it."""
    x, y, z = np.asarray(xyz0, dtype=np.float64).T
    alpha, beta = kernels.spinor_propagate(
        v, u, dt, omega, eps, None if theta is None else -theta,
        np.ones(len(omega), dtype=np.complex128), np.zeros(len(omega), dtype=np.complex128),
        hard_pulse,
    )
    out = np.empty((len(omega), 3))
    for i, (r0, r1, r2) in enumerate(kernels._adjoint_rows(alpha, beta)):
        np.add(r0 * x + r2 * z, r1 * y, out=out[:, i])
    return out + 0.0


@pytest.mark.parametrize("hard_pulse", [False, True])
@pytest.mark.parametrize(
    "npoints", [kernels._CHUNK - 1, kernels._CHUNK, kernels._CHUNK + 1, 2 * kernels._CHUNK + 1, "split"]
)
def test_bloch_output_per_chunk_is_bitwise_the_one_shot_rows(monkeypatch, npoints, hard_pulse):
    # chunk edges, and a pass that splits over threads, for one vector at
    # every point (a broadcast view, as uniform_bloch gives) and per point
    rng = np.random.default_rng(31 + hard_pulse)
    if npoints == "split":
        monkeypatch.setattr(kernels, "_cpus", lambda: 4)
        u, v, dt, omega, eps, theta, *_ = split_pass(rng, hard_pulse, True)
        npoints = len(omega)
    else:
        u, v, dt, omega, eps, theta, *_ = random_pass(rng, 5, npoints, True, hard_pulse)
    start = np.array([0.6, 0.0, -0.8])
    per_point = rng.normal(size=(npoints, 3))
    per_point /= np.linalg.norm(per_point, axis=1, keepdims=True)
    for xyz0 in (np.broadcast_to(start, (npoints, 3)), np.tile(start, (npoints, 1)), per_point):
        got = kernels.bloch_propagate(u, v, dt, omega, eps, theta, xyz0, hard_pulse)
        want = one_shot_bloch(u, v, dt, omega, eps, theta, xyz0, hard_pulse)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("with_theta", [False, True])
@pytest.mark.parametrize("route", ["tiled", "polynomial"])
def test_a_scalar_start_is_bitwise_the_per_point_ones_and_zeros(route, with_theta):
    rng = np.random.default_rng(41 + with_theta)
    # 800 points at one rf scale give the polynomial route 8 points a step
    npoints = 800 if route == "polynomial" else 300
    u, v, dt, omega, eps, theta, *_ = random_pass(rng, 100, npoints, with_theta and route == "tiled", True)
    if route == "polynomial":
        eps = np.full(npoints, 0.9)
    arrays = np.ones(npoints, dtype=np.complex128), np.zeros(npoints, dtype=np.complex128)
    for hard_pulse in (True, False):
        got = kernels.spinor_propagate(u, v, dt, omega, eps, theta, 1.0, 0.0, hard_pulse)
        want = kernels.spinor_propagate(u, v, dt, omega, eps, theta, *arrays, hard_pulse)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_a_hard_pass_gives_its_tiles_one_float_scratch_row(monkeypatch):
    # the hard branch of the tile loop reads its first scratch row alone (the
    # gathered cosine); the exact element takes four
    rows = {}
    original = kernels._tile_part

    def record(*args):
        chunks, (floats, _) = args[-2:]
        rows[args[5] is not None] = len(floats) - 2  # za is set for a hard pulse
        return original(*args)

    monkeypatch.setattr(kernels, "_tile_part", record)
    args = list(random_pass(np.random.default_rng(6), 5, 300, False, True))
    args[4] = np.repeat([0.9, 1.1, 1.0], 100)  # three rf scales: the tile loop
    for hard_pulse in (True, False):
        kernels.spinor_propagate(*args[:-1], hard_pulse)
    assert rows == {True: 1, False: 4}


def reference_spinor_steps(u, v, dt, omega, eps, theta, alpha0, beta0, hard_pulse, real=np.float64):
    """The spinor step loop with each model's Cayley-Klein update written out
    in full, one step at a time, as the kernel computed it before it composed
    tiles of steps pairwise.  ``real=np.longdouble`` runs it in extended
    precision."""
    u, v, omega, eps = (np.asarray(w, dtype=real) for w in (u, v, omega, eps))
    theta = None if theta is None else np.asarray(theta, dtype=real)
    alpha = np.array(alpha0, dtype=np.result_type(real, 1j), copy=True)
    beta = np.array(beta0, dtype=alpha.dtype, copy=True)
    if hard_pulse:
        zhalf = np.exp(-0.5j * omega * dt)
    for k in range(len(u)):
        uk, vk = u[k], v[k]
        if theta is not None:
            ct, st_ = np.cos(theta), np.sin(theta)
            uk, vk = uk * ct + vk * st_, -uk * st_ + vk * ct
        if hard_pulse:
            alpha = alpha * zhalf
            beta = beta * np.conj(zhalf)
            phi = eps * np.hypot(uk, vk) * dt
            c = np.cos(0.5 * phi)
            s = np.sin(0.5 * phi)
            big_s = -1j * np.exp(1j * np.arctan2(vk, uk)) * s
            alpha, beta = c * alpha - np.conj(big_s) * beta, big_s * alpha + c * beta
        else:
            rx = eps * uk * dt
            ry = eps * vk * dt
            rz = omega * dt
            ang = np.sqrt(rx * rx + ry * ry + rz * rz)
            c = np.cos(0.5 * ang)
            sc = np.where(ang > 0.0, np.sin(0.5 * ang) / np.where(ang > 0.0, ang, 1.0), 0.5)
            sx, sy, sz = sc * rx, sc * ry, sc * rz
            a_new = (c - 1j * sz) * alpha + (-1j * sx - sy) * beta
            b_new = (-1j * sx + sy) * alpha + (c + 1j * sz) * beta
            alpha, beta = a_new, b_new
    return alpha, beta


@pytest.mark.parametrize("with_theta", [False, True])
@pytest.mark.parametrize("model", ["exact", "hard_pulse"])
@PROPERTY
@given(
    samples=st.lists(
        st.tuples(st.floats(-3000.0, 3000.0), st.floats(-3000.0, 3000.0)), min_size=1, max_size=40
    ),
    dt=st.floats(1e-5, 3e-4),
    points=st.lists(
        st.tuples(st.floats(-3000.0, 3000.0), st.floats(0.5, 1.5), st.floats(-np.pi, np.pi)),
        min_size=1,
        max_size=6,
    ),
    start=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 1e-3),
)
def test_spinor_kernel_matches_reference_step_loop(model, with_theta, samples, dt, points, start):
    u, v = np.array(samples).T
    omega, eps, theta = np.array(points).T
    q = np.array(start) / np.linalg.norm(start)
    alpha0 = np.full(len(points), complex(q[0], q[1]))
    beta0 = np.full(len(points), complex(q[2], q[3]))
    args = (u, v, dt, omega, eps, theta if with_theta else None, alpha0, beta0, model == "hard_pulse")
    got = kernels.spinor_propagate(*args)
    want = reference_spinor_steps(*args)
    # the tiled kernel composes the steps pairwise, so it agrees to roundoff
    assert spinor_error(got, want) <= 1e-13


def random_pass(rng, nsteps, npoints, with_theta, hard_pulse):
    """Arguments of a spinor pass: a random pulse, grid and starting spinor."""
    u, v = rng.uniform(-3000.0, 3000.0, (2, nsteps))
    omega = rng.uniform(-3000.0, 3000.0, npoints)
    eps = rng.uniform(0.5, 1.5, npoints)
    theta = rng.uniform(-np.pi, np.pi, npoints) if with_theta else None
    q = rng.normal(size=(4, npoints))
    q /= np.linalg.norm(q, axis=0)
    return (u, v, 1e-4, omega, eps, theta, q[0] + 1j * q[1], q[2] + 1j * q[3], hard_pulse)


def spinor_error(got, want):
    return float(max(np.abs(got[0] - want[0]).max(), np.abs(got[1] - want[1]).max()))


@pytest.mark.parametrize("with_theta", [False, True])
@pytest.mark.parametrize("hard_pulse", [False, True])
@pytest.mark.parametrize(
    "npoints, distinct_eps",
    [
        pytest.param(n, k, id=str(n) if k is None else f"{n}-{k}eps")
        for k in (None, 3)
        for n in (kernels._CHUNK + 300, 7)
    ],
)
def test_spinor_kernel_matches_reference_across_tile_edges(npoints, distinct_eps, hard_pulse, with_theta):
    # the step count is odd and a multiple of no chunk's block: full blocks,
    # an odd block and odd levels of the pairwise product all occur
    last_block = kernels._TILE // (npoints % kernels._CHUNK)
    nsteps = 2 * last_block + 3
    rng = np.random.default_rng(npoints + 2 * hard_pulse + with_theta)
    args = random_pass(rng, nsteps, npoints, with_theta, hard_pulse)
    if distinct_eps is not None:
        # a few rf scales shuffled over the points, as on an (omega, eps) grid
        args[4][:] = rng.choice(args[4][:distinct_eps], npoints)
    assert spinor_error(kernels.spinor_propagate(*args), reference_spinor_steps(*args)) <= 1e-13


def per_point_hard_pass(u, v, dt, omega, eps, alpha0, beta0):
    """The hard-pulse pass building every step's rf rotation at every grid
    point, tile by tile as the kernel does, with no sharing over equal eps."""
    alpha = np.array(alpha0, dtype=np.complex128, copy=True)
    beta = np.array(beta0, dtype=np.complex128, copy=True)
    u, v, hdt = u[:, None], v[:, None], 0.5 * dt
    for p in range(0, len(omega), kernels._CHUNK):
        pts = slice(p, p + kernels._CHUNK)
        ep, hz = eps[pts], hdt * omega[pts]
        zhalf = kernels._turn(hz)
        block = kernels._TILE // len(ep)
        x, y = alpha[pts], beta[pts]
        for k in range(0, len(u), block):
            c, b = kernels.hard_step(ep * u[k : k + block] * hdt, ep * v[k : k + block] * hdt)
            b *= zhalf
            x, y = kernels.su2_apply(*kernels._product(c * zhalf, b), x, y)
        alpha[pts], beta[pts] = x, y
    return alpha, beta


@settings(max_examples=25, deadline=None)
@given(
    nsteps=st.integers(1, 12),
    npoints=st.sampled_from([1, 5, kernels._CHUNK - 1, kernels._CHUNK + 37, 2 * kernels._CHUNK + 1]),
    ndistinct=st.sampled_from([1, 2, 7, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hard_pass_with_repeated_eps_is_bitwise_the_per_point_build(nsteps, npoints, ndistinct, seed):
    # None: every point has its own eps
    rng = np.random.default_rng(seed)
    u, v, _, omega, eps, _, alpha0, beta0, _ = random_pass(rng, nsteps, npoints, False, True)
    if ndistinct is not None:
        eps = rng.permutation(np.resize(eps[:ndistinct], npoints))
    # the tile loop, also where one eps over a wide grid meets the route's rule
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_POINTS_PER_STEP", 10**9)
        got = kernels.spinor_propagate(u, v, 1e-4, omega, eps, None, alpha0, beta0, True)
    want = per_point_hard_pass(u, v, 1e-4, omega, eps, alpha0, beta0)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=25, deadline=None)
@given(
    neps=st.sampled_from([64, 512, 1000]),
    nomega=st.integers(5, 9),
    eps_fastest=st.booleans(),
    batches=st.integers(1, 2),
    edge=st.integers(-1, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_hard_pass_over_a_product_grid_is_bitwise_the_per_point_build(
    neps, nomega, eps_fastest, batches, edge, seed
):
    # an (omega, eps) grid as fidelity-map builds it, and step counts on both
    # sides of an edge of the first chunk's batches of rf rotations
    rng = np.random.default_rng(seed)
    w, e = np.meshgrid(rng.uniform(-3000.0, 3000.0, nomega), rng.uniform(0.5, 1.5, neps))
    omega, eps = (w.ravel(), e.ravel()) if eps_fastest else (w.T.ravel(), e.T.ravel())
    batch = kernels._TILE // len(np.unique(eps[: kernels._CHUNK]))
    nsteps = batches * batch + edge
    u, v, _, _, _, _, alpha0, beta0, _ = random_pass(rng, nsteps, len(omega), False, True)
    got = kernels.spinor_propagate(u, v, 1e-4, omega, eps, None, alpha0, beta0, True)
    want = per_point_hard_pass(u, v, 1e-4, omega, eps, alpha0, beta0)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_hard_pass_with_one_eps_builds_each_rf_rotation_once_per_step(monkeypatch):
    shapes = []
    original = kernels.hard_step

    def recorded(hx, hy):
        shapes.append(np.shape(hx))
        return original(hx, hy)

    monkeypatch.setattr(kernels, "hard_step", recorded)
    # the tile loop: one eps over 6145 points would otherwise take the route
    monkeypatch.setattr(kernels, "_POINTS_PER_STEP", 10**9)
    args = list(random_pass(np.random.default_rng(11), 256, 6145, False, True))
    args[4] = np.full(6145, 0.93)
    kernels.spinor_propagate(*args)
    # two chunks, each building its steps' rotations in batches: one rotation
    # row per step and chunk, over the one eps
    assert sum(shape[0] for shape in shapes) == 2 * 256
    assert {shape[-1] for shape in shapes} == {1}


def split_pass(rng, hard_pulse, with_theta):
    """A pass that splits four ways: a partial last chunk, narrow tiles of
    five steps there, and three rf scales repeated over the points, so that
    a one-scale hard pass does not take the polynomial route."""
    npoints = 4 * kernels._SPLIT + 300
    args = list(random_pass(rng, 5, npoints, with_theta, hard_pulse))
    args[4] = rng.choice(args[4][:3], npoints)
    return args


@pytest.mark.parametrize("with_theta", [False, True])
@pytest.mark.parametrize("hard_pulse", [False, True])
def test_split_pass_is_bitwise_the_one_cpu_pass(monkeypatch, hard_pulse, with_theta):
    args = split_pass(np.random.default_rng(21 + 2 * hard_pulse + with_theta), hard_pulse, with_theta)
    threads = []
    original = kernels._tile_part
    monkeypatch.setattr(kernels, "_tile_part", lambda *a: threads.append(threading.get_ident()) or original(*a))
    monkeypatch.setattr(kernels, "_cpus", lambda: 4)
    # more threads than this host may have cores, switching as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = kernels.spinor_propagate(*args)
    finally:
        sys.setswitchinterval(interval)
    # four parts: one on this thread, three on workers
    assert len(threads) == 4 and threads.count(threading.get_ident()) == 1
    monkeypatch.setattr(kernels, "_cpus", lambda: 1)
    threads.clear()
    serial = kernels.spinor_propagate(*args)
    assert threads == [threading.get_ident()]
    assert np.array_equal(split[0], serial[0]) and np.array_equal(split[1], serial[1])


def test_a_pass_below_two_split_chunks_starts_no_thread(monkeypatch):
    monkeypatch.setattr(kernels, "_cpus", lambda: 8)
    started = []
    original = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or original(self))
    args = random_pass(np.random.default_rng(4), 3, 2 * kernels._SPLIT - 1, False, False)
    kernels.spinor_propagate(*args)
    assert started == []
    # one point more splits the pass in two: one worker beside this thread
    args = random_pass(np.random.default_rng(4), 3, 2 * kernels._SPLIT, False, False)
    kernels.spinor_propagate(*args)
    assert len(started) == 1


def test_a_40000_point_pass_still_starts_a_worker(monkeypatch):
    # a part's chunks are _SPLIT_CHUNK points wide, but a pass splits from
    # 2 * _SPLIT points on, so one of 40 000 points runs on two threads
    npoints = 40_000
    assert 2 * kernels._SPLIT <= npoints < 2 * kernels._SPLIT_CHUNK
    monkeypatch.setattr(kernels, "_cpus", lambda: 8)
    started = []
    original = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or original(self))
    args = random_pass(np.random.default_rng(6), 3, npoints, False, False)
    split = kernels.spinor_propagate(*args)
    assert len(started) == 1
    monkeypatch.setattr(kernels, "_cpus", lambda: 1)
    serial = kernels.spinor_propagate(*args)
    assert len(started) == 1
    assert np.array_equal(split[0], serial[0]) and np.array_equal(split[1], serial[1])


def test_an_error_in_a_worker_reaches_the_caller_and_no_thread_outlives_the_pass(monkeypatch):
    main = threading.get_ident()
    original = kernels._tile_part

    def failing(*args):
        if threading.get_ident() != main:
            raise FloatingPointError("raised in a worker's part")
        return original(*args)

    monkeypatch.setattr(kernels, "_tile_part", failing)
    monkeypatch.setattr(kernels, "_cpus", lambda: 4)
    before = threading.active_count()
    args = random_pass(np.random.default_rng(5), 3, 3 * kernels._SPLIT + 7, True, False)
    with pytest.raises(FloatingPointError, match="worker's part"):
        kernels.spinor_propagate(*args)
    assert threading.active_count() == before


@settings(max_examples=60, deadline=None)
@given(cpus=st.integers(1, 16), npoints=st.integers(0, 40 * kernels._SPLIT))
def test_parts_never_outnumber_the_cpus_and_tile_each_point_as_unsplit(cpus, npoints):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_cpus", lambda: cpus)
        parts = kernels._parts(npoints)
    assert 1 <= len(parts) <= cpus
    split = len(parts) > 1
    assert not split or npoints >= 2 * kernels._SPLIT
    tail = npoints - npoints % kernels._CHUNK
    at = 0
    for part in parts:
        assert at % kernels._CHUNK == 0
        for pts in part:
            width = pts.stop - pts.start
            assert pts.start == at and 0 < width <= (kernels._SPLIT_CHUNK if split else kernels._CHUNK)
            # every chunk but the grid's partial last one is one step a tile,
            # and that one is the unsplit pass's last chunk
            assert width >= kernels._CHUNK or (pts.start, pts.stop) == (tail, npoints)
            at = pts.stop
    assert at == npoints


control_row = st.tuples(st.floats(-3000.0, 3000.0), st.floats(-3000.0, 3000.0))


@st.composite
def run_pulses(draw, max_period=10, max_count=40):
    """Controls ``(u, v)`` made of a literal prefix, runs of repeated blocks and
    a literal suffix.  Block rows are fresh or drawn from a small shared pool,
    so blocks repeat rows internally and share rows with each other."""
    pool = draw(st.lists(control_row, min_size=1, max_size=3))
    row = st.one_of(st.sampled_from(pool), control_row)
    samples = draw(st.lists(control_row, max_size=20))
    for period, count in draw(
        st.lists(st.tuples(st.integers(1, max_period), st.integers(1, max_count)), min_size=1, max_size=3)
    ):
        samples += draw(st.lists(row, min_size=period, max_size=period)) * count
    samples += draw(st.lists(control_row, max_size=20))
    u, v = np.array(samples).T
    return u.copy(), v.copy()


def check_segments(u, v, segments):
    """The segments tile the steps in order, and each run's copies are bitwise
    its first block."""
    bits = np.column_stack((u, v)).view(np.int64)
    at = 0
    for start, period, count in segments:
        assert start == at and period >= 1 and count >= 1
        copies = bits[start : start + period * count].reshape(count, period, 2)
        assert np.array_equal(copies, np.broadcast_to(copies[0], copies.shape))
        at += period * count
    assert at == len(u)
    # a pulse with no run is one literal stretch, so it takes the tile loop whole
    assert len(segments) == 1 or any(count > 1 for _, _, count in segments)


@settings(max_examples=150, deadline=None)
@given(pulse=run_pulses(max_period=60), npoints=st.sampled_from([1, 21, 300, kernels._CHUNK + 5]))
def test_run_segments_tile_the_pulse_with_bitwise_copies(pulse, npoints):
    check_segments(*pulse, kernels._runs(*pulse, npoints))


@pytest.mark.parametrize("with_theta", [False, True])
@pytest.mark.parametrize("hard_pulse", [False, True])
@settings(max_examples=12, deadline=None)
@given(
    pulse=run_pulses(),
    npoints=st.sampled_from([40, 300, kernels._CHUNK + 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_pass_matches_reference_step_loop(pulse, npoints, seed, hard_pulse, with_theta):
    # npoints sets how many steps a run must spare to be taken
    u, v = pulse
    _, _, dt, omega, eps, theta, alpha0, beta0, _ = random_pass(
        np.random.default_rng(seed), 0, npoints, with_theta, hard_pulse
    )
    check_segments(u, v, kernels._runs(u, v, npoints))
    args = (u, v, dt, omega, eps, theta, alpha0, beta0, hard_pulse)
    assert spinor_error(kernels.spinor_propagate(*args), reference_spinor_steps(*args)) <= 1e-12


def readme_composite(subdivisions):
    """The README composite: a quarter turn about x, robust over eps 0.9-1.1
    on the basis 1, 3, 5, each word's block repeated ``subdivisions`` times."""
    grid = np.linspace(0.9, 1.1, 21)
    out = compile_robust_rotation(RobustRotationSpec("x", np.pi / 2, grid, (1, 3, 5), subdivisions=subdivisions))
    return out.sequence


def test_subdivided_composite_is_a_run_per_word():
    seq = readme_composite(256)
    assert seq.nsteps == 14592
    # at 21 points a run must spare 391 steps: the 1-step word's would spare 255
    assert kernels._runs(seq.u, seq.v, 21) == [(0, 256, 1), (256, 10, 256), (2816, 46, 256)]
    assert kernels._runs(seq.u, seq.v, 300) == [(0, 1, 256), (256, 10, 256), (2816, 46, 256)]


@pytest.mark.parametrize("hard_pulse", [False, True])
def test_subdivided_composite_pass_matches_reference_step_loop(hard_pulse):
    seq = readme_composite(64)
    assert len(kernels._runs(seq.u, seq.v, 21)) == 3
    eps = np.linspace(0.9, 1.1, 21)
    omega = np.linspace(-50.0, 50.0, 21)
    args = (seq.u, seq.v, seq.dt, omega, eps, None, np.ones(21, complex), np.zeros(21, complex), hard_pulse)
    assert spinor_error(kernels.spinor_propagate(*args), reference_spinor_steps(*args)) <= 1e-12


@pytest.mark.parametrize("npoints", [1, 21, kernels._CHUNK + 5])
def test_fragmented_pulse_stays_one_literal_stretch(npoints):
    # 14 592 steps drawn from three samples: thousands of short repeats, none
    # worth a run, so the pass takes the tile loop whole
    rng = np.random.default_rng(7)
    u, v = rng.uniform(-3000.0, 3000.0, (3, 2))[rng.integers(0, 3, 14592)].T
    assert kernels._runs(u, v, npoints) == [(0, 14592, 1)]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
@pytest.mark.parametrize("nsteps, npoints", [(14592, 21), (20000, 3)])
def test_spinor_kernel_is_as_accurate_as_the_step_loop(nsteps, npoints):
    # the long sequences of composite compilation, against an extended-precision product
    args = random_pass(np.random.default_rng(nsteps), nsteps, npoints, False, False)
    exact = reference_spinor_steps(*args, real=np.longdouble)
    loop_err = spinor_error(reference_spinor_steps(*args), exact)
    assert spinor_error(kernels.spinor_propagate(*args), exact) <= 4 * loop_err + 1e-15


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
@pytest.mark.parametrize("with_theta", [False, True])
@pytest.mark.parametrize("hard_pulse", [False, True])
def test_spinor_kernel_is_as_accurate_as_the_step_loop_on_wide_grids(hard_pulse, with_theta):
    # the short pulses of fidelity maps, where every tile is one step wide
    npoints = kernels._CHUNK + 300
    assert kernels._TILE // kernels._CHUNK == 1
    args = random_pass(np.random.default_rng(128), 128, npoints, with_theta, hard_pulse)
    exact = reference_spinor_steps(*args, real=np.longdouble)
    loop_err = spinor_error(reference_spinor_steps(*args), exact)
    assert spinor_error(kernels.spinor_propagate(*args), exact) <= 4 * loop_err + 1e-15


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
@pytest.mark.parametrize("hard_pulse", [False, True])
def test_powered_pass_is_as_accurate_as_the_step_loop(hard_pulse):
    # the 64-fold composite: its word blocks raised to the 64th power by squaring
    seq = readme_composite(64)
    eps = np.linspace(0.9, 1.1, 21)
    args = (seq.u, seq.v, seq.dt, np.zeros(21), eps, None, np.ones(21, complex), np.zeros(21, complex), hard_pulse)
    exact = reference_spinor_steps(*args, real=np.longdouble)
    loop_err = spinor_error(reference_spinor_steps(*args), exact)
    assert spinor_error(kernels.spinor_propagate(*args), exact) <= 4 * loop_err + 1e-15


def one_scale_pass(rng, nsteps, npoints, max_flip, dt=1e-4):
    """A hard-pulse pass at one rf scale: flips up to ``max_flip`` per step at
    random rf phases, offsets over the whole unaliased band."""
    eps = rng.uniform(0.5, 1.5)
    amp = rng.uniform(0.0, max_flip, nsteps) / (eps * dt)
    phase = rng.uniform(-np.pi, np.pi, nsteps)
    u, v = amp * np.cos(phase), amp * np.sin(phase)
    omega = rng.uniform(-np.pi / dt, np.pi / dt, npoints)
    q = rng.normal(size=(4, npoints))
    q /= np.linalg.norm(q, axis=0)
    return (u, v, dt, omega, np.full(npoints, eps), None, q[0] + 1j * q[1], q[2] + 1j * q[3], True)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
@settings(max_examples=30, deadline=None)
@given(
    nsteps=st.integers(1, 1024),
    npoints=st.integers(1, 257),
    max_flip=st.floats(0.0, np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_polynomial_route_is_as_accurate_as_the_step_loop(nsteps, npoints, max_flip, seed):
    # the route's accuracy does not depend on the width that selects it, so
    # narrow grids reach 1024 steps at a small cost
    args = one_scale_pass(np.random.default_rng(seed), nsteps, npoints, max_flip)
    exact = reference_spinor_steps(*args, real=np.longdouble)
    loop_err = spinor_error(reference_spinor_steps(*args), exact)
    u, v, dt, omega, eps, _, alpha0, beta0, _ = args
    got = kernels._polynomial_pass(u, v, dt, omega, eps[0], alpha0, beta0)
    assert spinor_error(got, exact) <= 4 * loop_err + 1e-15


@pytest.mark.parametrize("nsteps", [1, 2, 7, 64, 255])
def test_polynomial_route_agrees_with_the_tile_loop(monkeypatch, nsteps):
    args = one_scale_pass(np.random.default_rng(nsteps), nsteps, 8 * nsteps, np.pi)
    routed = kernels.spinor_propagate(*args)
    monkeypatch.setattr(kernels, "_POINTS_PER_STEP", 10**9)
    assert spinor_error(routed, kernels.spinor_propagate(*args)) <= 1e-12


@pytest.mark.parametrize("kind", ["spinor", "unitary", "bloch"])
def test_propagate_takes_the_route_for_every_state_kind(monkeypatch, kind):
    rng = np.random.default_rng(17)
    pulse = rand_pulse(rng, 40, dt=1e-4, scale=6000.0)
    grid = DispersionGrid(axes={"omega": np.linspace(-3e4, 3e4, 320), "epsilon": np.array([0.9])})
    start = {
        "spinor": EnsembleState.uniform_spinor(grid, 0.6, 0.8j),
        "unitary": EnsembleState.uniform_unitary(grid, su2_from([0.3, -0.5, 0.1, 0.8])),
        "bloch": EnsembleState.uniform_bloch(grid, (0.6, 0.0, 0.8)),
    }[kind]
    steps = []
    monkeypatch.setattr(kernels, "hard_step", lambda *a, f=kernels.hard_step: steps.append(1) or f(*a))
    routed = propagate(pulse, grid, start, model="hard_pulse").values
    assert steps == [1]
    monkeypatch.setattr(kernels, "_POINTS_PER_STEP", 10**9)
    looped = propagate(pulse, grid, start, model="hard_pulse").values
    assert len(steps) > 1
    assert np.abs(routed - looped).max() <= 1e-12


def test_route_builds_the_rf_rotations_once_and_skips_the_tile_loop(monkeypatch):
    calls = []
    for name in ("hard_step", "_tiled_pass"):
        original = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    args = list(one_scale_pass(np.random.default_rng(5), 64, 8 * 64, np.pi))
    u, v, dt, _, eps = args[:5]
    recorded = []
    monkeypatch.setattr(kernels, "slr_forward", lambda c, s, f=kernels.slr_forward: recorded.append((c, s)) or f(c, s))
    kernels.spinor_propagate(*args)
    assert calls == ["hard_step"]
    # eps * u before the scale by dt/2, as the tile loop builds each rotation
    c, s = kernels.hard_step(eps[0] * u * (0.5 * dt), eps[0] * v * (0.5 * dt))
    assert np.array_equal(recorded[0][0], c) and np.array_equal(recorded[0][1], s)
    # one point short of the rule, a second rf scale or an rf phase: the tile loop
    for change in (
        lambda a: [x[1:] if i in (3, 4, 6, 7) else x for i, x in enumerate(a)],
        lambda a: a[:4] + [np.where(np.arange(len(a[4])) % 2, a[4], 1.0)] + a[5:],
        lambda a: a[:5] + [np.zeros(len(a[3]))] + a[6:],
        lambda a: a[:8] + [False],
    ):
        calls.clear()
        kernels.spinor_propagate(*change(args))
        assert "_tiled_pass" in calls


def test_long_pass_builds_no_whole_pulse_table():
    # an (nsteps, npoints) complex table of this pass alone would be 9.6 MB
    args = random_pass(np.random.default_rng(3), 200_000, 3, True, True)
    tracemalloc.start()
    try:
        kernels.spinor_propagate(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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
    joint = propagate(ControlSequence(p1.dt, np.vstack([p1.samples, p2.samples])), grid, init)
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
    scaled = ControlSequence(pulse.dt, pulse.samples * eps)
    b = propagate(scaled, g_one, EnsembleState.uniform_spinor(g_one, 1, 0))
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
# fidelities
# ---------------------------------------------------------------------------


def test_fidelity_perfect_and_orthogonal():
    grid = DispersionGrid.from_ranges(omega=(-800, 800, 5), epsilon=(0.95, 1.05, 3))
    zero = ControlSequence(1e-4, np.zeros((4, 2)))
    start = EnsembleState.uniform_bloch(grid, (0, 0, 1))
    fmap = fidelity_map(zero, grid, TargetSpec.constant_bloch((0, 0, 1)), start)
    assert np.allclose(fmap.values, 1.0, atol=1e-12)
    fmap2 = fidelity_map(zero, grid, TargetSpec.constant_bloch((1, 0, 0)), start)
    assert np.allclose(fmap2.values, 0.5, atol=1e-12)


def test_uniform_bloch_values_are_read_only_and_propagate_as_a_tiled_state():
    grid = DispersionGrid.from_ranges(omega=(-800, 800, 9), epsilon=(0.9, 1.1, 5))
    vec = np.array([0.6, 0.0, 0.8])
    state = EnsembleState.uniform_bloch(grid, vec)
    vec[0] = 0.0  # the state holds its own copy
    assert state.values.shape == (grid.size, 3) and not state.values.flags.writeable
    with pytest.raises(ValueError):
        state.values[0, 0] = 1.0
    tiled = EnsembleState(grid, "bloch", np.tile([0.6, 0.0, 0.8], (grid.size, 1)))
    assert tiled.values.flags.writeable
    pulse = rand_pulse(np.random.default_rng(8), 6)
    target = TargetSpec.constant_bloch((0.0, 1.0, 0.0))
    for model in ("exact", "hard_pulse"):
        got = propagate(pulse, grid, state, model=model).values
        want = propagate(pulse, grid, tiled, model=model).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        got = fidelity_map(pulse, grid, target, state, model=model).values
        want = fidelity_map(pulse, grid, target, tiled, model=model).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_broadcast_start_checks_its_one_row():
    # the norm of a broadcast vector is checked once, not per point
    grid = DispersionGrid.from_ranges(omega=(-800, 800, 512), epsilon=(0.9, 1.1, 512))
    tracemalloc.start()
    try:
        state = EnsembleState.uniform_bloch(grid, (0.0, 0.6, 0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.values.strides[0] == 0 and peak < 1 << 16
    with pytest.raises(ValueError, match="normalization violated by 1.000e-01"):
        EnsembleState.uniform_bloch(grid, (0.0, 0.66, 0.88))
    with pytest.raises(ValueError, match="normalization"):
        EnsembleState.uniform_bloch(grid, (np.nan, 0.0, 1.0))


def uniform_start(kind, grid):
    if kind == "bloch":
        return EnsembleState.uniform_bloch(grid, (0.0, 0.0, 1.0))
    if kind == "spinor":
        return EnsembleState.uniform_spinor(grid, 1.0, 0.0)
    return EnsembleState.uniform_unitary(grid, np.eye(2))


TARGETS = {
    "bloch": TargetSpec.constant_bloch((0.0, 0.6, 0.8)),
    "spinor": TargetSpec("spinor", constant=np.array([0.6, 0.8j])),
    "unitary": TargetSpec.constant_unitary(su2_step_matrix(300.0, 1.0, 900.0, -400.0, 1e-3)),
}


@pytest.mark.parametrize("kind", ["bloch", "spinor", "unitary"])
@pytest.mark.parametrize("npoints", [1, 7, 4096, 65536])
def test_a_constant_target_is_a_read_only_broadcast_scoring_as_a_tiled_one(kind, npoints):
    grid = DispersionGrid.from_ranges(omega=(-1e4, 1e4, npoints))
    target = TARGETS[kind]
    got = target.values_on(grid)
    tiled = np.tile(target.constant, (npoints,) + (1,) * target.constant.ndim)
    assert not got.flags.writeable and got.strides[0] == 0 and np.array_equal(got, tiled)
    final = propagate(rand_pulse(np.random.default_rng(npoints), 5), grid, uniform_start(kind, grid)).values
    want = _pointwise_fidelity(kind, final, tiled)
    assert np.array_equal(_pointwise_fidelity(kind, final, got).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "state_kind, target",
    [
        ("bloch", TARGETS["spinor"]),
        ("bloch", TARGETS["unitary"]),
        ("bloch", TargetSpec.constant_unitary(np.eye(3))),
        ("spinor", TARGETS["bloch"]),
        ("spinor", TARGETS["unitary"]),
        ("unitary", TARGETS["bloch"]),
        ("unitary", TARGETS["spinor"]),
    ],
    ids=["bloch-spinor", "bloch-unitary", "bloch-unitary3", "spinor-bloch", "spinor-unitary",
         "unitary-bloch", "unitary-spinor"],
)
def test_a_target_of_another_kind_is_refused_by_name(state_kind, target):
    grid = DispersionGrid.from_ranges(omega=(-10, 10, 3))
    start = uniform_start(state_kind, grid)
    pulse = ControlSequence(1e-4, np.full((2, 2), 500.0))
    with pytest.raises(ValueError, match="state and target kinds differ"):
        fidelity_map(pulse, grid, target, start)
    with pytest.raises(ValueError, match="state and target kinds differ"):
        fidelity_of_states(start, target)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TargetSpec.per_point("bloch", np.zeros((3, 2))), r"bloch target values must be \(3,\), got \(2,\)"),
        (lambda: TargetSpec.constant_bloch((0, 0, 2)), "bloch target must be finite unit vectors, a norm is off by 1.000e"),
        (lambda: TargetSpec("bloch-ish", constant=np.array([0.0, 0.0, 1.0])), "unknown target kind 'bloch-ish'"),
        (lambda: TargetSpec.constant_bloch((0, 0, 1, 0)), r"bloch target values must be \(3,\), got \(4,\)"),
        (lambda: TargetSpec.per_point("spinor", np.ones((4, 3)) / np.sqrt(3)), r"spinor target values must be \(2,\)"),
        (lambda: TargetSpec.constant_unitary(np.ones((2, 3))), r"unitary target values must be \(d, d\), got \(2, 3\)"),
        (lambda: TargetSpec.per_point("unitary", np.ones((4, 2))), r"unitary target values must be \(d, d\), got \(2,\)"),
        (lambda: TargetSpec("spinor", constant=np.array([np.nan, 0.0])), "spinor target must be finite unit vectors"),
        (lambda: TargetSpec.per_point("bloch", [[0, 0, 1], [0, np.inf, 0]]), "bloch target must be finite unit vectors"),
        (lambda: TargetSpec.per_point("spinor", [[1, 0], [1, 1e-4]]), "spinor target must be finite unit vectors"),
        (lambda: TargetSpec.constant_unitary(2 * np.eye(2)),
         "unitary target must be finite unitary matrices, a norm is off by 4.243e"),
        (lambda: TargetSpec.constant_unitary(np.full((2, 2), np.nan)), "unitary target must be finite unitary matrices"),
        (lambda: TargetSpec.per_point("unitary", [np.eye(2), np.eye(2)[::-1] * 1j, [[0, 1], [1, 1e-4]]]),
         "unitary target must be finite unitary matrices"),
    ],
    ids=["bloch-table-shape", "bloch-not-unit", "unknown-kind", "bloch-constant-shape", "spinor-table-shape",
         "unitary-constant-shape", "unitary-table-shape", "spinor-nan", "bloch-inf", "spinor-not-unit",
         "unitary-twice-identity", "unitary-nan", "unitary-table-not-unitary"],
)
def test_a_target_checks_its_kind_shape_and_norm_by_name(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_a_target_within_the_norm_tolerance_is_kept_as_given():
    near = np.array([0.0, 0.0, 1.0 + 0.5 * EnsembleState.NORM_TOL])
    assert TargetSpec.constant_bloch(near).constant.tolist() == near.tolist()
    table = np.tile([0.6, 0.8j], (5, 1))
    assert TargetSpec.per_point("spinor", table).table is table


def test_a_writable_array_given_to_a_bloch_state_is_copied():
    grid = DispersionGrid.from_ranges(omega=(-1, 1, 4))
    given = np.tile([0.0, 0.0, 1.0], (grid.size, 1))
    state = EnsembleState(grid, "bloch", given)
    assert not np.shares_memory(state.values, given)
    given[0] = (1.0, 0.0, 0.0)
    assert np.array_equal(state.values, np.tile([0.0, 0.0, 1.0], (grid.size, 1)))
    # a read-only float array is kept as given
    frozen = np.tile([0.0, 1.0, 0.0], (grid.size, 1))
    frozen.flags.writeable = False
    assert EnsembleState(grid, "bloch", frozen).values is frozen


def test_fidelity_range_validation():
    grid = DispersionGrid.from_ranges(omega=(0, 0, 1))
    from enspulse.bloch import FidelityMap

    with pytest.raises(ValueError):
        FidelityMap(grid, np.array([1.5]))
    with pytest.raises(ValueError, match="finite"):
        FidelityMap(grid, np.array([np.nan]))


@pytest.mark.parametrize(
    "kind, values",
    [
        ("bloch", [[np.nan, 0.0, 1.0]]),
        ("spinor", [[np.nan, 0.0]]),
        ("unitary", [[[np.nan, 0.0], [0.0, 1.0]]]),
    ],
)
def test_state_with_nan_is_rejected(kind, values):
    grid = DispersionGrid.from_ranges(omega=(0, 0, 1))
    with pytest.raises(ValueError, match="normalization"):
        EnsembleState(grid, kind, np.array(values))


@pytest.mark.parametrize("axes", [{"J": [0.9, 1.0, 1.1]}, {"omega": [0.0, 10.0], "J": [1.0]}])
def test_propagation_rejects_an_axis_the_single_spin_does_not_have(axes):
    grid = DispersionGrid(axes={name: np.array(vals) for name, vals in axes.items()})
    pulse = ControlSequence(1e-4, np.full((3, 2), 500.0))
    with pytest.raises(ValueError, match="axis 'J' does not act on a single spin"):
        propagate(pulse, grid, EnsembleState.uniform_bloch(grid, (0.0, 0.0, 1.0)))
    with pytest.raises(ValueError, match="axis 'J'"):
        start = EnsembleState.uniform_bloch(grid, (0.0, 0.0, 1.0))
        fidelity_map(pulse, grid, TargetSpec.constant_bloch((1.0, 0.0, 0.0)), start)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["omega", "epsilon", "theta"])
def test_grid_rejects_an_axis_value_that_is_not_finite(axis, bad):
    for values in ([bad], [0.5, bad], [bad, bad]):
        with pytest.raises(ValueError, match=f"axis '{axis}' must be finite"):
            DispersionGrid(axes={"omega": np.array([0.0]), axis: np.array(values)})


def test_grid_mismatch_rejected():
    g1 = DispersionGrid.from_ranges(omega=(-10, 10, 3))
    g2 = DispersionGrid.from_ranges(omega=(-10, 10, 4))
    pulse = ControlSequence(1e-4, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="different grid"):
        propagate(pulse, g2, EnsembleState.uniform_bloch(g1, (0, 0, 1)))


def test_net_rotation_agrees_with_series_product():
    rng = np.random.default_rng(13)
    pulse = rand_pulse(rng, 9)
    omega, eps = -1300.0, 0.93
    acc = np.eye(3)
    for k in range(pulse.nsteps):
        acc = so3_step_matrix(omega, eps, pulse.u[k], pulse.v[k], pulse.dt) @ acc
    assert np.allclose(net_rotation(pulse, omega, eps), acc, atol=1e-11)
    assert np.allclose(
        net_rotation(one_step(pulse.u[0], pulse.v[0], pulse.dt), omega, eps),
        so3_step_matrix(omega, eps, pulse.u[0], pulse.v[0], pulse.dt),
        atol=1e-12,
    )
