"""Spinor-polynomial recursion, completion and designer tests.

Oracles: direct ordered 2x2 products of the hard-pulse factors, dense
normal-equation least squares, scipy's matrix exponential for splitting
order, and a root-based minimum-phase factor (the roots of 1 - Q Q~ inside
the unit disk, multiplied out in Leja order) for the cepstral completion.
"""

import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from enspulse import kernels, slr
from enspulse.bloch import DispersionGrid, EnsembleState, propagate
from enspulse.errors import CompletionError, DegenerateExtractionError
from enspulse.liealg import so3_generators
from enspulse.slr import (
    HardPulseStep,
    SpinorPolynomials,
    TargetProfile,
    _half_delay_phase,
    band_selective_profile,
    broadband_profile,
    complete_polynomial,
    design_broadband,
    design_pattern,
    forward_recursion,
    forward_recursion_trace,
    inverse_recursion_full,
    inverse_recursion_trace,
    predicted_spinor,
    rotation_target,
    steps_to_pulse,
    target_to_polys,
    unimodularity_residual,
)

BAND = 5000.0
DT = 0.5 / BAND


def rand_steps(rng, n, lo=0.01, hi=3.0):
    return [
        HardPulseStep(rng.uniform(lo, hi), rng.uniform(-np.pi, np.pi)) for _ in range(n)
    ]


def rand_pulse_steps(rng, n, scale=0.4):
    """Flips of a random Gaussian control pulse, kept inside (0.01, 3.0).

    Inversion of the coefficient pair is only well conditioned when the
    running cosine product stays far above roundoff; see
    test_inversion_conditioning_cliff for what happens outside that regime.
    """
    steps = []
    while len(steps) < n:
        u, v = rng.normal(0.0, scale, 2)
        phi = float(np.hypot(u, v))
        if 0.01 < phi < 3.0:
            steps.append(HardPulseStep(phi, float(np.arctan2(v, u))))
    return steps


def hard_pulse_matrix_oracle(steps, z):
    """Direct ordered product of the hard-pulse factors at one circle point."""
    acc = np.eye(2, dtype=complex)
    zr = np.array([[np.sqrt(z), 0], [0, 1 / np.sqrt(z)]])
    for s in steps:
        rf = np.array([[s.chalf, -np.conj(s.shalf)], [s.shalf, s.chalf]])
        acc = rf @ zr @ acc
    return acc


# ---------------------------------------------------------------------------
# forward recursion
# ---------------------------------------------------------------------------


def test_forward_single_step():
    poly = forward_recursion([HardPulseStep(1.1, 0.4)])
    assert poly.p[0] == pytest.approx(np.cos(0.55))
    assert poly.q[0] == pytest.approx(-1j * np.exp(0.4j) * np.sin(0.55))


def test_forward_zero_flips():
    poly = forward_recursion([HardPulseStep(0.0, 0.0)] * 5)
    assert np.allclose(poly.p, [1, 0, 0, 0, 0])
    assert np.allclose(poly.q, 0.0)


def full_length_forward(chalf, shalf):
    """The recursion over whole length-n arrays, with a fresh shifted copy of
    Q per step."""
    n = len(chalf)
    p = np.zeros(n, dtype=np.complex128)
    q = np.zeros(n, dtype=np.complex128)
    p[0] = 1.0
    for k in range(n):
        p, q = kernels.su2_apply(chalf[k], shalf[k], p, np.concatenate(([0.0], q[:-1])))
    return p, q


@pytest.mark.parametrize("n", [1, 2, 3, 16, 255, 1024])
def test_forward_on_live_coefficients_is_bitwise_the_full_length_recursion(n):
    # a quarter of the steps have the rf off, so zero pairs enter the sums
    rng = np.random.default_rng(n)
    half_flip = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.75)
    phase = rng.uniform(-np.pi, np.pi, n)
    c, s = kernels.hard_step(half_flip * np.cos(phase), half_flip * np.sin(phase))
    p, q = kernels.slr_forward(c, s)
    want_p, want_q = full_length_forward(c, s)
    assert np.array_equal(p, want_p) and np.array_equal(q, want_q)


def test_forward_matches_matrix_product_oracle():
    rng = np.random.default_rng(21)
    steps = rand_steps(rng, 8)
    poly = forward_recursion(steps)
    for phase in np.linspace(0.05, 2 * np.pi - 0.05, 32):
        z = np.exp(-1j * phase)  # z for omega*dt = phase
        acc = hard_pulse_matrix_oracle(steps, z)
        pv, qv = poly.evaluate(np.array([phase]), 1.0)
        n = len(steps)
        alpha = z ** (n / 2) * pv[0]
        beta = z ** (n / 2) * qv[0]
        assert abs(acc[0, 0] - alpha) < 1e-10
        assert abs(acc[1, 0] - beta) < 1e-10


@pytest.mark.parametrize("nsamples", [16, 40, 256])
def test_unimodularity_residual_matches_direct_evaluation(nsamples):
    rng = np.random.default_rng(31)
    poly = SpinorPolynomials(
        rng.standard_normal(40) + 1j * rng.standard_normal(40),
        rng.standard_normal(40) + 1j * rng.standard_normal(40),
    )
    phase = 2 * np.pi * np.arange(nsamples) / nsamples
    v = np.exp(1j * np.outer(phase, np.arange(40)))
    direct = np.abs(np.abs(v @ poly.p) ** 2 + np.abs(v @ poly.q) ** 2 - 1.0).max()
    assert unimodularity_residual(poly, nsamples) == pytest.approx(direct, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["design", "arc", "dft", "sorted", "unsorted"]),
    m=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2000)),
    n=st.integers(1, 300),
    knob=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="design", m=2000, n=300, knob=0.0, seed=0)
@example(kind="dft", m=1, n=300, knob=0.5, seed=1)
@example(kind="arc", m=2, n=1, knob=1.0, seed=2)
@example(kind="sorted", m=3, n=300, knob=0.0, seed=3)
def test_circle_products_match_the_dense_exponential_matrix(kind, m, n, knob, seed):
    # both products a @ c and a.T @ x of a = exp(1j outer(theta, arange(n)))
    # agree with the dense matrix within 1e-12 of the input's 1-norm, on
    # arithmetic grids (chirp-z, and the Horner path on the same grid) and on
    # any other grid (Horner)
    rng = np.random.default_rng(seed)
    if kind == "design":
        dt = 10.0 ** (-6.0 + 3.0 * knob)
        stop = 0.995 * np.pi / dt
        theta = np.linspace(-stop, stop, m) * dt
    elif kind == "arc":
        lo, hi = np.sort(rng.uniform(-0.1, 0.1, 2)) * np.pi
        theta = np.linspace(lo, hi, m)
    elif kind == "dft":
        theta = np.arange(m) * (2.0 * np.pi / (max(m, 1) + int(3 * m * knob)))
    else:
        theta = rng.uniform(-np.pi, np.pi, m)
        if kind == "sorted":
            theta = np.sort(theta)
    arithmetic = kind in ("design", "arc", "dft") or m <= 2
    a = np.exp(1j * np.outer(theta, np.arange(n)))  # the dense oracle
    c = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    x = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    want_eval, want_sums = c @ a.T, x @ a

    def check(products):
        got_eval, got_sums = products(theta, c, None), products(theta, x, n)
        assert got_eval.shape == (2, m) and got_sums.shape == (2, n)
        for got, want, inp in ((got_eval, want_eval, c), (got_sums, want_sums, x)):
            bound = 1e-12 * np.abs(inp).sum(axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= bound)
        one_row = products(theta, c[0], None)
        assert np.all(np.abs(one_row - want_eval[0]) <= 1e-12 * np.abs(c[0]).sum())

    if arithmetic:
        with mock.patch.object(slr, "_horner_products", side_effect=AssertionError("not chirp")):
            check(slr._circle_products)
    check(slr._circle_products)
    check(slr._horner_products)


def dft_fold_residual(poly, nsamples):
    """The unimodularity residual through a DFT of the coefficients folded
    modulo ``nsamples``."""
    fold = -poly.n % nsamples
    coeffs = np.pad(np.stack([poly.p, poly.q]), ((0, 0), (0, fold)))
    pv, qv = nsamples * np.fft.ifft(coeffs.reshape(2, -1, nsamples).sum(axis=1))
    return float(np.abs(np.abs(pv) ** 2 + np.abs(qv) ** 2 - 1.0).max())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), nsamples=st.integers(1, 1200), seed=st.integers(0, 2**32 - 1))
def test_unimodularity_residual_matches_the_dft_fold(n, nsamples, seed):
    rng = np.random.default_rng(seed)
    poly = forward_recursion(rand_steps(rng, n))
    noise = 1e-3 / np.sqrt(n) * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    for pair in (poly, SpinorPolynomials(poly.p + noise[0], poly.q + noise[1])):
        assert abs(unimodularity_residual(pair, nsamples) - dft_fold_residual(pair, nsamples)) <= 1e-13


def test_unimodularity_along_forward_recursion():
    rng = np.random.default_rng(22)
    steps = rand_steps(rng, 32)
    for poly in forward_recursion_trace(steps):
        assert unimodularity_residual(poly, 256) <= 1e-9


# ---------------------------------------------------------------------------
# inverse recursion
# ---------------------------------------------------------------------------


def test_inverse_single_constant_pair():
    phi, theta = 0.9, -1.2
    poly = SpinorPolynomials(
        np.array([np.cos(phi / 2)]),
        np.array([-1j * np.exp(1j * theta) * np.sin(phi / 2)]),
    )
    steps = inverse_recursion_full(poly)[0]
    assert steps[0].phi == pytest.approx(phi, abs=1e-12)
    assert steps[0].theta == pytest.approx(theta, abs=1e-12)


def test_inverse_identity_polynomials():
    poly = SpinorPolynomials(np.array([1, 0, 0, 0]), np.zeros(4))
    steps = inverse_recursion_full(poly)[0]
    assert len(steps) == 4
    assert all(s.phi == 0.0 for s in steps)


def test_roundtrip_sixteen_steps():
    rng = np.random.default_rng(23)
    steps = rand_pulse_steps(rng, 16)
    rec = inverse_recursion_full(forward_recursion(steps))[0]
    for a, b in zip(steps, rec):
        assert abs(a.phi - b.phi) < 1e-9
        assert abs(a.theta - b.theta) < 1e-9


def test_boundary_conditions_vanish_together():
    rng = np.random.default_rng(24)
    steps = rand_pulse_steps(rng, 24)
    _, diag = inverse_recursion_full(forward_recursion(steps))
    assert diag["res_lead"] <= 1e-8
    assert diag["res_low"] <= 1e-8
    assert diag["final_dev"] <= 1e-9


def test_unimodularity_along_backward_recursion():
    rng = np.random.default_rng(25)
    steps = rand_pulse_steps(rng, 24)
    for poly in inverse_recursion_trace(forward_recursion(steps)):
        assert unimodularity_residual(poly, 256) <= 1e-9


def per_length_inverse_trace(poly):
    """The backward trace by a full inversion of every shorter pair: the last
    step of each is read off its complete inversion, then reduced away."""
    pw, qw = poly.p.copy(), poly.q.copy()
    trace = []
    for length in range(poly.n, 1, -1):
        phi, theta, *_ = kernels.slr_inverse(pw[:length], qw[:length])
        step = HardPulseStep(float(phi[length - 1]), float(theta[length - 1]))
        c, s = step.chalf, step.shalf
        p_new = c * pw[:length] + np.conj(s) * qw[:length]
        q_new = -s * pw[:length] + c * qw[:length]
        pw[: length - 1] = p_new[: length - 1]
        qw[: length - 1] = q_new[1:length]
        trace.append((pw[: length - 1].copy(), qw[: length - 1].copy()))
    return trace


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(-np.pi, np.pi)), min_size=1, max_size=24)
)
def test_inverse_trace_equals_per_length_inversion(flips):
    poly = forward_recursion([HardPulseStep(phi, theta) for phi, theta in flips])
    trace = inverse_recursion_trace(poly)
    oracle = per_length_inverse_trace(poly)
    assert len(trace) == len(oracle) == poly.n - 1
    for got, (p, q) in zip(trace, oracle):
        assert np.array_equal(got.p, p) and np.array_equal(got.q, q)


def test_inversion_conditioning_cliff():
    """Inverting the coefficient pair of a long large-flip train is ill posed.

    The pair itself stays perfectly unimodular, but its end coefficients
    shrink like the product of the cosine half-flips, and double-precision
    coefficients simply do not carry the step information any more.  This
    pins the boundary of the roundtrip guarantee.
    """
    rng = np.random.default_rng(1)
    steps = rand_steps(rng, 32)  # flips uniform over (0.01, 3.0): hostile
    poly = forward_recursion(steps)
    assert unimodularity_residual(poly, 512) <= 1e-9
    rec = inverse_recursion_full(poly)[0]
    err = max(abs(a.phi - b.phi) for a, b in zip(steps, rec))
    assert err > 1e-3


def test_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        inverse_recursion_full(SpinorPolynomials(np.array([0.9, 0.0]), np.array([0.0, 0.0])))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inverse_rejects_a_non_finite_pair(bad):
    # a NaN residual once passed the norm gate, and the pair gave NaN steps
    with pytest.raises(ValueError, match="norm constraint"):
        inverse_recursion_full(SpinorPolynomials(np.array([1.0, bad]), np.array([0.0, 0.0])))


def su2_peel(pw, qw, length):
    """:func:`kernels.slr_peel` with its step applied by ``su2_apply`` on fresh
    arrays, and the reduced pair copied back: the in-place peel's oracle."""
    p0, q0 = complex(pw[0]), complex(qw[0])
    if length >= 2 and abs(qw[length - 1]) > abs(p0):
        w = -1j * (complex(pw[length - 1]) / complex(qw[length - 1])).conjugate()
    elif abs(p0) >= 1e-14:
        w = 1j * (q0 / p0)
    elif abs(q0) > 1e-14:
        return np.nan, 0.0, 0.0, 0.0
    else:
        w = 0j
    half = math.atan(abs(w))
    th = cmath.phase(w) if w else 0.0
    c, s = kernels.step_pair(half, th)
    p_new, q_new = kernels.su2_apply(c, -s, pw[:length], qw[:length])
    pw[: length - 1] = p_new[: length - 1]
    qw[: length - 1] = q_new[1:length]
    return 2.0 * half, th, p_new[length - 1], abs(q_new[0])


@settings(max_examples=100, deadline=None)
@given(
    length=st.integers(1, 70),
    tail=st.integers(0, 3),
    branch=st.sampled_from(["lead", "constant", "zero", "degenerate"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=1, tail=0, branch="constant", seed=0)
@example(length=1, tail=2, branch="degenerate", seed=1)
@example(length=2, tail=0, branch="lead", seed=2)
@example(length=5, tail=1, branch="zero", seed=3)
def test_in_place_peel_is_bitwise_the_su2_apply_form(length, tail, branch, seed):
    # every extraction branch: the leading-coefficient rule, the constant
    # rule, the zero step and the degenerate pair, which is left as it is
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal((2, 2, length + tail))
    pw, qw = re + 1j * im
    if branch == "lead" and length >= 2:
        pw[0] *= 1e-3
        qw[length - 1] = 1e3 * abs(pw[0]) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    elif branch == "constant":
        qw[length - 1] *= 1e-3 * abs(pw[0]) / abs(qw[length - 1])
    elif branch in ("zero", "degenerate"):
        pw[0] = 1e-15 * rng.standard_normal() if branch == "degenerate" else 0.0
        qw[0] = rng.standard_normal() + 1j if branch == "degenerate" else 1e-15j
        if length >= 2:
            qw[length - 1] = 0.0
    want_p, want_q = pw.copy(), qw.copy()
    want = su2_peel(want_p, want_q, length)
    before_p, before_q = pw.copy(), qw.copy()
    got = kernels.slr_peel(pw, qw, length)
    assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
    if np.isnan(want[0]):
        assert branch == "degenerate"
        assert pw.tobytes() == before_p.tobytes() and qw.tobytes() == before_q.tobytes()
        return
    # the reduced pair, and nothing past the peeled length, match bitwise
    for got_w, want_w in ((pw, want_p), (qw, want_q)):
        assert got_w[: length - 1].tobytes() == want_w[: length - 1].tobytes()
        assert got_w[length:].tobytes() == want_w[length:].tobytes()


def test_inverse_degenerate_pi_flip():
    # a full pi flip zeroes P while Q stays finite
    poly = SpinorPolynomials(np.array([0.0]), np.array([-1j]))
    with pytest.raises(DegenerateExtractionError):
        inverse_recursion_full(poly)
    with pytest.raises(DegenerateExtractionError):
        inverse_recursion_trace(SpinorPolynomials(np.array([0.0, 0.0]), np.array([-1j, 0.0])))


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------


def test_complete_constant():
    phi = 1.3
    out = complete_polynomial(np.array([-1j * np.sin(phi / 2)] + [0.0] * 7))
    assert out.p[0] == pytest.approx(np.cos(phi / 2), abs=1e-9)
    assert np.allclose(out.p[1:], 0.0, atol=1e-9)


def test_complete_zero():
    out = complete_polynomial(np.zeros(6))
    assert out.p[0] == pytest.approx(1.0, abs=1e-12)


def test_complete_random_degree7():
    rng = np.random.default_rng(26)
    q = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    q *= 0.9 / np.abs(np.fft.fft(q, 4096)).max()
    out = complete_polynomial(q)
    assert unimodularity_residual(out, 16 * 8) <= 1e-8
    assert out.p[0].imag == 0.0 and out.p[0].real > 0


def test_complete_rejects_overunity_without_margin():
    q = np.array([1.2 + 0j, 0.1])
    with pytest.raises(ValueError):
        complete_polynomial(q, margin=0.0)


def test_complete_rejects_unit_peak_without_margin():
    # |Q| = 1 at z = 1: the log of 1 - |Q|^2 diverges there
    with pytest.raises(CompletionError):
        complete_polynomial(np.array([0.5, 0.5]), margin=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)])
def test_complete_rejects_a_non_finite_q_by_name(bad):
    # a NaN q once completed to an all-NaN P: its residual passed the gate
    with pytest.raises(ValueError, match="non-finite"):
        complete_polynomial(np.array([0.1, bad, 0.2]))


def fft_grid_residual(pair):
    """``| |P|^2 + |Q|^2 - 1 |`` over the completion's own FFT grid of
    ``max(4096, 16 n)`` points."""
    pf, qf = np.fft.fft(np.stack([pair.p, pair.q]), max(4096, 16 * pair.n))
    return float(np.abs(np.abs(pf) ** 2 + np.abs(qf) ** 2 - 1.0).max())


def random_q(rng, n, peak):
    """n random Q coefficients scaled to ``peak`` on the completion's grid."""
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return q * (peak / np.abs(np.fft.fft(q, max(4096, 16 * n))).max())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), peak=st.floats(0.05, 0.8), seed=st.integers(0, 2**32 - 1))
@example(n=300, peak=0.8, seed=0)
@example(n=256, peak=0.8, seed=1)
@example(n=77, peak=0.8, seed=2)
def test_completion_residual_on_its_fft_grid_is_the_16n_circle_residual(n, peak, seed):
    # nfft = max(4096, 16 n) points hold the 16 n circle points when n
    # divides 256 or n >= 256, and sample more densely otherwise
    out = complete_polynomial(random_q(np.random.default_rng(seed), n, peak))
    assert abs(fft_grid_residual(out) - unimodularity_residual(out, 16 * n)) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), gap_exp=st.floats(-12.0, -1.0), seed=st.integers(0, 2**32 - 1))
@example(n=233, gap_exp=-1.83, seed=0)
@example(n=64, gap_exp=-9.0, seed=1)
def test_completion_gate_raises_where_the_16n_circle_check_did(n, gap_exp, seed):
    # peaks up to 1 - 1e-12 alias the cepstrum, so residuals span the gate;
    # away from the threshold the FFT-grid gate agrees with the old 16 n check
    q = random_q(np.random.default_rng(seed), n, 1.0 - 10.0**gap_exp)
    with mock.patch.object(slr, "COMPLETION_TOL", np.inf):
        out = complete_polynomial(q, margin=1e-15)
    old = unimodularity_residual(out, 16 * n)
    assume(not 0.5 <= old / slr.COMPLETION_TOL <= 2.0)
    for tol in (slr.COMPLETION_TOL, 2.0 * old, 0.5 * old):
        if tol == slr.COMPLETION_TOL or old > 1e-12:
            with mock.patch.object(slr, "COMPLETION_TOL", tol):
                if old > tol:
                    with pytest.raises(CompletionError):
                        complete_polynomial(q, margin=1e-15)
                else:
                    again = complete_polynomial(q, margin=1e-15)
                    assert again.p.tobytes() == out.p.tobytes()


def _leja_order(roots):
    """Order roots so the running factor product stays O(1) in magnitude."""
    rem = list(roots)
    out = [max(rem, key=abs)]
    rem.remove(out[-1])
    while rem:
        chosen = np.array(out)
        nxt = max(rem, key=lambda z: float(np.sum(np.log(np.abs(z - chosen) + 1e-300))))
        out.append(nxt)
        rem.remove(nxt)
    return np.array(out)


def min_phase_root_oracle(q):
    """sqrt(K) prod(1 - r_i z^-1) over the roots of 1 - Q Q~ inside the disk.

    K is the least-squares scale matching |P|^2 to 1 - |Q|^2 on the circle;
    the constant coefficient is rotated onto the positive real axis.
    """
    n = q.size
    f = -np.correlate(q, q, "full")
    f[n - 1] += 1.0
    roots = np.roots(f)
    inside = roots[np.argsort(np.abs(roots))][: n - 1]
    assert np.abs(inside).max() < 1.0
    p = np.array([1.0 + 0.0j])
    for r in _leja_order(inside):
        p = np.convolve(p, np.array([1.0, -r]))
    phase = np.linspace(0.0, 2.0 * np.pi, 8 * (n + 1), endpoint=False)
    v = np.exp(1j * np.outer(phase, np.arange(n)))
    fvals = 1.0 - np.abs(v @ q) ** 2
    w2 = np.abs(v @ p) ** 2
    p = np.sqrt(np.sum(fvals * w2) / np.sum(w2 * w2)) * p
    return p * np.exp(-1j * np.angle(p[0]))


def test_complete_matches_cepstral_oracle():
    # independent minimum-phase construction by root-finding
    rng = np.random.default_rng(27)
    q = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    q *= 0.8 / np.abs(np.fft.fft(q, 8192)).max()
    out = complete_polynomial(q)
    assert np.allclose(min_phase_root_oracle(out.q), out.p, atol=1e-7)


PROPERTY = settings(max_examples=60)

coefficient = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
    lambda xy: complex(*xy)
)


@st.composite
def scaled_q(draw):
    """Random Q coefficients scaled to a max |Q| on the circle in [0.1, 0.99]."""
    q = np.array(draw(st.lists(coefficient, min_size=2, max_size=24)))
    peak = np.abs(np.fft.fft(q, 4096)).max()
    assume(peak > 1e-6)
    return q * draw(st.floats(0.1, 0.99)) / peak


@PROPERTY
@given(scaled_q())
def test_completion_is_unimodular_and_minimum_phase(q):
    out = complete_polynomial(q)
    assert np.array_equal(out.q, q)
    assert unimodularity_residual(out, 16 * out.n) <= 1e-12
    assert out.p[0].imag == 0.0 and out.p[0].real > 0.0
    # P(z) = z^-(n-1) * polynomial in z with coefficients p, highest first
    assert np.abs(np.roots(out.p)).max(initial=0.0) < 1.0


@PROPERTY
@given(
    st.lists(
        st.tuples(st.floats(0.01, 1.2), st.floats(-np.pi, np.pi)), min_size=1, max_size=24
    )
)
def test_inverse_undoes_forward_recursion(flips):
    # flips of the rand_pulse_steps regime: the cosine half-flip product of
    # the train stays far above roundoff
    steps = [HardPulseStep(phi, theta) for phi, theta in flips]
    rec = inverse_recursion_full(forward_recursion(steps))[0]
    assert len(rec) == len(steps)
    for a, b in zip(steps, rec):
        assert abs(a.phi - b.phi) < 1e-9
        assert abs(np.angle(np.exp(1j * (a.theta - b.theta)))) < 1e-9


# ---------------------------------------------------------------------------
# profile fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, ceiling", [(256, 40e6), (512, 16e6)])
def test_fit_makes_no_conjugated_copy_of_the_exponential_matrix(n, ceiling):
    band, dt = 2000.0, 1e-4
    profile = broadband_profile("x", np.pi / 2, band, n, dt)
    tracemalloc.start()
    try:
        target_to_polys(profile, n, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (24n + 1) x n complex exponential matrix alone would take 25 MB at
    # n = 256 and 100 MB at n = 512; the fit holds the n x n table of Durbin
    # predictors and O(24n) grid vectors
    assert peak < ceiling


def test_constant_profile_recovers_constant_taps():
    # flat rotation over (almost) the whole circle: the fitted filter is the
    # constant polynomial, i.e. a single hard rotation
    phi = np.pi / 2
    w = np.linspace(-0.99 * np.pi / DT, 0.99 * np.pi / DT, 1024)
    prof = TargetProfile(w, np.full(w.size, np.cos(phi / 2)), np.full(w.size, -1j * np.sin(phi / 2)))
    fit = target_to_polys(prof, 16, DT)
    assert abs(fit.polys.q[0]) > 0.999 * np.sin(phi / 2)
    assert np.abs(fit.polys.q[1:]).max() < 1e-3
    qv = fit.polys.evaluate(np.linspace(-BAND, BAND, 65), DT)[1]
    assert np.abs(np.abs(qv) - np.sin(phi / 2)).max() < 1e-3
    assert fit.band_error < 1e-3


def test_zero_profile_gives_identity():
    w = np.linspace(-BAND, BAND, 512)
    prof = TargetProfile(w, np.ones(w.size), np.zeros(w.size))
    fit = target_to_polys(prof, 8, DT)
    assert np.abs(fit.polys.q).max() < 1e-9
    assert abs(fit.polys.p[0] - 1.0) < 1e-9


def test_linear_phase_slice_profile_matches_dense_oracle():
    # delayed slice profile; the dense normal-equation oracle must agree
    # with the production fit
    n = 32
    phi = np.pi / 3
    delay = 10  # taps
    w = np.linspace(-0.9 * np.pi / DT, 0.9 * np.pi / DT, 16 * n)
    fb = -1j * np.sin(phi / 2) * np.exp(1j * w * DT * delay)
    fa = np.full(w.size, np.cos(phi / 2))
    prof = TargetProfile(w, fa, fb)
    fit = target_to_polys(prof, n, DT, absorb_alpha_phase=False)

    a = np.exp(1j * np.outer(w * DT, np.arange(n)))
    gram = a.conj().T @ a
    q_oracle = np.linalg.solve(gram, a.conj().T @ fb)
    resid_oracle = np.abs(a @ q_oracle - fb).max()
    assert fit.fit_residual == pytest.approx(resid_oracle, abs=1e-8)
    assert np.abs(fit.polys.q - q_oracle).max() < 1e-6


@settings(max_examples=60)
@given(
    st.integers(1, 48),
    st.lists(st.tuples(st.floats(-np.pi, np.pi), st.floats(0.01, 1.0)), min_size=1, max_size=12),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_durbin_solve_matches_dense_solve(n, nodes, shift_exp, seed):
    # a Hermitian positive definite Toeplitz row: a positive measure on the
    # circle, r[k] = sum_j w_j exp(i theta_j k), plus a shift on the diagonal
    theta, weight = np.array(nodes).T
    r = (weight[:, None] * np.exp(1j * np.outer(theta, np.arange(n)))).sum(axis=0)
    r[0] = r[0].real + 10.0**-shift_exp * weight.sum()
    lag = np.arange(n)[None, :] - np.arange(n)[:, None]
    dense = np.where(lag >= 0, r[np.abs(lag)], np.conj(r[np.abs(lag)]))
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    pred, err = slr._durbin(r)
    x = pred.T @ (np.conj(pred @ np.conj(y)) / err)
    oracle = np.linalg.solve(dense, y)
    bound = 16 * n * np.finfo(float).eps * np.linalg.cond(dense) * np.abs(oracle).max()
    assert np.abs(x - oracle).max() <= bound
    assert np.all(err > 0) and np.array_equal(np.diag(pred), np.ones(n))


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_degenerate_weights_are_rejected_not_fitted(bad):
    # all-zero weights used to fit q = 0; the Durbin recursion would divide
    # by their zero Gram matrix, so they and non-finite weights are an error
    w = np.linspace(-BAND, BAND, 64)
    weights = np.zeros(w.size) if bad == 0.0 else np.ones(w.size)
    weights[7] = bad
    fa, fb = np.full(w.size, np.cos(0.5)), np.full(w.size, -1j * np.sin(0.5))
    with pytest.raises(ValueError, match="weights"):
        TargetProfile(w, fa, fb, weights=weights)
    # an infinite weight turns the chirp products into NaN, with a warning
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="weights"):
        slr._GramFit(w, weights, 8, DT)


@pytest.mark.parametrize(
    "arc, n, absorbed_ceiling",
    [(0.1, 64, 3.56e-3), (0.3, 64, 4.67e-3), (0.5, 128, None)],
)
def test_arc_sampled_quarter_turn_completes(arc, n, absorbed_ceiling):
    # flat quarter turn sampled only on |omega| dt <= arc * pi: the Gram
    # matrix has near-null directions that the Tikhonov shift must keep out of q;
    # the ceilings are the band errors a root-based completion reached here
    w = np.linspace(-arc * np.pi / DT, arc * np.pi / DT, 8 * n)
    prof = TargetProfile(
        w,
        np.full(w.size, np.cos(np.pi / 4)),
        -1j * np.sin(np.pi / 4) * _half_delay_phase(w, n, DT),
    )
    plain = target_to_polys(prof, n, DT, absorb_alpha_phase=False)
    absorbed = target_to_polys(prof, n, DT)
    for fit in (plain, absorbed):
        assert unimodularity_residual(fit.polys, 16 * n) <= 1e-8
    assert absorbed.band_error < plain.band_error
    if absorbed_ceiling is not None:
        assert absorbed.band_error <= absorbed_ceiling


# ---------------------------------------------------------------------------
# broadband designer
# ---------------------------------------------------------------------------


def test_broadband_x_quarter_turn():
    d = design_broadband("x", np.pi / 2, BAND, 64, DT)
    assert d.band_error <= 0.05
    assert d.blocks == 1
    # predicted and hard-pulse-simulated spinors agree at the band points
    w = np.linspace(-BAND, BAND, 65)
    al_p, be_p = predicted_spinor(d.polys, w, DT)
    al_s, be_s = kernels.spinor_propagate(
        d.pulse.u, d.pulse.v, DT, w, np.ones(65), None,
        np.ones(65, dtype=complex), np.zeros(65, dtype=complex), True,
    )
    assert max(np.abs(al_p - al_s).max(), np.abs(be_p - be_s).max()) <= 1e-8


def test_broadband_at_1024_steps_is_one_block_in_band():
    d = design_broadband("x", np.pi / 2, 2000.0, 1024, 1e-4)
    assert d.blocks == 1 and d.band_error <= 1e-5


def test_broadband_more_steps_beat_fewer():
    d64 = design_broadband("x", np.pi / 2, BAND, 64, DT)
    d16 = design_broadband("x", np.pi / 2, BAND, 16, DT)
    assert d64.band_error < d16.band_error


def test_broadband_amplitude_bound_and_subdivision():
    free = design_broadband("x", np.pi / 2, BAND, 64, DT)
    a_max = 0.6 * free.pulse.amplitudes.max()
    d1 = design_broadband("x", np.pi / 2, BAND, 64, DT, a_max=a_max)
    d2 = design_broadband("x", np.pi / 2, BAND, 64, DT, a_max=a_max / 2)
    assert d1.pulse.amplitudes.max() <= a_max * (1 + 1e-12)
    assert d2.pulse.amplitudes.max() <= (a_max / 2) * (1 + 1e-12)
    assert d2.blocks >= 2 * d1.blocks
    assert d1.pulse.nsteps == d1.blocks * 64


def test_subdivision_search_factors_the_fit_once(monkeypatch):
    # every candidate block count fits on one grid, so a design makes one
    # Durbin factorization of the Gram matrix however many counts it tries,
    # and each fit is the one target_to_polys makes alone
    factored = []
    original = slr._durbin
    monkeypatch.setattr(slr, "_durbin", lambda r: factored.append(r.size) or original(r))
    d = design_broadband("x", np.pi / 2, 2000.0, 64, 1e-4, a_max=800.0)
    assert d.blocks == 4 and factored == [64]
    alone = target_to_polys(broadband_profile("x", np.pi / 8, 2000.0, 64, 1e-4), 64, 1e-4)
    assert np.array_equal(d.polys.p, alone.polys.p) and np.array_equal(d.polys.q, alone.polys.q)


def test_block_train_is_bitwise_the_concat_chain_of_its_block():
    # the m-block train is tiled in one call, not joined by m - 1 concats
    d = design_broadband("x", np.pi / 2, 2000.0, 64, 1e-4, a_max=800.0)
    block = steps_to_pulse(inverse_recursion_full(d.polys)[0], 1e-4, 800.0)
    chain = block.concat(block).concat(block).concat(block)
    assert d.blocks == 4
    assert np.array_equal(d.pulse.samples, chain.samples)
    assert (d.pulse.dt, d.pulse.a_max) == (chain.dt, chain.a_max)


@pytest.mark.parametrize("a_max, blocks", [(None, 1), (800.0, 4)])
def test_band_error_is_the_hard_pulse_simulation_of_the_written_pulse(a_max, blocks):
    band, dt = 2000.0, 1e-4
    d = design_broadband("x", np.pi / 2, band, 64, dt, a_max=a_max)
    assert d.blocks == blocks
    omega = np.linspace(-band, band, 129)
    grid = DispersionGrid(axes={"omega": omega})
    final = propagate(d.pulse, grid, EnsembleState.uniform_spinor(grid, 1, 0), model="hard_pulse")
    fa, fb = rotation_target("x", np.pi / 2, omega, d.pulse.nsteps, dt)
    overlap = np.abs(np.conj(fa) * final.values[:, 0] + np.conj(fb) * final.values[:, 1])
    assert abs(d.band_error - np.sqrt(np.maximum(2.0 - 2.0 * overlap, 0.0)).max()) <= 1e-15


def test_broadband_angle_limit_is_quiet():
    d = design_broadband("x", 1e-9, BAND, 32, DT)
    assert d.pulse.amplitudes.max() < 1e-3


def test_broadband_rejects_bad_angle_and_aliasing():
    with pytest.raises(ValueError):
        design_broadband("x", 0.0, BAND, 16, DT)
    with pytest.raises(ValueError):
        design_broadband("x", 1.0, BAND, 16, dt=2 * np.pi / BAND)


def test_broadband_y_axis():
    d = design_broadband("y", np.pi / 3, BAND, 64, DT)
    assert d.band_error <= 0.05
    # y-rotation beta is real positive at band center
    qv = d.polys.evaluate(np.array([0.0]), DT)[1]
    assert qv[0].real > 0.9 * np.sin(np.pi / 6)
    assert abs(qv[0].imag) < 0.1 * qv[0].real


# ---------------------------------------------------------------------------
# pattern designer
# ---------------------------------------------------------------------------


def _z_profile(pulse, omega):
    al, be = kernels.spinor_propagate(
        pulse.u, pulse.v, pulse.dt, np.asarray(omega, float),
        np.ones(len(omega)), None,
        np.ones(len(omega), dtype=complex), np.zeros(len(omega), dtype=complex),
        True,
    )
    return np.abs(al) ** 2 - np.abs(be) ** 2


def test_band_selective_inversion():
    n, trans = 128, 1500.0
    prof = band_selective_profile(BAND, (-2500.0, 2500.0), np.pi, n, DT, transition=trans)
    pat = design_pattern(prof, n, DT)
    z_in = _z_profile(pat.pulse, np.linspace(-2500, 2500, 41))
    z_out = np.concatenate(
        [
            _z_profile(pat.pulse, np.linspace(-4900, -2500 - trans - 100, 21)),
            _z_profile(pat.pulse, np.linspace(2500 + trans + 100, 4900, 21)),
        ]
    )
    assert z_in.max() <= -0.9
    assert z_out.min() >= 0.9


def test_pattern_zero_profile():
    prof = band_selective_profile(BAND, (-2500.0, 2500.0), 0.0, 32, DT)
    pat = design_pattern(prof, 32, DT)
    assert pat.pulse.amplitudes.max() == 0.0


@pytest.mark.parametrize("stride", [1, 4])
def test_pattern_values_are_the_pair_evaluated_on_the_profile(stride):
    # stride 4 leaves 6n + 1 samples, which the fit resamples to 8n: there the
    # design evaluates the pair itself
    n = 32
    base = band_selective_profile(BAND, (-2500.0, 2500.0), 1.5, n, DT)
    prof = TargetProfile(
        base.omega[::stride], base.f_alpha[::stride], base.f_beta[::stride], weights=base.weights[::stride]
    )
    pat = design_pattern(prof, n, DT)
    pv, qv = pat.polys.evaluate(prof.omega, DT)
    assert np.array_equal(pat.values[0], pv) and np.array_equal(pat.values[1], qv)


def test_pattern_complement_flips_sum_to_pi():
    n, trans = 96, 1500.0
    base = band_selective_profile(BAND, (-2500.0, 2500.0), 2.0, n, DT, transition=trans)
    flips = 2 * np.arcsin(np.minimum(np.abs(base.f_beta), 1.0))
    comp_flips = np.pi - flips
    comp = TargetProfile(
        base.omega,
        np.cos(0.5 * comp_flips),
        -1j * np.sin(0.5 * comp_flips) * np.exp(1j * base.omega * DT * 0.5 * (n - 1)),
        weights=base.weights,
    )
    d1 = design_pattern(base, n, DT)
    d2 = design_pattern(comp, n, DT)
    w = np.linspace(-2500, 2500, 33)
    f1 = 2 * np.arcsin(np.minimum(np.abs(d1.polys.evaluate(w, DT)[1]), 1.0))
    f2 = 2 * np.arcsin(np.minimum(np.abs(d2.polys.evaluate(w, DT)[1]), 1.0))
    tol = 2 * (d1.fit_error + d2.fit_error) + 0.05
    assert np.abs(f1 + f2 - np.pi).max() <= tol


def test_pattern_rejects_narrow_transition():
    with pytest.raises(ValueError):
        band_selective_profile(BAND, (-2500.0, 2500.0), np.pi, 64, DT, transition=100.0)


@pytest.mark.parametrize("select", [(2500.0, -2500.0), (1000.0, 1000.0), (6000.0, 1000.0)])
def test_pattern_rejects_a_reversed_selection_as_not_increasing(select):
    with pytest.raises(ValueError, match=r"must be increasing \(lo < hi\)"):
        band_selective_profile(BAND, select, np.pi, 64, DT)


@pytest.mark.parametrize("select", [(-6000.0, 2500.0), (-2500.0, 5000.5), (-6000.0, 6000.0)])
def test_pattern_rejects_a_selection_outside_the_band(select):
    with pytest.raises(ValueError, match="must sit inside the band"):
        band_selective_profile(BAND, select, np.pi, 64, DT)


def test_pattern_rejects_bad_flip():
    with pytest.raises(ValueError):
        band_selective_profile(BAND, (-2500.0, 2500.0), 3.5, 64, DT)


# ---------------------------------------------------------------------------
# hard-pulse splitting order
# ---------------------------------------------------------------------------


def test_splitting_error_is_second_order():
    SO3 = so3_generators()
    omega, u, v = 0.8, 1.3, -0.7  # rad per unit time; dt carries the scale
    gen_full = omega * SO3["z"].entries + u * SO3["y"].entries - v * SO3["x"].entries
    gen_rf = u * SO3["y"].entries - v * SO3["x"].entries
    gen_z = omega * SO3["z"].entries
    errs = []
    dts = np.array([1e-2, 1e-3, 1e-4])
    for dt in dts:
        e = np.linalg.norm(
            expm(gen_full * dt) - expm(gen_rf * dt) @ expm(gen_z * dt), 2
        )
        errs.append(e)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_su2_splitting_error_matches_simulator_models():
    from enspulse.bloch import net_su2, ControlSequence

    errs = []
    dts = np.array([1e-2, 1e-3, 1e-4])
    omega, u, v = 40.0, 55.0, -35.0
    for dt in dts:
        pulse = ControlSequence(dt, np.array([[u, v]]))
        exact = net_su2(pulse, omega=omega).matrix
        hard = net_su2(pulse, omega=omega, model="hard_pulse").matrix
        errs.append(np.linalg.norm(exact - hard, 2))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_steps_pulse_roundtrip():
    rng = np.random.default_rng(30)
    steps = rand_steps(rng, 12)
    pulse = steps_to_pulse(steps, DT)
    for a, (u, v) in zip(steps, pulse.samples):
        assert abs(a.phi - np.hypot(u, v) * DT) < 1e-12
        assert abs(a.theta - np.arctan2(v, u)) < 1e-12
