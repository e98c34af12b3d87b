"""Spinor-polynomial (Shinnar-Le Roux style) pulse design.

An n-step hard-pulse train — each step a free z-precession over ``dt``
followed by an rf rotation with flip ``phi_k`` and phase ``theta_k`` —
has a net spinor equal to ``z^(n/2) (P(z), Q(z))`` with ``z = exp(-i w dt)``
and P, Q polynomials of order n-1 in ``z^-1``.  The recursions serve the
design algebra only: spectral factorization completes a fitted Q into a
unimodular pair, the backward recursion (one :func:`.kernels.slr_peel` per
degree) turns it into steps, and the forward recursion maps steps to (P, Q).
A written pulse is simulated only by the kernel's hard-pulse pass, and a
broadband design's ``band_error`` and fidelity map come from one such pass.

Every product with the exponential matrix ``exp(1j * outer(omega dt, k))``
of a sample grid (the fit's Gram row and right-hand side, evaluations of P
and Q) goes through :func:`_circle_products`: a Bluestein chirp-z over one
FFT convolution on an arithmetic grid, which is every grid this package
builds, and Horner's rule on any other.  No m x n matrix is built.  A fit
builds its grid's two chirp plans (:func:`_chirp_plan`: the sums and the
evaluations) once and keeps them for as long as its design runs; the
completion checks its pair on its own FFT grid, and the backward recursion
peels steps in place.

Completion convention: P is the minimum-phase spectral factor of
``1 - |Q|^2`` on the unit circle (all zeros of P inside the open disk,
constant coefficient real positive), deterministic and energy-front-loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .bloch import ControlSequence, DispersionGrid, FidelityMap
from .errors import CompletionError, DegenerateExtractionError, InfeasibleError

__all__ = [
    "HardPulseStep",
    "SpinorPolynomials",
    "TargetProfile",
    "PolyFit",
    "BroadbandDesign",
    "PatternDesign",
    "forward_recursion",
    "forward_recursion_trace",
    "inverse_recursion_full",
    "inverse_recursion_trace",
    "complete_polynomial",
    "target_to_polys",
    "design_broadband",
    "design_pattern",
    "band_selective_profile",
    "broadband_profile",
    "steps_to_pulse",
    "predicted_spinor",
    "unimodularity_residual",
    "spinor_band_error",
    "rotation_target",
]

MAX_SUBDIVISIONS = 2**16
UNIMOD_TOL = 1e-6  # norm-constraint residual the inverse recursion accepts
COMPLETION_TOL = 1e-8  # norm-constraint residual a completed pair may keep
GRAM_SHIFT = 1e-14  # Tikhonov shift of the fit, relative to a bound on its largest eigenvalue


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardPulseStep:
    """One hard-pulse rotation: flip angle in [0, pi], rf phase in radians."""

    phi: float
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.phi <= np.pi + 1e-12):
            raise ValueError(f"flip angle {self.phi} outside [0, pi]")

    @property
    def chalf(self) -> float:
        return kernels.step_pair(0.5 * self.phi, self.theta)[0]

    @property
    def shalf(self) -> complex:
        return kernels.step_pair(0.5 * self.phi, self.theta)[1]


@dataclass(frozen=True)
class SpinorPolynomials:
    """Coefficients of P, Q in ascending powers of z^-1 (equal length n)."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.complex128).ravel()
        q = np.asarray(self.q, dtype=np.complex128).ravel()
        if p.size != q.size or p.size == 0:
            raise ValueError("p and q must be nonempty and of equal length")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.p.size

    def evaluate(self, omega: np.ndarray, dt: float):
        """P(z), Q(z) at z = exp(-i omega dt)."""
        theta = np.asarray(omega, dtype=float).ravel() * dt
        pv, qv = _circle_products(theta, np.stack([self.p, self.q]))
        return pv, qv


_TWO_PI = 8.0 * np.arctan(np.longdouble(1.0))


def _circle_products(
    theta: np.ndarray, x: np.ndarray, n: int | None = None, plan: _ChirpPlan | None = None
) -> np.ndarray:
    """Products with ``a = exp(1j * outer(theta, arange(n)))``, never built.

    With ``n`` None, ``x[..., k]`` are coefficients and the result holds the
    evaluations ``a @ c`` at every angle; with ``n`` given, ``x[..., j]`` are
    samples on the grid and the result holds the n sums ``a.T @ x``.  An
    arithmetic grid (every grid this package builds) takes a Bluestein
    chirp-z over one FFT convolution, set up by ``plan`` (the grid's
    :func:`_chirp_plan` for this direction) or, without it, afresh; any
    other grid takes Horner's rule or a power loop.  Neither holds more than
    O(m + n) entries per row of x.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=np.complex128)
    size = theta.size if n is None else n
    if size == 0 or x.shape[-1] == 0:
        return np.zeros(x.shape[:-1] + (size,), dtype=np.complex128)
    plan = plan or _chirp_plan(theta, x.shape[-1] if n is None else n, sums=n is not None)
    if plan is None:
        return _horner_products(theta, x, n)
    if n is None:
        return _chirp(x * plan.start, plan)
    return _chirp(x, plan) * plan.start


def _horner_products(theta: np.ndarray, x: np.ndarray, n: int | None) -> np.ndarray:
    """:func:`_circle_products` on any grid: Horner's rule for the
    evaluations, a running power of ``exp(1j theta)`` for the sums."""
    z = np.exp(1j * theta)
    if n is None:
        y = np.repeat(x[..., -1:], theta.size, axis=-1)
        for k in range(x.shape[-1] - 2, -1, -1):
            y *= z
            y += x[..., k : k + 1]
        return y
    out = np.empty(x.shape[:-1] + (n,), dtype=np.complex128)
    zk = np.ones(theta.size, dtype=np.complex128)
    for k in range(n):
        out[..., k] = x @ zk
        zk *= z
    return out


@dataclass(frozen=True)
class _ChirpPlan:
    """The set-up of :func:`_chirp` on one grid in one direction: the chirp
    ``w``, the FFT of its conjugate kernel, the ``size`` of the result and
    the start phases ``exp(1j theta[0] k)`` of the n coefficients."""

    w: np.ndarray
    kernel_f: np.ndarray
    size: int
    start: np.ndarray


def _chirp_plan(theta: np.ndarray, n: int, sums: bool) -> _ChirpPlan | None:
    """The chirp-z plan of ``theta``'s m-point grid with n coefficients: for
    the n sums over the grid (``sums``) or for the m evaluations.  None when
    the grid is not arithmetic, which leaves it to Horner's rule."""
    m = theta.size
    step = (theta[-1] - theta[0]) / max(m - 1, 1)
    # linspace grids and their products by dt sit within about 2.6 ulp of
    # the progression; the chirp then differs from the dense product by at
    # most that deviation times n
    dev = np.abs(theta - (theta[0] + step * np.arange(m))).max()
    if not dev <= 4.0 * np.finfo(float).eps * np.abs(theta).max():
        return None
    p, size = (m, n) if sums else (n, m)
    nfft = 1 << (p + size - 2).bit_length()  # a power of two >= p + size - 1
    t = np.arange(max(p, size), dtype=np.int64)
    w = _cis(0.5 * step, t * t)
    kernel = np.zeros(nfft, dtype=np.complex128)
    kernel[:size] = np.conj(w[:size])
    kernel[nfft - p + 1 :] = np.conj(w[p - 1 : 0 : -1])
    return _ChirpPlan(w, np.fft.fft(kernel), size, _cis(theta[0], np.arange(n)))


def _chirp(u: np.ndarray, plan: _ChirpPlan) -> np.ndarray:
    """``sum_p u[..., p] exp(1j step p r)`` for r < ``plan.size``, with the
    step of the plan's grid, by Bluestein's identity ``p r = (p^2 + r^2 -
    (r - p)^2) / 2``: a chirp product, one circular convolution with the
    conjugate chirp, and a chirp product."""
    w, size = plan.w, plan.size
    conv = np.fft.ifft(np.fft.fft(u * w[: u.shape[-1]], plan.kernel_f.size) * plan.kernel_f)
    return conv[..., :size] * w[:size]


def _cis(scale: float, ints: np.ndarray) -> np.ndarray:
    """``exp(1j * scale * ints)``, the phase reduced modulo 2 pi in extended
    precision: chirp phases reach ~80 n radians, where a double phase keeps
    only ~1e-11 absolute."""
    return np.exp(1j * np.remainder(np.longdouble(scale) * ints, _TWO_PI).astype(float))


def unimodularity_residual(poly: SpinorPolynomials, nsamples: int = 256) -> float:
    """Max over unit-circle samples ``omega dt = 2 pi k / nsamples`` of
    | |P|^2 + |Q|^2 - 1 |."""
    theta = np.arange(nsamples) * (2.0 * np.pi / nsamples)
    pv, qv = _circle_products(theta, np.stack([poly.p, poly.q]))
    return float(np.abs(np.abs(pv) ** 2 + np.abs(qv) ** 2 - 1.0).max())


def predicted_spinor(poly: SpinorPolynomials, omega: np.ndarray, dt: float):
    """Final spinor (alpha, beta) the polynomial pair predicts per offset."""
    pv, qv = poly.evaluate(omega, dt)
    lead = np.exp(-0.5j * np.asarray(omega, dtype=float) * poly.n * dt)
    return lead * pv, lead * qv


@dataclass
class TargetProfile:
    """Desired Cayley-Klein pair per offset sample (unimodular per sample).

    Samples cover only the *constrained* offsets; omitted stretches act as
    don't-care transition regions for the fit.  Optional per-sample weights
    bias the least-squares trade-off (e.g. passband over stopband).
    """

    omega: np.ndarray
    f_alpha: np.ndarray
    f_beta: np.ndarray
    tag: str | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float).ravel()
        fa = np.asarray(self.f_alpha, dtype=np.complex128).ravel()
        fb = np.asarray(self.f_beta, dtype=np.complex128).ravel()
        if not (w.size == fa.size == fb.size) or w.size == 0:
            raise ValueError("profile arrays must be nonempty and of equal length")
        norm_dev = np.abs(np.abs(fa) ** 2 + np.abs(fb) ** 2 - 1.0).max()
        if norm_dev > 1e-10:
            raise ValueError(f"profile is not unimodular (deviation {norm_dev:.2e})")
        if self.weights is not None:
            wt = np.asarray(self.weights, dtype=float).ravel()
            # all-zero weights constrain nothing, and their Gram matrix is zero
            if wt.size != w.size or not (np.all(wt >= 0) and np.isfinite(wt).all() and wt.any()):
                raise ValueError("weights must be finite and nonnegative, one per sample, not all zero")
            self.weights = wt
        self.omega, self.f_alpha, self.f_beta = w, fa, fb


# ---------------------------------------------------------------------------
# recursions
# ---------------------------------------------------------------------------


def forward_recursion(steps: list[HardPulseStep]) -> SpinorPolynomials:
    """Map hard-pulse steps to the spinor-polynomial pair."""
    if not steps:
        raise ValueError("need at least one step")
    c = np.array([s.chalf for s in steps])
    s = np.array([s.shalf for s in steps])
    return SpinorPolynomials(*kernels.slr_forward(c, s))


def forward_recursion_trace(steps: list[HardPulseStep]) -> list[SpinorPolynomials]:
    """Like :func:`forward_recursion` but keeping every intermediate pair."""
    out = []
    for k in range(1, len(steps) + 1):
        out.append(forward_recursion(steps[:k]))
    return out


def inverse_recursion_full(poly: SpinorPolynomials):
    """Backward recursion; returns (steps, diagnostics dict).

    Diagnostics carry the input pair's unimodularity residual, the worst
    dropped leading/low-order coefficients (the two degree-reduction
    conditions) and the deviation of the fully reduced pair from (1, 0).
    """
    if not (np.isfinite(poly.p).all() and np.isfinite(poly.q).all()):
        raise ValueError("polynomials violate the norm constraint: a coefficient is not finite")
    res = unimodularity_residual(poly, max(256, 4 * poly.n))
    if not res <= UNIMOD_TOL:  # a NaN residual fails too
        raise ValueError(
            f"polynomials violate the norm constraint by {res:.2e} (tol {UNIMOD_TOL:.0e})"
        )
    phi, theta, res_lead, res_low, final_dev = kernels.slr_inverse(poly.p, poly.q)
    if np.any(np.isnan(phi)):
        raise DegenerateExtractionError(
            "vanishing constant term in P with nonzero Q: flip angle of pi is "
            "outside the invertible range"
        )
    steps = [HardPulseStep(float(f), float(t)) for f, t in zip(phi, theta)]
    diag = {
        "unimodularity_residual": res,
        "res_lead": float(res_lead),
        "res_low": float(res_low),
        "final_dev": float(final_dev),
    }
    return steps, diag


def inverse_recursion_trace(poly: SpinorPolynomials):
    """Backward recursion keeping every intermediate (shorter) pair."""
    pw = poly.p.copy()
    qw = poly.q.copy()
    trace = []
    for length in range(poly.n, 1, -1):
        phi, *_ = kernels.slr_peel(pw, qw, length)
        if np.isnan(phi):
            raise DegenerateExtractionError(f"step {length} cannot be extracted")
        trace.append(SpinorPolynomials(pw[: length - 1].copy(), qw[: length - 1].copy()))
    return trace


def steps_to_pulse(steps: list[HardPulseStep], dt: float, a_max: float | None = None) -> ControlSequence:
    """Realize steps as controls: u = (phi/dt) cos(theta), v = (phi/dt) sin(theta)."""
    amps = np.array([s.phi / dt for s in steps])
    thetas = np.array([s.theta for s in steps])
    samples = np.column_stack([amps * np.cos(thetas), amps * np.sin(thetas)])
    return ControlSequence(dt, samples, a_max)


# ---------------------------------------------------------------------------
# completion (spectral factorization)
# ---------------------------------------------------------------------------


def complete_polynomial(q: np.ndarray, margin: float = 1e-6) -> SpinorPolynomials:
    """Build the minimum-phase P with |P|^2 = 1 - |Q|^2 on the unit circle.

    If max |Q| exceeds 1 - margin the coefficients are rescaled down to
    that ceiling first (margin 0 with |Q| > 1 is rejected); the margin
    keeps the log of ``1 - |Q|^2`` finite.  P is the homomorphic (cepstral)
    minimum-phase factor: the cepstrum of ``0.5 log(1 - |Q|^2)`` folded
    onto its causal half and exponentiated, all on one FFT grid of
    ``nfft = max(4096, 16 n)`` points.  The pair is checked on that same
    grid: ``| |P|^2 - (1 - |Q|^2) |`` must stay within COMPLETION_TOL at all
    nfft points, which are the 16 n circle points for n >= 256 and hold them
    for every n dividing 256.
    """
    q = np.asarray(q, dtype=np.complex128).ravel()
    n = q.size
    if n == 0:
        raise ValueError("q must be nonempty")
    if not np.isfinite(q).all():
        raise ValueError("q holds a non-finite coefficient")
    nfft = max(4096, 16 * n)
    qf = np.fft.fft(q, nfft)
    qmax = float(np.abs(qf).max())
    if qmax > 1.0 - margin:
        if margin <= 0.0 and qmax > 1.0:
            raise ValueError(f"|Q| reaches {qmax:.6f} > 1 with no margin to rescale")
        q = q * (1.0 - margin) / qmax
        qf = qf * (1.0 - margin) / qmax

    if np.abs(q[1:]).max(initial=0.0) == 0.0:
        # constant Q completes to a constant P
        p = np.zeros(n, dtype=np.complex128)
        p[0] = np.sqrt(1.0 - np.abs(q[0]) ** 2)
        return SpinorPolynomials(p, q)

    mag2 = 1.0 - np.abs(qf) ** 2
    if mag2.min() <= 0.0:
        raise CompletionError("norm target is not positive on the unit circle")
    cep = np.fft.ifft(0.5 * np.log(mag2))
    cep[1 : nfft // 2] *= 2.0
    cep[nfft // 2 + 1 :] = 0.0
    # fft index k carries exp(-2 pi i j k / nfft), which is our z^-j
    p = np.fft.ifft(np.exp(np.fft.fft(cep)))[:n]
    # a phase rotation alone leaves a roundoff imaginary part on p[0]
    p = p * np.exp(-1j * np.angle(p[0]))
    p[0] = abs(p[0])
    res = float(np.abs(np.abs(np.fft.fft(p, nfft)) ** 2 - mag2).max())
    if not res <= COMPLETION_TOL:
        raise CompletionError(f"completion residual {res:.2e} exceeds {COMPLETION_TOL:.0e}")
    return SpinorPolynomials(p, q)


# ---------------------------------------------------------------------------
# fitting a target profile
# ---------------------------------------------------------------------------


@dataclass
class PolyFit:
    polys: SpinorPolynomials
    band_error: float
    fit_residual: float
    values: tuple | None = None  # (P, Q) on the profile's grid; None if it was resampled


def spinor_band_error(
    poly: SpinorPolynomials, profile: TargetProfile, dt: float
) -> float:
    """Max phase-aligned spinor distance between (P, Q) and the profile.

    A common per-offset phase (the only freedom a state has) is aligned
    away; magnitude errors of both components and their relative phase
    error are all counted.
    """
    pv, qv = poly.evaluate(profile.omega, dt)
    return _aligned_distance(_overlap(pv, qv, profile.f_alpha, profile.f_beta))


def _overlap(pv, qv, f_alpha, f_beta) -> np.ndarray:
    """|<f|(p, q)>| per sample: the overlap up to a common phase."""
    return np.abs(np.conj(f_alpha) * pv + np.conj(f_beta) * qv)


def _aligned_distance(overlap: np.ndarray) -> float:
    return float(np.sqrt(np.maximum(2.0 - 2.0 * overlap, 0.0)).max())


def _resample_profile(profile: TargetProfile, min_samples: int) -> TargetProfile:
    if profile.omega.size >= min_samples:
        return profile
    w = np.linspace(profile.omega.min(), profile.omega.max(), min_samples)
    fa = np.interp(w, profile.omega, profile.f_alpha.real) + 1j * np.interp(
        w, profile.omega, profile.f_alpha.imag
    )
    fb = np.interp(w, profile.omega, profile.f_beta.real) + 1j * np.interp(
        w, profile.omega, profile.f_beta.imag
    )
    norm = np.sqrt(np.abs(fa) ** 2 + np.abs(fb) ** 2)
    wt = None
    if profile.weights is not None:
        wt = np.interp(w, profile.omega, profile.weights)
    return TargetProfile(w, fa / norm, fb / norm, profile.tag, wt)


def _durbin(r: np.ndarray):
    """Durbin's recursion on the Hermitian positive definite Toeplitz matrix
    ``G[j, k] = r[k - j]`` (``r[-m] = conj(r[m])``), in O(n^2).

    Returns ``(b, e)``: row k of b holds in its first k + 1 entries the
    backward predictor of order k + 1 (last entry 1), for which the leading
    (k + 1)-square block of G gives ``e[k]`` times the last unit vector.  So
    ``conj(b) G b^T = diag(e)`` and ``G^-1 = b^T diag(1/e) conj(b)``.  A
    prediction error that is not finite and positive means G is not positive
    definite; that is a ``ValueError``.
    """
    n = r.size
    b = np.zeros((n, n), dtype=np.complex128)
    e = np.empty(n)
    b[0, 0] = 1.0
    err = float(r[0].real)
    for k in range(n):
        if not 0.0 < err < np.inf:
            raise ValueError(
                f"the profile weights give a Gram matrix that is not positive definite "
                f"(prediction error {err:.3g} at order {k + 1})"
            )
        e[k] = err
        if k + 1 == n:
            break
        prev = b[k, : k + 1]
        # the top entry of G_(k+2) [0; prev]; the bottom one of [J conj(prev); 0]
        # is its conjugate, so this reflection zeroes the top entry
        refl = -complex(r[1 : k + 2] @ prev) / err
        row = b[k + 1, : k + 2]
        row[1:] = prev
        row[: k + 1] += refl * np.conj(prev[::-1])
        err *= 1.0 - abs(refl) ** 2
    return b, e


class _GramFit:
    """Weighted least-squares fit of n coefficients on one sample grid.

    Every product with the grid's m x n exponential matrix goes through
    :func:`_circle_products` (a chirp-z on the arithmetic grids this package
    builds, Horner elsewhere), so no m x n array is ever made.  The grid's
    chirp plans, one for the sums (its Gram row and right-hand sides) and
    one for the evaluations, and the factored inverse of the weighted Gram
    matrix (:func:`_durbin`) depend on the grid, the weights, n and dt alone:
    a design that fits several targets on one grid builds them once.
    """

    def __init__(self, omega: np.ndarray, weights: np.ndarray | None, n: int, dt: float):
        if n < 1:
            raise ValueError("need at least one step")
        wmax = float(np.abs(omega).max())
        if wmax * dt > np.pi:
            raise ValueError(
                f"band aliasing: max |omega|*dt = {wmax * dt:.3f} exceeds pi"
            )
        self.theta = omega * dt
        self.n = n
        self.wt = np.ones(omega.size) if weights is None else weights
        self.sums = _chirp_plan(self.theta, n, sums=True)
        self.evals = _chirp_plan(self.theta, n, sums=False)
        # the weighted Gram matrix of integer-frequency exponentials is Hermitian
        # Toeplitz: G[j, k] = r[k - j] with r = a^T w and r[-m] = conj(r[m])
        r = _circle_products(self.theta, self.wt, n, self.sums)
        # arc-sampled fits have near-null directions whose "help" is
        # microscopic but whose coefficients are not; a Tikhonov shift of
        # GRAM_SHIFT times a Gershgorin bound on the largest eigenvalue keeps
        # them out of q and keeps the matrix Toeplitz
        r[0] = r[0].real + GRAM_SHIFT * (r[0].real + 2.0 * np.abs(r[1:]).sum())
        self.pred, self.err = _durbin(r)

    def _fit_q(self, f_beta):
        # the right-hand side a^H x is conj(c) with c = a^T conj(x), and
        # G^-1 = b^T diag(1/e) conj(b), so conj(b) conj(c) = conj(b c)
        c = _circle_products(self.theta, np.conj(self.wt * f_beta), self.n, self.sums)
        return self.pred.T @ (np.conj(self.pred @ c) / self.err)

    def fit(self, prof: TargetProfile, margin: float, absorb_alpha_phase: bool) -> PolyFit:
        """Fit q to ``prof`` (sampled on this grid) and complete it; the band
        error is measured on the grid."""
        polys = complete_polynomial(self._fit_q(prof.f_beta), margin=margin)
        if absorb_alpha_phase:
            pv = _circle_products(self.theta, polys.p, plan=self.evals)
            ph = np.exp(1j * (np.angle(pv) - np.angle(prof.f_alpha)))
            polys = complete_polynomial(self._fit_q(prof.f_beta * ph), margin=margin)
        pv, qv = _circle_products(self.theta, np.stack([polys.p, polys.q]), plan=self.evals)
        fit_resid = float(np.abs(qv - prof.f_beta).max())
        band_error = _aligned_distance(_overlap(pv, qv, prof.f_alpha, prof.f_beta))
        return PolyFit(polys, band_error, fit_resid, (pv, qv))


def target_to_polys(
    profile: TargetProfile,
    n: int,
    dt: float,
    margin: float = 1e-6,
    absorb_alpha_phase: bool = True,
) -> PolyFit:
    """Least-squares fit of q to the beta profile, then completion for p.

    ``absorb_alpha_phase`` refits q with the completed P's phase folded into
    the beta target, so that the pair hits the profile up to a per-offset
    global phase (which is all that states can see).  The reported band
    error is the max phase-aligned spinor distance against the original
    profile.
    """
    prof = _resample_profile(profile, 8 * n)
    fit = _GramFit(prof.omega, prof.weights, n, dt).fit(prof, margin, absorb_alpha_phase)
    if prof is not profile:
        fit.band_error = spinor_band_error(fit.polys, profile, dt)
        fit.values = None
    return fit


# ---------------------------------------------------------------------------
# designers
# ---------------------------------------------------------------------------


def broadband_profile(axis: str, angle: float, band: float, n: int, dt: float) -> TargetProfile:
    """Flat rotation target over [-band, band] with zero response far away.

    The out-of-band zero keeps the fitted filter genuinely band-limited (and
    the pulse energy spread over the train); a raised-cosine ramp joins the
    two levels so the fitted |Q| stays controlled on the whole circle.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    beta_unit = _beta_unit(axis, angle)
    stop_hi = 0.995 * np.pi / dt
    # the ramp takes a quarter of the free spectral room, floored at the
    # resolvable width; over-sharp transitions just buy ripple
    transition = max(4.0 / (n * dt), 0.25 * (stop_hi - band))
    stop_lo = band + transition
    if stop_lo >= stop_hi:
        raise ValueError("band plus transition exceeds the unaliased range")
    w = np.linspace(-stop_hi, stop_hi, 24 * n + 1)
    aw = np.abs(w)
    s = np.sin(0.5 * angle)
    ramp = 0.5 * (1.0 + np.cos(np.pi * (aw - band) / transition))
    mag = np.where(aw <= band, s, np.where(aw >= stop_lo, 0.0, s * ramp))
    # a causal tap train is a one-sided Fourier series, so the realizable
    # flat-magnitude target carries the half-train delay phase
    fb = beta_unit * mag * _half_delay_phase(w, n, dt)
    fa = np.sqrt(1.0 - mag**2)
    return TargetProfile(w, fa, fb, tag=f"broadband-{axis}")


def _beta_unit(axis, angle):
    """Beta direction of the rotation by ``angle`` about x or y, in its SU(2)
    representative with alpha >= 0: past pi, the rotation by 2 pi - angle
    about the opposite axis, which the profile's square-root alpha fits."""
    unit = -1j if axis == "x" else 1.0
    return -unit if np.cos(0.5 * angle) < 0.0 else unit


def _half_delay_phase(omega, n, dt):
    return np.exp(1j * np.asarray(omega, dtype=float) * dt * 0.5 * (n - 1))


@dataclass
class BroadbandDesign:
    pulse: ControlSequence
    polys: SpinorPolynomials  # single block
    band_error: float
    blocks: int
    block_angle: float
    profile: TargetProfile
    fit_residual: float
    inversion: dict  # inverse_recursion_full diagnostics of the block
    fidelity: FidelityMap  # the written pulse against the full-angle target


def design_broadband(
    axis: str, angle: float, band: float, n: int, dt: float, a_max: float | None = None
) -> BroadbandDesign:
    """Design a rotation about x or y that is flat over [-band, band].

    Unbounded: one block for the full angle.  With ``a_max``, the angle is
    split into the smallest number m of equal sub-angles whose extracted
    per-step amplitudes respect the bound, and the m identical blocks are
    concatenated.  One kernel pass over the written pulse
    (:func:`_design_band_error`) gives the band error and the fidelity map.
    """
    if not (0.0 < angle < 2.0 * np.pi):
        raise ValueError("angle must lie in (0, 2*pi)")

    profile = broadband_profile(axis, angle, band, n, dt)
    # the profile's grid depends on n, dt and band, not on the angle, so
    # every candidate block count fits through one factorization
    gram = _GramFit(profile.omega, profile.weights, n, dt)

    def block_for(m: int):
        prof = profile if m == 1 else broadband_profile(axis, angle / m, band, n, dt)
        fit = gram.fit(prof, margin=1e-6, absorb_alpha_phase=True)
        steps, inversion = inverse_recursion_full(fit.polys)
        return prof, fit, steps, inversion

    def feasible(block) -> bool:
        if a_max is None:
            return True
        worst = max(s.phi for s in block[2]) / dt
        return worst <= a_max * (1 + 1e-12)

    block = block_for(1)
    m = 1
    if not feasible(block):
        lo = 1
        hi = 2
        while hi <= MAX_SUBDIVISIONS:
            block = block_for(hi)
            if feasible(block):
                break
            lo = hi
            hi *= 2
        else:
            raise InfeasibleError(
                f"no feasible subdivision count up to {MAX_SUBDIVISIONS} for a_max={a_max}"
            )
        # smallest feasible m in (lo, hi], assuming per-step flips shrink
        # monotonically with the block angle
        while hi - lo > 1:
            mid = (lo + hi) // 2
            candidate = block_for(mid)
            if feasible(candidate):
                hi, block = mid, candidate
            else:
                lo = mid
        m = hi

    profile, fit, steps, inversion = block
    block_pulse = steps_to_pulse(steps, dt, a_max)
    pulse = ControlSequence(dt, np.tile(block_pulse.samples, (m, 1)), a_max)

    band_error, fidelity = _design_band_error(pulse, axis, angle, band, dt)
    return BroadbandDesign(
        pulse, fit.polys, band_error, m, angle / m, profile, fit.fit_residual, inversion, fidelity
    )


def _design_band_error(pulse, axis, angle, band, dt, npoints=129):
    """Phase-aligned distance of the achieved spinor to the rotation target
    over ``npoints`` offsets, and the fidelity |<target|psi>|^2 of that same
    pass on every other offset.

    The whole written pulse (possibly several concatenated blocks) is
    simulated from (1, 0) by one hard-pulse kernel pass; the beta target
    carries the half-train delay, as in :func:`spinor_band_error`.
    """
    omega = np.linspace(-band, band, npoints)
    ones = np.ones(npoints)
    alpha, beta = kernels.spinor_propagate(pulse.u, pulse.v, dt, omega, ones, None, ones, 0 * ones, True)
    overlap = _overlap(alpha, beta, *rotation_target(axis, angle, omega, pulse.nsteps, dt))
    # the even offsets of 129 are bitwise np.linspace(-band, band, 65)
    grid = DispersionGrid(axes={"omega": omega[::2]})
    return _aligned_distance(overlap), FidelityMap(grid, overlap[::2] ** 2)


def rotation_target(axis, angle, omega, n, dt):
    """Target spinor (alpha, beta) of an n-step train rotating by ``angle``
    about x or y, from (1, 0), at each offset in ``omega``.

    Alpha is |cos(angle/2)|, in the representative :func:`broadband_profile`
    fits; beta carries the half-train delay phase of a causal tap train.
    """
    fb = _beta_unit(axis, angle) * np.sin(0.5 * angle) * _half_delay_phase(omega, n, dt)
    return np.full(fb.shape, abs(np.cos(0.5 * angle))), fb


@dataclass
class PatternDesign:
    pulse: ControlSequence
    polys: SpinorPolynomials
    fit_error: float
    profile: TargetProfile
    inversion: dict  # inverse_recursion_full diagnostics
    values: tuple  # (P, Q) at the profile's offsets


def band_selective_profile(
    band: float,
    select: tuple[float, float],
    flip: float,
    n: int,
    dt: float,
    transition: float | None = None,
) -> TargetProfile:
    """Flip-angle pattern: ``flip`` inside [select], 0 elsewhere.

    The profile is specified on the whole usable circle (zero flip outside
    the selection) with raised-cosine ramps of width ``transition`` at the
    selection edges, which keeps the fit well conditioned.
    """
    if not (0.0 <= flip <= np.pi):
        raise ValueError("flip must lie in [0, pi]")
    lo, hi = select
    if not lo < hi:
        raise ValueError(f"selection interval must be increasing (lo < hi), got ({lo}, {hi})")
    if not (-band <= lo and hi <= band):
        raise ValueError("selection interval must sit inside the band")
    stop_hi = 0.995 * np.pi / dt
    min_trans = 4.0 / (n * dt)
    if transition is None:
        # a hair above the resolvable width buys its cost back in ripple
        room = 0.9 * min(stop_hi - hi, stop_hi + lo)
        transition = max(min_trans, min(0.3 * (hi - lo), room))
    if transition < min_trans:
        raise ValueError(
            f"transition {transition:.1f} rad/s narrower than the resolvable {min_trans:.1f}"
        )
    if hi + transition >= stop_hi or lo - transition <= -stop_hi:
        raise ValueError("selection plus transition exceeds the unaliased range")
    w = np.linspace(-stop_hi, stop_hi, 24 * n + 1)
    flips = np.zeros_like(w)
    inside = (w >= lo) & (w <= hi)
    flips[inside] = flip
    ramp_lo = (w < lo) & (w > lo - transition)
    flips[ramp_lo] = flip * 0.5 * (1.0 + np.cos(np.pi * (lo - w[ramp_lo]) / transition))
    ramp_hi = (w > hi) & (w < hi + transition)
    flips[ramp_hi] = flip * 0.5 * (1.0 + np.cos(np.pi * (w[ramp_hi] - hi) / transition))
    fb = -1j * np.sin(0.5 * flips) * _half_delay_phase(w, n, dt)
    fa = np.cos(0.5 * flips)
    # selection accuracy matters quadratically for inversion depth; the
    # ramps are shape guidance only
    weights = np.ones_like(w)
    weights[inside] = 10.0
    weights[ramp_lo | ramp_hi] = 0.3
    return TargetProfile(w, fa, fb, tag="pattern", weights=weights)


def design_pattern(
    profile: TargetProfile, n: int, dt: float, margin: float = 0.01
) -> PatternDesign:
    """Design a pulse whose flip-angle profile follows the target pattern.

    A full pi flip asks for |Q| = 1 on the circle, where the completion's
    log(1 - |Q|^2) diverges; the margin rescale caps |Q| at 1 - margin, so
    the achieved inversion depth is bounded by the margin.  Alpha-phase
    absorption is disabled: where the flip reaches pi the alpha component
    vanishes and its phase is numerical noise.
    """
    fit = target_to_polys(profile, n, dt, margin=margin, absorb_alpha_phase=False)
    steps, inversion = inverse_recursion_full(fit.polys)
    pulse = steps_to_pulse(steps, dt)
    # the fit evaluated the pair on the profile's grid unless it resampled it
    values = fit.polys.evaluate(profile.omega, dt) if fit.values is None else fit.values
    return PatternDesign(pulse, fit.polys, fit.band_error, profile, inversion, values)
