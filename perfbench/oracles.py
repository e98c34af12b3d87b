"""Independent checks of the program's outputs.

Ensemble maps are recomputed as ordered products of per-step
``scipy.linalg.expm`` rotations; composite artifacts are re-simulated from
the written file with closed-form step rotations (rf sequences) or
per-segment ``expm`` (two-qubit segment lists); design-pattern z-profiles by
a closed-form hard-pulse recursion of the spinor.  None of these go
through the program's propagators.  SLR band errors are recomputed by
propagating the written pulse with the program's
``propagate(model="hard_pulse")``: that checks the band error the designer
reports from its spinor polynomials against the pulse it wrote, not the
propagator.
"""

from __future__ import annotations

import json

import numpy as np

# scipy.linalg is imported inside the functions that use it, so that loading
# the workloads (set-up, which the benchmark times) imports no more than the
# program itself does.

# Bloch-plant generators, right-handed with OZ @ ex = ey.  A step with
# controls (u, v) at offset w and rf scale e has generator
# dt * (w OZ + e u OY + e v OX).
OX = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
OY = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
OZ = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
AXIS_GENERATOR = {"x": OX, "y": OY, "z": OZ}

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
ZZ = np.kron(PAULI["z"], PAULI["z"])


def load_pulse_arrays(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    samples = np.asarray(doc["samples"], dtype=float)
    return float(doc["dt"]), samples[:, 0], samples[:, 1]


def read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([line.split(",") for line in fh.read().splitlines()], dtype=float)
    return header, rows


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """M_{n-1} ... M_1 M_0 of the matrices stacked along axis -3, pairwise."""
    m = mats
    while m.shape[-3] > 1:
        if m.shape[-3] % 2:
            eye = np.broadcast_to(np.eye(m.shape[-1]), m.shape[:-3] + (1,) + m.shape[-2:])
            m = np.concatenate([m, eye], axis=-3)
        m = m[..., 1::2, :, :] @ m[..., 0::2, :, :]
    return m[..., 0, :, :]


def expm_rotation(u, v, dt, omega, eps, hard_pulse=False) -> np.ndarray:
    """Net SO(3) rotation at one grid point from per-step scipy expm."""
    from scipy.linalg import expm

    rf = dt * eps * (v[:, None, None] * OX + u[:, None, None] * OY)
    if hard_pulse:
        steps = expm(rf) @ expm(dt * omega * OZ)
    else:
        steps = expm(rf + dt * omega * OZ)
    return ordered_product(steps)


def rf_step_rotations(u, v, dt, eps: float) -> np.ndarray:
    """SO(3) rotation of each on-resonance rf step at rf scale ``eps``.

    Rodrigues' formula, exp(t K) = I + sin t K + (1 - cos t) K^2 for a unit
    axis K.
    """
    r = dt * eps * np.column_stack([v, u, np.zeros_like(u)])
    angle = np.linalg.norm(r, axis=1)
    n = r / np.where(angle > 0, angle, 1.0)[:, None]
    k = np.einsum("sa,aij->sij", n, np.stack([OX, OY, OZ]))
    s, c = np.sin(angle)[:, None, None], np.cos(angle)[:, None, None]
    return np.eye(3) + s * k + (1 - c) * (k @ k)


def closed_form_rotation(u, v, dt, eps: float) -> np.ndarray:
    """Net SO(3) rotation of an on-resonance rf sequence at rf scale ``eps``."""
    return ordered_product(rf_step_rotations(u, v, dt, eps))


def hard_pulse_z(u, v, dt, omega) -> np.ndarray:
    """|alpha|^2 - |beta|^2 per offset after the hard-pulse sequence, from
    the spinor (1, 0).

    Each step is the free precession exp(-(i/2) w dt sz) followed by the rf
    rotation exp(-(i/2) dt (u sx + v sy)), in closed form
    cos(t/2) I - i sin(t/2) n.sigma.
    """
    a = np.ones(len(omega), dtype=complex)
    b = np.zeros(len(omega), dtype=complex)
    half = np.exp(-0.5j * dt * np.asarray(omega))
    flip = dt * np.hypot(u, v)
    c, s = np.cos(0.5 * flip), np.sin(0.5 * flip)
    n = (u - 1j * v) / np.where(flip > 0, np.hypot(u, v), 1.0)  # nx - i ny
    for ck, sk, nk in zip(c, s, n):
        a, b = a * half, b / half
        a, b = ck * a - 1j * sk * nk * b, -1j * sk * np.conj(nk) * a + ck * b
    return np.abs(a) ** 2 - np.abs(b) ** 2


def rotation_fidelity(r: np.ndarray, target: np.ndarray) -> np.ndarray:
    """(1 + cos of the relative rotation angle) / 2, batched over r."""
    cosang = 0.5 * (np.einsum("ij,...ij->...", target, r) - 1.0)
    return 0.5 * (1.0 + np.clip(cosang, -1.0, 1.0))


def axis_rotation(axis: str, angle: float) -> np.ndarray:
    k = AXIS_GENERATOR[axis]
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def segment_unitary(seg: dict, j: float) -> np.ndarray:
    from scipy.linalg import expm

    if seg["kind"] == "coupling":
        return expm(-1j * j * seg["duration"] * ZZ)
    if seg["kind"] == "local":
        sigma = PAULI[seg["axis"]]
        op = np.kron(sigma, PAULI["i"]) if seg["qubit"] == 1 else np.kron(PAULI["i"], sigma)
        return expm(-0.5j * seg["angle"] * op)
    raise ValueError(f"unexpected segment kind {seg['kind']!r}")


def two_qubit_gate_fidelities(path: str, jgrid, theta: float) -> np.ndarray:
    """|tr(G^H U(J))| / 4 per J for the segment list in ``path``."""
    from scipy.linalg import expm

    with open(path) as fh:
        segments = json.load(fh)["segments"]
    target = expm(-1j * theta * ZZ)
    out = []
    for j in jgrid:
        u = ordered_product(np.array([segment_unitary(s, j) for s in segments]))
        out.append(abs(np.trace(target.conj().T @ u)) / 4.0)
    return np.array(out)


def spinor_band_error(final: np.ndarray, omega, axis: str, angle: float, nsteps: int, dt: float) -> float:
    """Max phase-aligned distance of final spinors to the flat rotation target.

    The beta target carries the half-train delay phase of a causal tap train.
    """
    beta_unit = -1j if axis == "x" else 1.0
    fb = beta_unit * np.sin(0.5 * angle) * np.exp(1j * omega * dt * 0.5 * (nsteps - 1))
    fa = np.cos(0.5 * angle)
    overlap = np.abs(np.conj(fa) * final[:, 0] + np.conj(fb) * final[:, 1])
    return float(np.sqrt(np.maximum(2.0 - 2.0 * overlap, 0.0)).max())


def flip_pattern(omega, select, flip: float, transition: float):
    """Flip angle per offset and the mask of offsets outside the ramps."""
    lo, hi = select
    flips = np.zeros_like(omega)
    flips[(omega >= lo) & (omega <= hi)] = flip
    ramps = ((omega < lo) & (omega > lo - transition)) | ((omega > hi) & (omega < hi + transition))
    return flips, ~ramps
