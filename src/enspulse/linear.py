"""Executable necessary-condition checks for linear and nilpotent ensembles.

A family of linear systems driven by one shared control can only be steered
together if the members are distinguishable through the control channel:
companion coordinates expose the characteristic coefficients as the only
invariants, coinciding characteristic polynomials or a rank-deficient drift
kill controllability, and variation confined to the input matrix is never
compensable.  The nonholonomic-integrator helpers make the nilpotent
obstruction quantitative: the third coordinate scales exactly quadratically
with the input gain no matter what the controls do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LinearSystemSample",
    "CompanionForm",
    "companion_transform",
    "characteristic_coefficients",
    "controllability_matrix",
    "ensemble_necessary_conditions",
    "NecessaryConditionReport",
    "reachability_residual",
    "heisenberg_trajectories",
    "heisenberg_invariant",
    "HeisenbergReport",
]

RANK_TOL = 1e-9  # controllability rank: singular values above this times the largest
SCALING_TOL = 1e-6  # relative spread the gain-scaling law may show


@dataclass
class LinearSystemSample:
    """One member of a parameterized family dx/dt = A x + u B."""

    s: float | tuple
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        self.b = b
        n = self.a.shape[0]
        if self.a.shape != (n, n) or self.b.shape[0] != n:
            raise ValueError("A must be n x n and B must have n rows")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("entries must be finite")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def single_input(self) -> bool:
        return self.b.shape[1] == 1


@dataclass
class CompanionForm:
    transform: np.ndarray  # T with T A T^-1 in companion shape, T b = e_n
    coefficients: np.ndarray  # a_0 .. a_{n-1} of the characteristic polynomial
    residual: float


def controllability_matrix(sys: LinearSystemSample) -> np.ndarray:
    cols = []
    acc = sys.b.copy()
    for _ in range(sys.n):
        cols.append(acc)
        acc = sys.a @ acc
    return np.hstack(cols)


def characteristic_coefficients(a: np.ndarray) -> np.ndarray:
    """a_0 .. a_{n-1} with det(lam I - A) = lam^n + sum a_k lam^k.

    Faddeev-LeVerrier trace recursion; no eigendecomposition involved.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[n - k + 1] * np.eye(n)
        coeffs[n - k] = -np.trace(a @ m) / k
    return coeffs[:n]


def _companion(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs)
    c = np.zeros((n, n))
    c[:-1, 1:] = np.eye(n - 1)
    c[-1, :] = -coeffs
    return c


def companion_transform(sys: LinearSystemSample) -> CompanionForm:
    """Similarity transform to controllable canonical (companion) form.

    Rejects uncontrollable samples with the observed Krylov rank in the
    message and reports the reconstruction residual.
    """
    if not sys.single_input:
        raise ValueError("companion form requires a single-input system")
    krylov = controllability_matrix(sys)
    svals = np.linalg.svd(krylov, compute_uv=False)
    rank = int(np.sum(svals > RANK_TOL * svals[0]))
    if rank < sys.n:
        raise ValueError(
            f"sample is not controllable: controllability rank {rank} < {sys.n}"
        )
    coeffs = characteristic_coefficients(sys.a)
    # T^-1 = K W with the Hankel-of-coefficients weight matrix
    n = sys.n
    w = np.zeros((n, n))
    padded = np.concatenate([coeffs, [1.0]])
    for i in range(n):
        for j in range(n - i):
            w[i, j] = padded[i + j + 1]
    t_inv = krylov @ w
    t = np.linalg.inv(t_inv)
    residual = np.linalg.norm(t @ sys.a @ t_inv - _companion(coeffs)) + np.linalg.norm(
        (t @ sys.b).ravel() - np.eye(n)[-1]
    )
    return CompanionForm(t, coeffs, float(residual))


@dataclass
class NecessaryConditionReport:
    passed: bool
    coincident_pairs: list
    rank_deficient: list
    coefficients: list


def ensemble_necessary_conditions(
    samples: Sequence[LinearSystemSample], tol: float = 1e-8
) -> NecessaryConditionReport:
    """Flag coinciding characteristic polynomials and rank-deficient drifts.

    Two distinct members sharing a characteristic polynomial can never be
    steered apart by the common control; a vanishing constant coefficient
    confines the reachable set from the origin to a fixed hyperplane.
    """
    if len(samples) < 2:
        raise ValueError("need at least two ensemble samples")
    if not 0 <= tol < np.inf:  # NaN too
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    forms = [companion_transform(s) for s in samples]
    coincident = []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            ci, cj = forms[i].coefficients, forms[j].coefficients
            scale = max(np.linalg.norm(ci), np.linalg.norm(cj), 1.0)
            same_coeffs = np.linalg.norm(ci - cj) <= tol * scale
            distinct_a = np.linalg.norm(samples[i].a - samples[j].a) > tol * max(
                np.linalg.norm(samples[i].a), 1.0
            )
            if same_coeffs and distinct_a:
                coincident.append((i, j))
    deficient = []
    for i, form in enumerate(forms):
        if abs(form.coefficients[0]) <= tol * max(np.linalg.norm(form.coefficients), 1.0):
            deficient.append(i)
    return NecessaryConditionReport(
        passed=not coincident and not deficient,
        coincident_pairs=coincident,
        rank_deficient=deficient,
        coefficients=[f.coefficients for f in forms],
    )


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small real square matrix by scaling and
    squaring (Moler & Van Loan, SIAM Rev. 45:3, 2003): the degree-18 Taylor
    polynomial of m / 2**s, with s chosen so that the scaled 1-norm is below
    1/2, then s squarings.  The Taylor tail is then of order 0.5**19 / 19!,
    about 1.6e-23.  Overflow is left to the caller, which checks the result
    for finiteness."""
    s = max(0, int(np.frexp(np.abs(m).sum(axis=0).max())[1]) + 1)
    x = m / 2.0**s  # exact: a power of two
    eye = np.eye(len(m))
    e = eye
    for k in range(18, 0, -1):  # Horner: I + x (I + x/2 (I + ... x/18))
        e = eye + (x @ e) / k
    for _ in range(s):
        e = e @ e
    return e


def reachability_residual(
    samples: Sequence[LinearSystemSample],
    targets: Sequence[np.ndarray],
    horizon: int,
    dt: float,
) -> float:
    """Least-squares distance from the jointly reachable set to the targets.

    Zero-order-hold discretization from the origin: each member's one-step
    propagator and held-input response are blocks of the exponential of
    [[A dt, B dt], [0, 0]], taken by :func:`_expm` because that matrix is not
    normal.  The same control-sample vector drives every member, and the
    stacked linear map is solved in one least-squares shot.  A residual of
    zero (within roundoff) certifies the targets jointly reachable at this
    resolution.  A target whose length is not its sample's state dimension,
    and a sample whose discretization overflows, are refused by index.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one step")
    if not 0 < dt < np.inf:  # NaN too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if len(targets) != len(samples):
        raise ValueError("one target per sample required")
    targets = [np.asarray(t, dtype=float).ravel() for t in targets]
    for i, (sys, t) in enumerate(zip(samples, targets)):
        if t.size != sys.n:
            raise ValueError(f"target {i} has {t.size} entries for a sample of dimension {sys.n}")

    blocks = []
    for i, sys in enumerate(samples):
        n, m = sys.b.shape
        aug = np.zeros((n + m, n + m))
        # overflow and inf - inf show as non-finite entries, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            aug[:n, :n] = sys.a * dt
            aug[:n, n:] = sys.b * dt
            e = _expm(aug)
            ad = e[:n, :n]
            cols = [e[:n, n:]]
            for _ in range(horizon - 1):
                cols.append(ad @ cols[-1])
        # control ordering: u_0 first; later inputs pass through fewer steps
        block = np.hstack(cols[::-1])
        if not np.isfinite(block).all():
            raise ValueError(
                f"sample {i}: its zero-order-hold discretization overflows "
                f"over {horizon} steps of dt {dt}"
            )
        blocks.append(block)
    big = np.vstack(blocks)
    rhs = np.concatenate(targets)
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    return float(np.linalg.norm(big @ sol - rhs))


# ---------------------------------------------------------------------------
# nonholonomic integrator
# ---------------------------------------------------------------------------


def heisenberg_trajectories(
    u1: np.ndarray,
    u2: np.ndarray,
    dt: float,
    epsilons: Sequence[float],
) -> np.ndarray:
    """Integrate the planar-integrator system from the origin for each gain.

    The flow x1' = eps u1, x2' = eps u2, x3' = eps (u2 x1 - u1 x2) is
    stepped exactly on the piecewise-constant controls: within a step
    u2 x1 - u1 x2 is constant, so x3 gains eps (u2 x1 - u1 x2) dt.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.shape != u2.shape:
        raise ValueError("control channels must have equal length")
    eps = np.asarray(epsilons, dtype=float)
    x1, x2, x3 = np.zeros(eps.size), np.zeros(eps.size), np.zeros(eps.size)
    for a, b in zip(u1, u2):
        x3 = x3 + eps * (b * x1 - a * x2) * dt
        x1 = x1 + eps * a * dt
        x2 = x2 + eps * b * dt
    return np.column_stack([x1, x2, x3])


@dataclass
class HeisenbergReport:
    passed: bool
    finals: np.ndarray
    first_order_spread: float  # relative spread of x1/eps and x2/eps
    second_order_spread: float  # relative spread of x3/eps^2


def heisenberg_invariant(
    u1: np.ndarray,
    u2: np.ndarray,
    dt: float,
    epsilons: Sequence[float],
) -> HeisenbergReport:
    """Check the gain-scaling law of the planar integrator from the origin.

    The first two coordinates scale linearly with the gain and the third
    exactly quadratically, which is why no control can give the third
    coordinate a different gain profile.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.size == 0 or not np.isfinite(eps).all():
        raise ValueError(f"gains must be nonempty and finite, got {eps.tolist()}")
    if np.any(eps == 0):
        raise ValueError("gains must be nonzero")
    finals = heisenberg_trajectories(u1, u2, dt, eps)
    lin = finals[:, :2] / eps[:, None]
    quad = finals[:, 2] / eps**2
    def rel_spread(v):
        scale = np.abs(v).max()
        if scale == 0.0:
            return 0.0
        return float((v.max(axis=0) - v.min(axis=0)).max() / scale)
    s1 = rel_spread(lin)
    s2 = rel_spread(quad[:, None])
    return HeisenbergReport(
        passed=(s1 <= SCALING_TOL and s2 <= SCALING_TOL),
        finals=finals,
        first_order_spread=s1,
        second_order_spread=s2,
    )
