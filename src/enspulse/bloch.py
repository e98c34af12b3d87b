"""Exact piecewise-constant propagation of spin ensembles over dispersion grids.

Convention table (all simulation code derives from this block):

* Controls ``(u_k, v_k)`` in rad/s are held constant for ``dt`` seconds.
* SU(2) plant:  ``dU/dt = -(i/2) [[w, e(u-iv)], [e(u+iv), -w]] U`` with
  offset ``w`` (rad/s) and rf scale ``e``; a pure offset step is
  ``diag(exp(-i w dt/2), exp(+i w dt/2))``.
* SO(3) plant:  ``dX/dt = (w Oz + e u Oy + e v Ox) X`` acting on Bloch
  column vectors, with the right-handed generators of :mod:`.liealg`.
* The two plants pair the controls with different axes: the SO(3) step is
  the adjoint image of the SU(2) step with u and v exchanged (and theta
  negated).  Every Bloch vector and rotation here is computed that way,
  from one SU(2) pass (:func:`.kernels.rotation_propagate`), so the spinor
  pass of :mod:`.kernels` is the only propagator: its step loop, or, for a
  hard-pulse pass at one rf scale over a wide grid, the pulse's polynomial
  pair, both planned by :func:`.kernels.spinor_propagate`.  The test suite
  checks the Bloch results against independently exponentiated SO(3) steps.
* rf phase dispersion ``theta`` advances the polar angle of the control
  field in the SO(3) plant's (Ox, Oy) plane:
  ``u' = u cos(theta) + v sin(theta)``, ``v' = -u sin(theta) + v cos(theta)``.
  With that orientation every pulse satisfies the frame law
  ``exp(-theta Oz) X_theta(T) = X_0(T)`` from a z-axis start, which is the
  executable form of "phase dispersion cannot be compensated".
* ``model="hard_pulse"`` replaces each step by free z-precession over ``dt``
  followed by the rf rotation; ``model="exact"`` exponentiates the full
  step generator in closed form.  Their difference is O(dt^2) per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "AXIS_ORDER",
    "ControlSequence",
    "DispersionGrid",
    "SU2Element",
    "EnsembleState",
    "TargetSpec",
    "FidelityMap",
    "propagate",
    "net_su2",
    "net_rotation",
    "fidelity_map",
    "fidelity_of_states",
    "phase_frame_check",
]

AXIS_ORDER = ("omega", "epsilon", "theta", "J")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlSequence:
    """Piecewise-constant rf controls: one (u, v) pair per step of ``dt``."""

    dt: float
    samples: np.ndarray  # (n, 2)
    a_max: float | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2:
            raise ValueError("samples must be an (n, 2) array of (u, v) pairs")
        if not np.all(np.isfinite(s)):
            raise ValueError("control samples must be finite")
        if not 0 < self.dt < np.inf:  # NaN too
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.a_max is not None:
            if not 0 < self.a_max < np.inf:  # NaN too
                raise ValueError(f"a_max must be positive and finite, got {self.a_max}")
            amp = np.hypot(s[:, 0], s[:, 1])
            if np.any(amp > self.a_max * (1 + 1e-12)):
                raise ValueError("control amplitude exceeds a_max")
        object.__setattr__(self, "samples", s)

    @property
    def nsteps(self) -> int:
        return self.samples.shape[0]

    @property
    def u(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def v(self) -> np.ndarray:
        return self.samples[:, 1]

    @property
    def amplitudes(self) -> np.ndarray:
        return np.hypot(self.u, self.v)

    def concat(self, other: "ControlSequence") -> "ControlSequence":
        if abs(other.dt - self.dt) > 1e-15 * self.dt:
            raise ValueError("can only concatenate sequences with equal dt")
        bound = None
        if self.a_max is not None and other.a_max is not None:
            bound = max(self.a_max, other.a_max)
        return ControlSequence(self.dt, np.vstack([self.samples, other.samples]), bound)

    def scaled(self, factor: float) -> "ControlSequence":
        return ControlSequence(self.dt, self.samples * factor, self.a_max)


@dataclass(frozen=True)
class DispersionGrid:
    """Cartesian product of named, strictly increasing parameter axes."""

    axes: dict[str, np.ndarray]

    def __post_init__(self):
        clean: dict[str, np.ndarray] = {}
        for name in AXIS_ORDER:
            if name not in self.axes:
                continue
            vals = np.asarray(self.axes[name], dtype=float).ravel()
            if vals.size == 0:
                raise ValueError(f"axis {name!r} is empty")
            finite = np.isfinite(vals)
            if not finite.all():
                raise ValueError(f"axis {name!r} must be finite, got {vals[~finite][0]}")
            if vals.size > 1 and not np.all(np.diff(vals) > 0):
                raise ValueError(f"axis {name!r} must be strictly increasing")
            clean[name] = vals
        unknown = set(self.axes) - set(clean)
        if unknown:
            raise ValueError(f"unknown axes {sorted(unknown)}; expected {AXIS_ORDER}")
        object.__setattr__(self, "axes", clean)

    @classmethod
    def from_ranges(cls, **ranges) -> "DispersionGrid":
        """Build axes from (min, max, n) triples, e.g. omega=(-b, b, 64)."""
        axes = {}
        for name, (lo, hi, n) in ranges.items():
            if n < 1 or lo > hi:
                raise ValueError(f"bad range for axis {name!r}")
            axes[name] = np.linspace(lo, hi, int(n)) if n > 1 else np.array([0.5 * (lo + hi)])
        return cls(axes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.axes.values())

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> dict[str, np.ndarray]:
        """Flattened coordinate arrays in lexicographic (row-major) order."""
        if not self.axes:
            return {}
        mesh = np.meshgrid(*self.axes.values(), indexing="ij")
        return {name: m.ravel() for name, m in zip(self.axes, mesh)}


@dataclass(frozen=True)
class SU2Element:
    """Cayley-Klein pair (alpha, beta) with |alpha|^2 + |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"Cayley-Klein pair has norm {norm}, not 1")

    @property
    def matrix(self) -> np.ndarray:
        a, b = self.alpha, self.beta
        return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def _unit_deviation(kind: str, v: np.ndarray) -> float:
    """Largest distance of a Bloch vector's length or a spinor's squared
    norm from 1 over the rows of ``v``; NaN where a value is NaN."""
    if kind == "bloch":
        return np.abs(np.linalg.norm(v, axis=-1) - 1.0).max()
    return np.abs(np.sum(np.abs(v) ** 2, axis=-1) - 1.0).max()


@dataclass
class EnsembleState:
    """Per-grid-point state: Bloch vectors, spinors or unitary matrices."""

    grid: DispersionGrid
    kind: str  # "bloch" | "spinor" | "unitary"
    values: np.ndarray  # (grid.size, ...) flattened lexicographically

    NORM_TOL = 1e-9

    def __post_init__(self):
        v = np.asarray(self.values)
        n = self.grid.size
        if self.kind == "bloch":
            if v.shape != (n, 3):
                raise ValueError(f"bloch values must be ({n}, 3)")
            # a read-only float array, such as uniform_bloch's broadcast
            # view, is kept as given; a writable one is copied, so a caller
            # can change neither the state nor the array it gave
            if v.dtype != np.float64 or v.flags.writeable:
                v = v.astype(float)
            # a broadcast view repeats one row: check that row alone
            dev = _unit_deviation("bloch", v[:1] if v.strides[0] == 0 else v)
        elif self.kind == "spinor":
            if v.shape != (n, 2):
                raise ValueError(f"spinor values must be ({n}, 2)")
            v = v.astype(np.complex128)
            dev = _unit_deviation("spinor", v)
        elif self.kind == "unitary":
            if v.ndim != 3 or v.shape[0] != n or v.shape[1] != v.shape[2]:
                raise ValueError(f"unitary values must be ({n}, d, d)")
            v = v.astype(np.complex128)
            gram = np.einsum("nji,njk->nik", v.conj(), v)
            gram -= np.eye(v.shape[1])
            dev = np.sqrt(np.abs(np.einsum("nik,nik->n", gram, gram.conj())).max())
        else:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if not dev <= self.NORM_TOL:  # NaN fails too
            raise ValueError(f"state normalization violated by {dev:.3e}")
        self.values = v

    @classmethod
    def uniform_bloch(cls, grid: DispersionGrid, vec) -> "EnsembleState":
        """``vec`` at every point of ``grid``.  The values are a read-only
        (grid.size, 3) view of one copy of ``vec``, so they take no
        per-point memory; copy them to change a point's vector."""
        v = np.array(vec, dtype=float)
        return cls(grid, "bloch", np.broadcast_to(v, (grid.size,) + v.shape))

    @classmethod
    def uniform_spinor(cls, grid: DispersionGrid, alpha, beta) -> "EnsembleState":
        v = np.array([alpha, beta], dtype=np.complex128)
        return cls(grid, "spinor", np.tile(v, (grid.size, 1)))

    @classmethod
    def uniform_unitary(cls, grid: DispersionGrid, m) -> "EnsembleState":
        m = np.asarray(m, dtype=np.complex128)
        return cls(grid, "unitary", np.tile(m, (grid.size, 1, 1)))


@dataclass
class TargetSpec:
    """Either one constant target or a per-grid-point table of targets.

    A target holds values of its kind's shape, ``(3,)`` for a Bloch vector,
    ``(2,)`` for a spinor and ``(d, d)`` for a unitary, and its Bloch or
    spinor values are finite unit vectors within ``EnsembleState.NORM_TOL``.
    """

    kind: str  # matches the EnsembleState kinds
    constant: np.ndarray | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("bloch", "spinor", "unitary"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        v = np.asarray(self.constant if self.table is None else self.table)
        shape = v.shape if self.table is None else v.shape[1:]
        want = {"bloch": (3,), "spinor": (2,)}.get(self.kind)  # None: (d, d)
        ok = shape == want if want else len(shape) == 2 and shape[0] == shape[1]
        if not ok:
            raise ValueError(f"{self.kind} target values must be {want or '(d, d)'}, got {shape}")
        if want:
            dev = _unit_deviation(self.kind, v)
            if not dev <= EnsembleState.NORM_TOL:  # NaN and inf too
                raise ValueError(
                    f"{self.kind} target must be finite unit vectors, a norm is off by {dev:.3e}"
                )

    @classmethod
    def constant_bloch(cls, vec) -> "TargetSpec":
        return cls("bloch", constant=np.asarray(vec, dtype=float))

    @classmethod
    def constant_spinor(cls, alpha, beta) -> "TargetSpec":
        return cls("spinor", constant=np.array([alpha, beta], dtype=np.complex128))

    @classmethod
    def constant_unitary(cls, m) -> "TargetSpec":
        return cls("unitary", constant=np.asarray(m, dtype=np.complex128))

    @classmethod
    def per_point(cls, kind: str, table: np.ndarray) -> "TargetSpec":
        return cls(kind, table=np.asarray(table))

    def values_on(self, grid: DispersionGrid) -> np.ndarray:
        if self.table is not None:
            if self.table.shape[0] != grid.size:
                raise ValueError("target table does not match the grid")
            return self.table
        return np.broadcast_to(self.constant, (grid.size,) + self.constant.shape)


@dataclass
class FidelityMap:
    grid: DispersionGrid
    values: np.ndarray  # (grid.size,)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.grid.size:
            raise ValueError("fidelity values do not match the grid")
        if not np.all((v >= -1e-12) & (v <= 1 + 1e-12)):  # NaN fails too
            raise ValueError("fidelities must be finite and lie in [0, 1]")
        self.values = v

    @property
    def min(self) -> float:
        return float(self.values.min())


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def _pulse_arrays(pulse: ControlSequence):
    return (
        np.ascontiguousarray(pulse.u),
        np.ascontiguousarray(pulse.v),
        float(pulse.dt),
    )


def propagate(
    pulse: ControlSequence,
    grid: DispersionGrid,
    initial: EnsembleState,
    model: str = "exact",
) -> EnsembleState:
    """Apply the pulse at every grid point; exact per-step exponentials."""
    if initial.grid.shape != grid.shape or initial.grid.names != grid.names:
        raise ValueError("initial state is defined on a different grid")
    if model not in ("exact", "hard_pulse"):
        raise ValueError(f"unknown propagation model {model!r}")
    hard = model == "hard_pulse"
    # the single-spin plant has no coupling: a J axis would repeat its points
    for name in grid.names:
        if name not in ("omega", "epsilon", "theta"):
            raise ValueError(
                f"axis {name!r} does not act on a single spin; propagation takes omega, epsilon and theta"
            )
    u, v, dt = _pulse_arrays(pulse)
    pts = grid.points()
    omega = pts["omega"] if "omega" in pts else np.zeros(grid.size)
    eps = pts["epsilon"] if "epsilon" in pts else np.ones(grid.size)
    theta = pts.get("theta")

    if initial.kind == "bloch":
        out = kernels.bloch_propagate(u, v, dt, omega, eps, theta, initial.values, hard)
        return EnsembleState(grid, "bloch", out)
    if initial.kind == "spinor":
        al, be = kernels.spinor_propagate(
            u, v, dt, omega, eps, theta,
            initial.values[:, 0], initial.values[:, 1], hard,
        )
        return EnsembleState(grid, "spinor", np.column_stack([al, be]))
    if initial.kind == "unitary":
        if initial.values.shape[1] != 2:
            raise ValueError("only 2x2 unitaries can be propagated by a ControlSequence")
        al, be = kernels.spinor_propagate(u, v, dt, omega, eps, theta, 1.0, 0.0, hard)
        rows = kernels.su2_apply(al[:, None], be[:, None], initial.values[:, 0], initial.values[:, 1])
        return EnsembleState(grid, "unitary", np.stack(rows, axis=1))
    raise ValueError(f"unknown state kind {initial.kind!r}")


def net_su2(
    pulse: ControlSequence,
    omega: float = 0.0,
    epsilon: float = 1.0,
    theta: float | None = None,
    model: str = "exact",
) -> SU2Element:
    """Net SU(2) propagator of the whole pulse at one parameter point."""
    u, v, dt = _pulse_arrays(pulse)
    th = None if theta is None else np.array([float(theta)])
    al, be = kernels.spinor_propagate(
        u, v, dt, np.array([float(omega)]), np.array([float(epsilon)]), th,
        np.array([1.0 + 0j]), np.array([0.0 + 0j]), model == "hard_pulse",
    )
    return SU2Element(complex(al[0]), complex(be[0]))


def net_rotation(
    pulse: ControlSequence,
    omega: float = 0.0,
    epsilon: float = 1.0,
    theta: float | None = None,
    model: str = "exact",
) -> np.ndarray:
    """Net SO(3) rotation of the whole pulse at one parameter point."""
    u, v, dt = _pulse_arrays(pulse)
    th = None if theta is None else np.array([float(theta)])
    return kernels.rotation_propagate(
        u, v, dt, np.array([float(omega)]), np.array([float(epsilon)]), th,
        model == "hard_pulse",
    )[0]


# ---------------------------------------------------------------------------
# fidelities
# ---------------------------------------------------------------------------


def _pointwise_fidelity(kind: str, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    if kind == "bloch":
        return 0.5 * (1.0 + np.sum(values * targets, axis=1))
    if kind == "spinor":
        return np.abs(np.sum(np.conj(targets) * values, axis=1)) ** 2
    d = values.shape[1]  # unitary
    return np.abs(np.einsum("nij,nij->n", np.conj(targets), values)) / d


def fidelity_map(
    pulse: ControlSequence,
    grid: DispersionGrid,
    target: TargetSpec,
    initial: EnsembleState | None = None,
    model: str = "exact",
) -> FidelityMap:
    """Simulate the pulse and score it against the target per grid point."""
    if initial is None:
        if target.kind == "bloch":
            initial = EnsembleState.uniform_bloch(grid, (0.0, 0.0, 1.0))
        elif target.kind == "spinor":
            initial = EnsembleState.uniform_spinor(grid, 1.0, 0.0)
        else:
            initial = EnsembleState.uniform_unitary(grid, np.eye(2))
    return fidelity_of_states(propagate(pulse, grid, initial, model=model), target)


def fidelity_of_states(final: EnsembleState, target: TargetSpec) -> FidelityMap:
    """Fidelity map for an already-computed ensemble state."""
    if target.kind != final.kind:
        raise ValueError("state and target kinds differ")
    targets = target.values_on(final.grid)
    return FidelityMap(final.grid, _pointwise_fidelity(final.kind, final.values, targets))


# ---------------------------------------------------------------------------
# phase-dispersion frame law
# ---------------------------------------------------------------------------


def phase_frame_check(pulse: ControlSequence, grid: DispersionGrid) -> float:
    """Max deviation of the rf-phase frame law over the grid.

    All members start on the z axis.  For every (omega, epsilon) and every
    theta on the grid, rotating the final Bloch vector back by theta about
    z must land exactly on the theta=0 trajectory's endpoint; the returned
    maximum is ~1e-15 for any pulse, which is the executable witness that
    a pure rf-phase dispersion is invisible up to that fixed frame change.
    """
    if "theta" not in grid.axes:
        raise ValueError("grid must carry a theta axis")
    base_axes = {k: v for k, v in grid.axes.items() if k != "theta"}
    if not base_axes:
        base_axes = {"epsilon": np.array([1.0])}
    base_grid = DispersionGrid(base_axes)
    start = EnsembleState.uniform_bloch(base_grid, (0.0, 0.0, 1.0))
    reference = propagate(pulse, base_grid, start).values

    full = propagate(
        pulse, grid, EnsembleState.uniform_bloch(grid, (0.0, 0.0, 1.0))
    ).values.reshape(grid.shape + (3,))

    theta_axis = grid.names.index("theta")
    thetas = grid.axes["theta"]
    worst = 0.0
    moved = np.moveaxis(full, theta_axis, 0)
    for it, theta in enumerate(thetas):
        ct, st = np.cos(-theta), np.sin(-theta)
        frame = np.array([[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]])
        slice_vals = moved[it].reshape(-1, 3)
        back = slice_vals @ frame.T
        worst = max(worst, float(np.linalg.norm(back - reference, axis=1).max()))
    return worst
