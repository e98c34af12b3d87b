"""Matrix and vector-field Lie brackets with dispersion-parameter bookkeeping.

The central question this module answers: starting from control directions
whose strengths carry unknown ensemble parameters (rf scale ``eps``, offset
``omega``, coupling ``J``, ...), which directions can iterated bracketing
reach, and which *functions of the parameters* ride along on each direction?
A direction that only ever carries odd powers of ``eps`` can only realize
odd functions of ``eps`` — that is the obstruction theory behind
compensating pulse design, and :func:`lie_closure` + :func:`approximable`
make it executable.

Matrix directions use the real trace inner product ``Re tr(A^H B)`` so that
real so(3) and complex su(2)/su(4) are handled uniformly.  Trigonometric
parameter dependence is handled in sampled mode rather than by symbolic
rewriting: a :class:`SampledElement` is its table of matrices on a
parameter grid, and a bracket is the pointwise commutator of two tables.
A sampled bracket whose table norm is at most ``1e-12 |a| |b|`` is the
roundoff of an identical cancellation and counts as zero, as a symbolic
bracket whose monomials cancel does.  Both matrix modes feed the closure
the same thing, a stack of matrices (monomial coefficients or grid-point
values); only the functions recorded per direction differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "GeneratorMatrix",
    "DispersionMonomial",
    "DispersionPolyElement",
    "SampledElement",
    "PolyVectorField",
    "ClosureReport",
    "Nilpotency",
    "FitResult",
    "bracket",
    "bracket_poly",
    "ad_power",
    "vf_bracket",
    "lie_closure",
    "reachable_functions",
    "approximable",
    "evaluate_monomials",
    "so3_generators",
    "su2_generators",
    "pauli",
    "two_qubit_coupling_generators",
]

SPAN_TOL = 1e-10  # orthogonal-residual threshold for accepting a new direction

# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorMatrix:
    """A named square generator, optionally checked for skew-Hermiticity."""

    label: str
    entries: np.ndarray
    rotation: bool = False

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"generator {self.label!r} must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"generator {self.label!r} has non-finite entries")
        if self.rotation:
            skew = np.linalg.norm(m + m.conj().T)
            if skew > 1e-12 * max(np.linalg.norm(m), 1.0):
                raise ValueError(f"generator {self.label!r} is not skew-Hermitian")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def so3_generators() -> dict[str, GeneratorMatrix]:
    """Rotation generators with Oz @ ex = ey (right-handed)."""
    ox = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    oy = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=float)
    oz = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    return {
        "x": GeneratorMatrix("Ox", ox, rotation=True),
        "y": GeneratorMatrix("Oy", oy, rotation=True),
        "z": GeneratorMatrix("Oz", oz, rotation=True),
    }


def pauli(name: str) -> np.ndarray:
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if name == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    if name == "z":
        return np.array([[1, 0], [0, -1]], dtype=np.complex128)
    if name == "i":
        return np.eye(2, dtype=np.complex128)
    raise ValueError(f"unknown Pauli label {name!r}")


def su2_generators() -> dict[str, GeneratorMatrix]:
    """Half-angle rotation generators -(i/2) sigma_a."""
    return {
        a: GeneratorMatrix(f"-(i/2)s{a}", -0.5j * pauli(a), rotation=True)
        for a in ("x", "y", "z")
    }


def two_qubit_coupling_generators() -> dict[str, GeneratorMatrix]:
    """Coupled-qubit pair b1 = -2i sy(x)sz and b2 = -2i sz(x)sz."""
    b1 = -2j * np.kron(pauli("y"), pauli("z"))
    b2 = -2j * np.kron(pauli("z"), pauli("z"))
    return {
        "b1": GeneratorMatrix("b1", b1, rotation=True),
        "b2": GeneratorMatrix("b2", b2, rotation=True),
    }


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, GeneratorMatrix):
        return a.entries
    return np.asarray(a, dtype=np.complex128)


def bracket(a, b) -> GeneratorMatrix:
    """Matrix commutator [a, b] = ab - ba."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    la = a.label if isinstance(a, GeneratorMatrix) else "A"
    lb = b.label if isinstance(b, GeneratorMatrix) else "B"
    return GeneratorMatrix(f"[{la},{lb}]", ma @ mb - mb @ ma)


# ---------------------------------------------------------------------------
# dispersion-polynomial elements (symbolic in parameters, matrix-valued)
# ---------------------------------------------------------------------------


def _canon_exponents(exponents: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    items = tuple(sorted((k, int(v)) for k, v in exponents.items() if int(v) != 0))
    if any(v < 0 for _, v in items):
        raise ValueError("exponents must be nonnegative")
    return items


@dataclass(frozen=True)
class DispersionMonomial:
    """One matrix direction scaled by a monomial in named parameters."""

    exponents: tuple[tuple[str, int], ...]
    coeff: np.ndarray

    @classmethod
    def make(cls, exponents: Mapping[str, int], coeff) -> "DispersionMonomial":
        return cls(_canon_exponents(exponents), _as_matrix(coeff))

    def exponent_dict(self) -> dict[str, int]:
        return dict(self.exponents)


@dataclass(frozen=True)
class DispersionPolyElement:
    """A sum of dispersion monomials, kept in canonical merged form."""

    monomials: tuple[DispersionMonomial, ...]

    @classmethod
    def make(cls, terms: Iterable[tuple[Mapping[str, int], object]]) -> "DispersionPolyElement":
        mons = [DispersionMonomial.make(e, c) for e, c in terms]
        return cls(_merge_monomials(mons))

    @classmethod
    def single(cls, exponents: Mapping[str, int], coeff) -> "DispersionPolyElement":
        return cls.make([(exponents, coeff)])

    @property
    def dim(self) -> int:
        if not self.monomials:
            raise ValueError("empty element has no dimension")
        return self.monomials[0].coeff.shape[0]

    def is_zero(self) -> bool:
        return len(self.monomials) == 0

    def evaluate(self, params: Mapping[str, float]) -> np.ndarray:
        """Sum the monomials at a concrete parameter point."""
        if not self.monomials:
            raise ValueError("cannot evaluate an identically zero element")
        total = np.zeros_like(self.monomials[0].coeff)
        for mon in self.monomials:
            scale = 1.0
            for name, exp in mon.exponents:
                scale *= params[name] ** exp
            total = total + scale * mon.coeff
        return total

    def scaled(self, factor: float) -> "DispersionPolyElement":
        return DispersionPolyElement(
            _merge_monomials(
                [DispersionMonomial(m.exponents, factor * m.coeff) for m in self.monomials]
            )
        )


def _merge_monomials(mons: Sequence[DispersionMonomial]) -> tuple[DispersionMonomial, ...]:
    by_key: dict[tuple, np.ndarray] = {}
    for mon in mons:
        key = mon.exponents
        if key in by_key:
            by_key[key] = by_key[key] + mon.coeff
        else:
            by_key[key] = mon.coeff.copy()
    out = []
    for key in sorted(by_key):
        coeff = by_key[key]
        if np.linalg.norm(coeff) > 0.0:
            out.append(DispersionMonomial(key, coeff))
    return tuple(out)


def bracket_poly(a: DispersionPolyElement, b: DispersionPolyElement) -> DispersionPolyElement:
    """Bracket two elements; exponent maps of paired monomials add."""
    if a.is_zero() or b.is_zero():
        return DispersionPolyElement(())
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    terms = []
    for ma in a.monomials:
        for mb in b.monomials:
            exps: dict[str, int] = dict(ma.exponents)
            for name, e in mb.exponents:
                exps[name] = exps.get(name, 0) + e
            comm = ma.coeff @ mb.coeff - mb.coeff @ ma.coeff
            terms.append(DispersionMonomial.make(exps, comm))
    return DispersionPolyElement(_merge_monomials(terms))


def ad_power(x: DispersionPolyElement, y: DispersionPolyElement, k: int) -> DispersionPolyElement:
    """k-fold nested bracket [x, [x, ... [x, y]]]."""
    out = y
    for _ in range(k):
        out = bracket_poly(x, out)
    return out


# ---------------------------------------------------------------------------
# sampled elements (parameter dependence known only pointwise on a grid)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledElement:
    """A matrix-valued function of the parameters, tabulated on a fixed grid.

    Used when the parameter dependence is non-polynomial (trigonometric
    phase dispersion, say).  ``values[k]`` is the element's matrix at grid
    point k, so brackets are pointwise commutators of the tables.
    """

    values: np.ndarray  # (npoints, dim, dim)

    @classmethod
    def make(cls, pairs: Iterable[tuple[np.ndarray, object]]) -> "SampledElement":
        """Sum (samples, matrix) terms into one table."""
        terms = [(np.asarray(s, dtype=float).ravel(), _as_matrix(m)) for s, m in pairs]
        if not terms:
            raise ValueError("at least one term required")
        if len({s.size for s, _ in terms}) != 1:
            raise ValueError("sample arrays must share the grid size")
        if len({m.shape for _, m in terms}) != 1:
            raise ValueError("term matrices must share one shape")
        return cls(sum(s[:, None, None] * m for s, m in terms))

    @property
    def npoints(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def is_zero(self) -> bool:
        return not self.values.any()


def _bracket_sampled(a: SampledElement, b: SampledElement) -> SampledElement:
    """Pointwise commutator; a table within roundoff of cancelling is zero.

    A bracket that cancels identically, such as [b, b], leaves only
    roundoff of size eps*|a|*|b| in the table.  Anything at most
    ``1e-12 |a| |b|`` is therefore exactly zero, as symbolic mode's merged
    monomials already are.
    """
    if a.npoints != b.npoints:
        raise ValueError("sampled elements live on different grids")
    c = a.values @ b.values - b.values @ a.values
    if np.linalg.norm(c) <= 1e-12 * np.linalg.norm(a.values) * np.linalg.norm(b.values):
        c = np.zeros_like(c)
    return SampledElement(c)


# ---------------------------------------------------------------------------
# polynomial vector fields
# ---------------------------------------------------------------------------

Poly = dict  # monomial exponent tuple -> float coefficient


def _poly_canon(p: Poly) -> Poly:
    return {k: v for k, v in p.items() if v != 0.0}


def _poly_add(p: Poly, q: Poly, sign=1.0) -> Poly:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0.0) + sign * v
    return _poly_canon(out)


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return _poly_canon(out)


def _poly_diff(p: Poly, j: int) -> Poly:
    out: Poly = {}
    for k, v in p.items():
        if k[j] > 0:
            key = k[:j] + (k[j] - 1,) + k[j + 1 :]
            out[key] = out.get(key, 0.0) + v * k[j]
    return _poly_canon(out)


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field on R^nvars with polynomial components.

    Components map exponent tuples to real coefficients, e.g. the planar
    field (1, -x2) on variables (x1, x2) is
    ``make(2, [{(0, 0): 1.0}, {(0, 1): -1.0}])``.
    """

    nvars: int
    components: tuple[Poly, ...]

    @classmethod
    def make(cls, nvars: int, components: Sequence[Mapping[tuple, float]]) -> "PolyVectorField":
        if len(components) != nvars:
            raise ValueError("component count must equal nvars")
        comps = []
        for comp in components:
            canon: Poly = {}
            for key, val in comp.items():
                key = tuple(int(e) for e in key)
                if len(key) != nvars:
                    raise ValueError("monomial keys need one exponent per variable")
                if val != 0.0:
                    canon[key] = canon.get(key, 0.0) + float(val)
            comps.append(_poly_canon(canon))
        return cls(nvars, tuple(comps))

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.nvars)
        for i, comp in enumerate(self.components):
            for key, val in comp.items():
                out[i] += val * np.prod(x ** np.array(key))
        return out

    def is_zero(self) -> bool:
        return all(len(c) == 0 for c in self.components)


def vf_bracket(f: PolyVectorField, g: PolyVectorField) -> PolyVectorField:
    """Vector-field bracket [f, g] = (Dg) f - (Df) g, exact in coefficients."""
    if f.nvars != g.nvars:
        raise ValueError(f"nvars mismatch: {f.nvars} vs {g.nvars}")
    n = f.nvars
    comps = []
    for i in range(n):
        acc: Poly = {}
        for j in range(n):
            acc = _poly_add(acc, _poly_mul(_poly_diff(g.components[i], j), f.components[j]))
            acc = _poly_add(
                acc, _poly_mul(_poly_diff(f.components[i], j), g.components[j]), sign=-1.0
            )
        comps.append(acc)
    return PolyVectorField(n, tuple(comps))


# ---------------------------------------------------------------------------
# span helpers
# ---------------------------------------------------------------------------


class _MatrixSpan:
    """Orthonormal span under Re tr(A^H B).

    A complex d x d matrix is the real vector of its 2d^2 interleaved real
    and imaginary parts.  ``_q`` holds the basis as rows of such vectors,
    ``basis`` the same directions as matrices.
    """

    def __init__(self, basis=()):
        self.basis = [np.asarray(b, dtype=np.complex128) for b in basis]
        self._q = self._vec(self.basis) if self.basis else None

    @staticmethod
    def _vec(stack) -> np.ndarray:
        stack = np.ascontiguousarray(stack, dtype=np.complex128)
        return stack.reshape(len(stack), -1).view(np.float64)

    def _residual(self, v: np.ndarray) -> np.ndarray:
        return v - (v @ self._q.T) @ self._q

    def coords(self, stack) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of each matrix of ``stack`` and the norm of what lies outside."""
        v = self._vec(stack)
        c = v @ self._q.T
        return c, np.linalg.norm(v - c @ self._q, axis=1)

    def add(self, stack, tol: float = SPAN_TOL) -> int:
        """Append, in order, each matrix of ``stack`` that leaves the span.

        Returns how many directions were added.  A matrix counts as inside
        when its residual is at most ``tol`` times its norm.
        """
        v = self._vec(stack)
        if self._q is None:
            self._q = v[:0]
        norms = np.linalg.norm(v, axis=1)
        added = 0
        while True:
            # classical Gram-Schmidt, projected twice to stay orthogonal
            v = self._residual(self._residual(v))
            outside = np.flatnonzero(np.linalg.norm(v, axis=1) > tol * norms)
            if outside.size == 0:
                return added
            q = v[outside[0]] / np.linalg.norm(v[outside[0]])
            self._q = np.vstack([self._q, q])
            self.basis.append(q.view(np.complex128).reshape(np.shape(stack)[1:]))
            added += 1

    @property
    def elements(self):
        return self.basis


class _VfSpan:
    """Linearly independent vector fields over a monomial registry."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.keys: dict[tuple[int, tuple], int] = {}  # (component, monomial) -> coordinate
        self.fields: list[PolyVectorField] = []

    def _vec(self, f: PolyVectorField) -> np.ndarray:
        entries = [
            (self.keys.setdefault((i, key), len(self.keys)), val)
            for i, comp in enumerate(f.components)
            for key, val in comp.items()
        ]
        v = np.zeros(len(self.keys))
        for j, val in entries:
            v[j] = val
        return v

    def add(self, fields: Iterable[PolyVectorField], tol: float = SPAN_TOL) -> int:
        """Append each field outside the span, in order; return how many."""
        added = 0
        for f in fields:
            if f.is_zero():
                continue
            v = self._vec(f)
            resid = v
            if self.fields:
                mat = np.array([self._vec(g) for g in self.fields]).T
                coords, *_ = np.linalg.lstsq(mat, v, rcond=None)
                resid = v - mat @ coords
            if np.linalg.norm(resid) > tol * np.linalg.norm(v):
                self.fields.append(f)
                added += 1
        return added

    @property
    def elements(self):
        return self.fields


def _commutators(algebra, current) -> np.ndarray:
    """All [a, c] for a in ``algebra`` and c in ``current``, a-major, as one stack."""
    a = np.asarray(algebra)[:, None]
    c = np.asarray(current)[None]
    return (a @ c - c @ a).reshape((-1,) + a.shape[-2:])


def _vf_brackets(algebra, current) -> list[PolyVectorField]:
    return [vf_bracket(a, c) for a in algebra for c in current]


# ---------------------------------------------------------------------------
# closure, nilpotency, reachable functions
# ---------------------------------------------------------------------------


@dataclass
class Nilpotency:
    verdict: str  # "nilpotent" | "not_nilpotent" | "undecided_at_bound"
    step: int | None = None

    def __str__(self):
        if self.verdict == "nilpotent":
            return f"nilpotent(step {self.step})"
        return self.verdict


@dataclass
class ClosureReport:
    """Result of breadth-first bracket generation.

    ``basis`` holds the orthonormal matrix directions (or independent
    vector fields in vf mode).  ``per_direction_functions`` is aligned
    with it: symbolic mode gives a sorted list of exponent dicts per
    direction, sampled mode an array of stacked coordinate functions.
    """

    mode: str  # "symbolic" | "sampled" | "vector_field"
    basis: list
    per_direction_functions: list
    depth_reached: int
    nilpotency: Nilpotency


def _lower_central_series(algebra, brackets, make_span, max_depth: int) -> Nilpotency:
    """Walk the lower central series of the algebra spanned by ``algebra``."""
    current = algebra
    for step in range(1, max_depth + 1):
        sub = make_span()
        sub.add(brackets(algebra, current))
        nxt = sub.elements
        if not nxt:
            return Nilpotency("nilpotent", step)
        if len(nxt) >= len(current):
            # each series term sits inside the previous one, so equal
            # dimension means the series has stalled above zero
            return Nilpotency("not_nilpotent")
        current = nxt
    return Nilpotency("undecided_at_bound")


def lie_closure(gens: Sequence, max_depth: int = 8) -> ClosureReport:
    """Breadth-first bracket closure with per-direction function tracking.

    Accepts a homogeneous list of :class:`DispersionPolyElement` (symbolic
    mode), :class:`SampledElement` (sampled mode) or
    :class:`PolyVectorField` (vector-field mode; nilpotency only).
    ``max_depth`` bounds the bracket word length; nilpotency is decided
    only up to that bound and reports ``undecided_at_bound`` otherwise.
    """
    if not gens:
        raise ValueError("need at least one generator")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    if isinstance(gens[0], PolyVectorField):
        return _closure(list(gens), max_depth, "vector_field", vf_bracket, _VfSpan(gens[0].nvars))
    if isinstance(gens[0], SampledElement):
        return _closure(list(gens), max_depth, "sampled", _bracket_sampled, _MatrixSpan())
    converted = []
    for g in gens:
        if isinstance(g, GeneratorMatrix):
            converted.append(DispersionPolyElement.single({}, g))
        elif isinstance(g, DispersionPolyElement):
            converted.append(g)
        else:
            raise TypeError(f"unsupported generator type {type(g)!r}")
    return _closure(converted, max_depth, "symbolic", bracket_poly, _MatrixSpan())


def _closure(gens, max_depth: int, mode: str, brk, span) -> ClosureReport:
    sampled = mode == "sampled"
    # aligned with span.basis in the matrix modes: the exponent keys
    # (symbolic) or coordinate tables (sampled) seen along each direction
    functions: list = []

    def record(elem) -> bool:
        """Add ``elem`` to the span and to the function bookkeeping; True if either grew."""
        if mode == "vector_field":
            return span.add([elem]) > 0
        # a matrix element is a stack of matrices: one per monomial in
        # symbolic mode, one per grid point in sampled mode
        stack = elem.values if sampled else np.array([m.coeff for m in elem.monomials])
        new = span.add(stack)
        functions.extend(([] if sampled else set()) for _ in range(new))
        coords, _ = span.coords(stack)
        before = sum(map(len, functions))
        if sampled:
            # the coordinate function of the whole element along each direction
            live = np.linalg.norm(coords, axis=0) > 1e-12 * np.linalg.norm(stack)
            for i in np.flatnonzero(live):
                functions[i].append(coords[:, i])
        else:
            scale = np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1.0)
            for j, i in zip(*np.nonzero(np.abs(coords) > 1e-12 * scale[:, None])):
                functions[i].add(elem.monomials[j].exponents)
        return new > 0 or sum(map(len, functions)) > before

    level = [g for g in gens if not g.is_zero()]
    if not level and mode != "vector_field":
        raise ValueError("all generators are zero")
    for g in level:
        record(g)
    depth_reached = 1
    for depth in range(2, max_depth + 1):
        level = [c for c in (brk(g, e) for g in gens for e in level) if not c.is_zero()]
        grew = [record(c) for c in level]
        depth_reached = depth
        # a sampled element always adds a coordinate table, so only the
        # other modes can stop before the level dies out
        if not any(grew):
            break

    if mode == "vector_field":
        nilp = _lower_central_series(
            span.elements, _vf_brackets, lambda: _VfSpan(span.nvars), max_depth
        )
        per_dir = [None] * len(span.elements)
    elif sampled:
        nilp = _lower_central_series(span.elements, _commutators, _MatrixSpan, max_depth)
        per_dir = [np.array(f) if f else np.zeros((0, gens[0].npoints)) for f in functions]
    else:
        nilp = _lower_central_series(span.elements, _commutators, _MatrixSpan, max_depth)
        per_dir = [
            sorted((dict(e) for e in f), key=lambda d: sorted(d.items())) if f else []
            for f in functions
        ]
    return ClosureReport(
        mode=mode,
        basis=list(span.elements),
        per_direction_functions=per_dir,
        depth_reached=depth_reached,
        nilpotency=nilp,
    )


def reachable_functions(report: ClosureReport, direction) -> list | np.ndarray:
    """Project a matrix direction onto the closure and collect its functions.

    Raises ``ValueError`` when the direction is not inside the closure span.
    """
    if report.mode == "vector_field":
        raise ValueError("function bookkeeping is not available in vector-field mode")
    m = _as_matrix(direction)[None]
    coords, res = _MatrixSpan(report.basis).coords(m)
    norm = np.linalg.norm(m)
    if norm == 0.0 or res[0] > 1e-8 * norm:
        raise ValueError("direction lies outside the closure span")
    hit = np.flatnonzero(np.abs(coords[0]) > 1e-10 * norm)
    if report.mode == "symbolic":
        merged: list[dict] = []
        seen = set()
        for i in hit:
            for expd in report.per_direction_functions[i]:
                key = tuple(sorted(expd.items()))
                if key not in seen:
                    seen.add(key)
                    merged.append(dict(expd))
        return sorted(merged, key=lambda d: sorted(d.items()))
    rows = [report.per_direction_functions[i] for i in hit if len(report.per_direction_functions[i])]
    if not rows:
        return np.zeros((0, 0))
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# least-squares approximability
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    coefficients: np.ndarray
    l2_residual: float
    max_residual: float
    achievable: bool


def evaluate_monomials(
    exponent_dicts: Sequence[Mapping[str, int]], params: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Tabulate monomial functions on a parameter grid, one row per monomial."""
    sizes = {np.asarray(v).size for v in params.values()}
    if len(sizes) != 1:
        raise ValueError("parameter arrays must share a common length")
    npoints = sizes.pop()
    rows = []
    for expd in exponent_dicts:
        row = np.ones(npoints)
        for name, e in expd.items():
            row = row * np.asarray(params[name], dtype=float) ** int(e)
        rows.append(row)
    return np.array(rows)


def approximable(target: np.ndarray, family: np.ndarray, tol: float) -> FitResult:
    """Least-squares fit of ``target`` by rows of ``family`` on a shared grid.

    The verdict is ``achievable`` iff the max pointwise residual is within
    ``tol``.
    """
    target = np.asarray(target, dtype=float)
    family = np.atleast_2d(np.asarray(family, dtype=float))
    if target.size == 0:
        raise ValueError("empty grid")
    if family.shape[0] == 0 or family.shape[1] != target.size:
        raise ValueError("family must be a (nfuncs, npoints) array matching the target")
    if np.linalg.matrix_rank(family) == 0:
        raise ValueError("degenerate family: rank zero on the grid")
    coeffs, *_ = np.linalg.lstsq(family.T, target, rcond=None)
    resid = target - family.T @ coeffs
    l2 = float(np.linalg.norm(resid))
    mx = float(np.max(np.abs(resid)))
    return FitResult(coeffs, l2, mx, mx <= tol)
