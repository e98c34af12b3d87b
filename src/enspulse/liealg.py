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
bracket whose monomials cancel does.  One span of real row vectors holds
the recorded elements, the directions of every mode and, in sampled mode,
each direction's coordinate tables.  The closure stops at the first depth
whose brackets all lie in the span of the elements recorded before: by
bilinearity no later depth can add anything then.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
    "bracket_poly",
    "ad_power",
    "vf_bracket",
    "lie_closure",
    "reachable_functions",
    "approximable",
    "evaluate_monomials",
    "so3_generators",
    "pauli",
    "expm_skew",
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


def expm_skew(g) -> np.ndarray:
    """``exp(G)`` of a skew-Hermitian ``G``, or of each matrix of a stack ``(..., d, d)``.

    With the Hermitian ``iG = V diag(lam) V^H`` from one batched ``eigh``,
    ``exp(G) = V diag(e^(-i lam)) V^H``: unitary to roundoff, and the
    reliable route for normal matrices.  Real input gives a real result.
    """
    g = np.asarray(g)
    lam, vec = np.linalg.eigh(1j * g)
    out = (vec * np.exp(-1j * lam)[..., None, :]) @ np.swapaxes(vec.conj(), -1, -2)
    return out.real if np.isrealobj(g) else out


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

    def evaluate(self, params: Mapping[str, float | np.ndarray]) -> np.ndarray:
        """Sum the monomials at one parameter point, ``(d, d)``, or over
        equal-length parameter arrays, ``(npoints, d, d)``."""
        if not self.monomials:
            raise ValueError("cannot evaluate an identically zero element")
        table = evaluate_monomials([mon.exponent_dict() for mon in self.monomials], params)
        total = sum(row[:, None, None] * mon.coeff for row, mon in zip(table, self.monomials))
        return total if any(np.ndim(v) for v in params.values()) else total[0]


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


class _Span:
    """Orthonormal span of real row vectors, grown by two-pass Gram-Schmidt.

    ``q`` holds the basis as rows.  A row longer than ``q`` comes from a
    coordinate registry that has grown since (the vector-field monomials):
    the basis rows are zero on the new coordinates, so ``q`` is widened with
    zero columns.  Norms are formed as :func:`numpy.linalg.norm` forms them,
    ``sqrt(add.reduce(v * v, axis=1))`` for rows and ``sqrt(row.dot(row))``
    for one row, so they are its values bit for bit without its per-call
    dispatch.
    """

    def __init__(self, q=None):
        self.q = np.zeros((0, 0)) if q is None else q

    def _widen(self, v) -> np.ndarray:
        v = np.atleast_2d(np.asarray(v, dtype=float))
        if v.shape[1] > self.q.shape[1]:
            zeros = np.zeros((len(self.q), v.shape[1] - self.q.shape[1]))
            self.q = np.concatenate([self.q, zeros], axis=1)
        return v

    def _residual(self, v: np.ndarray) -> np.ndarray:
        return v - (v @ self.q.T) @ self.q

    def __len__(self) -> int:
        return len(self.q)

    def coords(self, v) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of each row of ``v`` and the norm of what lies outside."""
        v = self._widen(v)
        c = v @ self.q.T
        return c, _row_norms(v - c @ self.q)

    def add(self, v, tol: float = SPAN_TOL) -> list[int]:
        """Append, in order, each row of ``v`` that leaves the span.

        Returns the indices of the rows that were added.  A row counts as
        inside when its residual is at most ``tol`` times its norm.
        """
        v = self._widen(v)
        norms = _row_norms(v)
        added = []
        while True:
            # classical Gram-Schmidt, projected twice to stay orthogonal
            v = self._residual(self._residual(v))
            outside = np.flatnonzero(_row_norms(v) > tol * norms)
            if outside.size == 0:
                return added
            i = int(outside[0])
            self.q = np.vstack([self.q, v[i] / np.sqrt(v[i].dot(v[i]))])
            added.append(i)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a real 2-d ``v``."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _matrix_rows(stack) -> np.ndarray:
    """Complex d x d matrices as real rows of their 2d^2 interleaved real and imaginary parts.

    The dot product of two rows is Re tr(A^H B).
    """
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    return stack.reshape(len(stack), -1).view(np.float64)


def _field_rows(registry: dict, fields: Sequence[PolyVectorField]) -> np.ndarray:
    """Vector fields as real rows of coefficients over a growing monomial registry.

    ``registry`` maps (component, monomial) to a coordinate and gains the
    monomials it has not seen yet.
    """
    entries = [
        [
            (registry.setdefault((i, key), len(registry)), val)
            for i, comp in enumerate(f.components)
            for key, val in comp.items()
        ]
        for f in fields
    ]
    rows = np.zeros((len(fields), len(registry)))
    for row, ent in zip(rows, entries):
        for j, val in ent:
            row[j] = val
    return rows


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
    direction, sampled mode an orthonormal basis of the direction's
    coordinate tables, one per row, whose length is its function rank.
    ``depth_reached`` is the first depth whose brackets all lie in the span
    of the elements recorded before, or ``max_depth``.
    """

    mode: str  # "symbolic" | "sampled" | "vector_field"
    basis: list
    per_direction_functions: list
    depth_reached: int
    nilpotency: Nilpotency


def _lower_central_series(algebra, brackets, rows, max_depth: int) -> Nilpotency:
    """Walk the lower central series of the algebra spanned by ``algebra``.

    ``brackets(algebra, current)`` lists the brackets that span the next
    series term, and ``rows`` turns them into real row vectors.
    """
    current = algebra
    for step in range(1, max_depth + 1):
        candidates = brackets(algebra, current)
        nxt = [candidates[i] for i in _Span().add(rows(candidates))]
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
        return _closure(list(gens), max_depth, "vector_field", vf_bracket)
    if isinstance(gens[0], SampledElement):
        return _closure(list(gens), max_depth, "sampled", _bracket_sampled)
    converted = []
    for g in gens:
        if isinstance(g, GeneratorMatrix):
            converted.append(DispersionPolyElement.single({}, g))
        elif isinstance(g, DispersionPolyElement):
            converted.append(g)
        else:
            raise TypeError(f"unsupported generator type {type(g)!r}")
    return _closure(converted, max_depth, "symbolic", bracket_poly)


def _closure(gens, max_depth: int, mode: str, brk) -> ClosureReport:
    # every element recorded so far, one row each.  Each level brackets the
    # generators with the elements of the level before that grew this span:
    # by bilinearity the others' brackets lie in the span of brackets taken
    # already, and once a level adds nothing no later level can.
    elements = _Span()
    field_rows = partial(_field_rows, {})  # one monomial registry per closure
    fields: list = []  # vector-field mode: the elements that grew the span
    keys: dict = {}  # symbolic mode: exponent key -> its block of an element row
    sampled = mode == "sampled"
    span = _Span()  # the matrix directions
    # aligned with the directions: the exponent keys (symbolic) or the span
    # of coordinate tables (sampled) seen along each direction
    functions: list = []

    def record(level) -> list:
        """Add a level to the spans and to the function bookkeeping; return its new elements."""
        if mode == "vector_field":
            new = [level[i] for i in elements.add(field_rows(level))]
            fields.extend(new)
            return new
        # the level as one stack of matrices, one per grid point of each
        # element (sampled) or per monomial (symbolic), and one row per element
        if sampled:
            rows = _matrix_rows(np.concatenate([e.values for e in level]))
            elem_rows = rows.reshape(len(level), -1)  # the element's whole table
        else:
            mons = [m for e in level for m in e.monomials]
            rows = _matrix_rows([m.coeff for m in mons])
            # the element's monomial rows, one block per exponent key
            cols = [keys.setdefault(m.exponents, len(keys)) for m in mons]
            owner = np.repeat(np.arange(len(level)), [len(e.monomials) for e in level])
            elem_rows = np.zeros((len(level), len(keys), rows.shape[1]))
            elem_rows[owner, cols] = rows
            elem_rows = elem_rows.reshape(len(level), -1)
        added = elements.add(elem_rows)
        for _ in span.add(rows):
            functions.append(_Span(np.zeros((0, level[0].npoints))) if sampled else set())
        coords, _ = span.coords(rows)
        if sampled:
            # the coordinate function of each whole element along each direction
            coords = coords.reshape(len(level), -1, len(span))
            norms = np.linalg.norm(elem_rows, axis=1)
            live = np.linalg.norm(coords, axis=1) > 1e-12 * norms[:, None]
            for k, i in np.argwhere(live):
                functions[i].add(coords[k, :, i])
        else:
            scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
            for j, i in zip(*np.nonzero(np.abs(coords) > 1e-12 * scale[:, None])):
                functions[i].add(mons[j].exponents)
        return [level[i] for i in added]

    level = [g for g in gens if not g.is_zero()]
    if not level and mode != "vector_field":
        raise ValueError("all generators are zero")
    level = record(level)
    depth_reached = 1
    for depth in range(2, max_depth + 1):
        level = [c for c in (brk(g, e) for g in gens for e in level) if not c.is_zero()]
        depth_reached = depth
        level = record(level) if level else []
        if not level:
            break

    if mode == "vector_field":
        nilp = _lower_central_series(fields, _vf_brackets, field_rows, max_depth)
        return ClosureReport(mode, fields, [None] * len(fields), depth_reached, nilp)
    d = next(g for g in gens if not g.is_zero()).dim
    basis = list(span.q.view(np.complex128).reshape(-1, d, d))
    nilp = _lower_central_series(basis, _commutators, _matrix_rows, max_depth)
    if sampled:
        per_dir = [f.q for f in functions]
    else:
        per_dir = [[dict(e) for e in sorted(f)] for f in functions]
    return ClosureReport(mode, basis, per_dir, depth_reached, nilp)


def reachable_functions(report: ClosureReport, direction) -> list | np.ndarray:
    """Project a matrix direction onto the closure and collect its functions.

    Symbolic mode returns the merged exponent dicts of the directions the
    projection hits; sampled mode an orthonormal basis, one grid table per
    row, of the union of their functions.  Raises ``ValueError`` when the
    direction is not inside the closure span.
    """
    if report.mode == "vector_field":
        raise ValueError("function bookkeeping is not available in vector-field mode")
    m = _as_matrix(direction)[None]
    coords, res = _Span(_matrix_rows(report.basis)).coords(_matrix_rows(m))
    norm = np.linalg.norm(m)
    if norm == 0.0 or res[0] > 1e-8 * norm:
        raise ValueError("direction lies outside the closure span")
    hit = np.flatnonzero(np.abs(coords[0]) > 1e-10 * norm)
    if report.mode == "symbolic":
        keys = {tuple(sorted(e.items())) for i in hit for e in report.per_direction_functions[i]}
        return [dict(k) for k in sorted(keys)]
    union = _Span()
    union.add(np.vstack([report.per_direction_functions[i] for i in hit]))
    return union.q


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
