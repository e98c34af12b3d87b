"""Bracket-word compilation of dispersion-compensating sequences.

Nested group commutators synthesize effective generators that carry higher
powers of the dispersion parameters; least-squares coefficients on those
powers then flatten (or shape) the parameter dependence of the net
rotation.  One realizer (:func:`_realize`) and one compile step
(:func:`_compile`: closure gate, fit gate, realization) serve every
family.  The realizer writes a word as time-ordered signed leaves
``(label, a)``, each standing for ``exp(a * G_label)``, and inverts a leaf
list one way whatever the family (:func:`_inverse`): reverse it and negate
every amount, since a flow's inverse is the same flow run backwards.  A
family is then one leaf map, applied once to each realized block:

* rf — a leaf is one piecewise-constant control sample ``a / dt`` on the
  label's channel (one rf-scale parameter; :func:`_rf_samples`);
* strong rf — a leaf is a free drift period or an instantaneous rotation
  (offset compensation with unbounded rf; :func:`_omega_segments`);
* coupling — a leaf is a two-qubit ZZ evolution period, turned onto
  ``b1`` by instantaneous local rotations (coupling-strength compensation;
  :func:`_coupling_segments`).

A negative drift or coupling leaf runs its period between one π-flip pair
(:func:`_period`).  One exponent list per family decides what is gated,
fitted (:func:`fit_coefficients`), realized (one word per exponent map,
from the family's word builder) and predicted: every compiled object records the
predicted generator as a :class:`~enspulse.liealg.DispersionPolyElement`
on those monomials, so fit error and commutator-approximation error can be
separated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .bloch import ControlSequence
from .errors import InfeasibleError
from .liealg import (
    DispersionPolyElement,
    FitResult,
    approximable,
    bracket_poly,
    evaluate_monomials,
    expm_skew,
    lie_closure,
    pauli,
    reachable_functions,
    so3_generators,
    two_qubit_coupling_generators,
)

__all__ = [
    "BracketWord",
    "RobustRotationSpec",
    "CompiledSequence",
    "Segment",
    "commutator_block",
    "fit_coefficients",
    "compile_robust_rotation",
    "compile_omega_robust",
    "compile_j_robust_zz",
    "coupling_grid",
    "reduce_coupling_tensor",
    "simulate_two_qubit",
    "rotation_fidelity",
    "gate_fidelity",
    "word_for_power",
]

SO3 = so3_generators()
DEFAULT_DT = 1e-3  # segment duration for compiled rf sequences (s)
DEFAULT_TOL = 5e-2  # max fit residual (rad) a compiler accepts unless told otherwise


# ---------------------------------------------------------------------------
# bracket words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketWord:
    """leaf(label) or ad(left, right), meaning [left, right]."""

    kind: str
    label: str | None = None
    left: "BracketWord | None" = None
    right: "BracketWord | None" = None

    @classmethod
    def leaf(cls, label: str) -> "BracketWord":
        return cls("leaf", label=label)

    @classmethod
    def ad(cls, left: "BracketWord", right: "BracketWord") -> "BracketWord":
        return cls("ad", left=left, right=right)

    def element(self, leaf_elements: Mapping[str, DispersionPolyElement]) -> DispersionPolyElement:
        if self.kind == "leaf":
            return leaf_elements[self.label]
        return bracket_poly(self.left.element(leaf_elements), self.right.element(leaf_elements))


def word_for_power(axis: str, partner: str, exponent: int) -> BracketWord:
    """Nested word whose element is proportional to eps^exponent * O_axis.

    exponent must be odd; each extra pair of partner-brackets raises the
    parameter power by two.
    """
    if exponent < 1 or exponent % 2 == 0:
        raise ValueError("only odd parameter powers are bracket-reachable here")
    word = BracketWord.leaf(axis)
    p = BracketWord.leaf(partner)
    for _ in range((exponent - 1) // 2):
        word = BracketWord.ad(p, BracketWord.ad(p, word))
    return word


def _reachable(elements, direction, exponents) -> list[bool]:
    """Per exponent map: does some bracket of ``elements`` carry it on ``direction``?

    The closure runs one depth past the highest total degree asked for, so
    it covers words with one parameter-free leaf.
    """
    if not exponents:
        raise ValueError(f"parameter powers must be nonempty, got {exponents}")
    if any(v < 0 for e in exponents for v in e.values()):
        raise ValueError(f"parameter powers must be nonnegative, got {exponents}")
    depth = 1 + max(sum(e.values()) for e in exponents)
    funcs = reachable_functions(lie_closure(list(elements.values()), max_depth=depth), direction)
    return [{k: v for k, v in e.items() if v} in funcs for e in exponents]


def _require_reachable(elements, axis: str, direction, exponents):
    """Raise :class:`InfeasibleError` at the first exponent map ``elements`` cannot reach."""
    for e, ok in zip(exponents, _reachable(elements, direction, exponents)):
        if not ok:
            powers = " ".join(f"{k}^{v}" for k, v in e.items())
            raise InfeasibleError(f"power {powers} on axis {axis} is not bracket-reachable")


def _monomial_scale(elem: DispersionPolyElement, exponents: Mapping[str, int], direction: np.ndarray) -> float:
    """Scalar s with elem == s * monomial(exponents) * direction (exactly one term)."""
    if len(elem.monomials) != 1:
        raise ValueError("bracket word does not reduce to a single monomial")
    mon = elem.monomials[0]
    if mon.exponent_dict() != {k: v for k, v in exponents.items() if v}:
        raise ValueError(f"word carries exponents {mon.exponent_dict()}, wanted {exponents}")
    dvec = np.concatenate([direction.real.ravel(), direction.imag.ravel()])
    mvec = np.concatenate([mon.coeff.real.ravel(), mon.coeff.imag.ravel()])
    scale = float(dvec @ mvec) / float(dvec @ dvec)
    resid = np.linalg.norm(mvec - scale * dvec)
    if resid > 1e-10 * max(np.linalg.norm(mvec), 1.0):
        raise ValueError("word direction is not proportional to the requested axis")
    return scale


def _inverse(leaves: list) -> list:
    """The exact inverse of a leaf list: reversed, every amount negated."""
    return [(label, -a) for label, a in reversed(leaves)]


def _realize(word: BracketWord, amount: float) -> list[tuple[str, float]]:
    """Time-ordered signed leaves ``(label, a)`` whose product of
    ``exp(a * G_label)`` is exp(amount * G_word) to commutator order.

    ``[left, right]`` at amount a is the group commutator of both children
    at sqrt(|a|); a < 0 inverts the whole block.  The undo halves of each
    commutator are exact inverses of the halves they undo (not approximate
    reversed words), so a nested block's own error cancels and subdivision
    converges.
    """
    if word.kind == "leaf":
        return [(word.label, amount)]
    s = float(np.sqrt(abs(amount)))
    right = _realize(word.right, s)
    left = _realize(word.left, s)
    seq = right + left + _inverse(right) + _inverse(left)
    return _inverse(seq) if amount < 0.0 else seq


def _compile(
    elements, axis, direction, exponents, word_of, target, params, tol, subdivisions, what,
    share=1.0,
):
    """Gate, fit and realize ``target`` as sum_i c_i * monomial_i * direction.

    In order: ``subdivisions`` must be at least 1; the target angle must
    not be zero at every grid point; the closure of
    ``elements`` must put every exponent map on ``direction`` (axis name
    ``axis``) before ``word_of(exponents)`` builds any word; the fit of
    ``target`` over the ``params`` grids must meet ``tol`` (else
    :class:`InfeasibleError` led by ``what``).  Each word's single-monomial
    element is measured, never assumed, so sign bookkeeping cannot drift;
    its block at ``tau = c / scale / subdivisions``, with ``c`` the
    coefficient times ``share``, is realized once as signed leaves, for the
    family's leaf map to repeat ``subdivisions`` times (:func:`_rf_samples`,
    :func:`_segments`).  Returns the fit, each word's leaf block, the predicted
    ``(exponents, c * direction)`` terms and the commutator budget.
    """
    if subdivisions < 1:
        raise ValueError(f"subdivisions must be >= 1, got {subdivisions}")
    if not np.any(target):
        raise ValueError("target angle is zero at every grid point: there is nothing to compile")
    _require_reachable(elements, axis, direction, exponents)
    fit = _require_fit(fit_coefficients(target, exponents, params, tol), what)
    blocks = []
    terms = []
    budget = 0.0
    for c, e in zip(share * fit.coefficients, exponents):
        word = word_of(e)
        scale = _monomial_scale(word.element(elements), e, direction.entries)
        tau = c / scale / subdivisions
        blocks.append(_realize(word, tau))
        budget += subdivisions * abs(tau) ** 1.5
        terms.append((e, c * direction.entries))
    return fit, blocks, terms, budget


# ---------------------------------------------------------------------------
# rf realization (single spin, controls scaled by the dispersion parameter)
# ---------------------------------------------------------------------------

# plant at zero offset: dX/dt = eps * (u * Oy + v * Ox) X, so the "x" leaf
# drives v and the "y" leaf drives u
RF_CHANNELS = {"x": 1, "y": 0}

RF_ELEMENTS = {
    "x": DispersionPolyElement.single({"eps": 1}, SO3["x"]),
    "y": DispersionPolyElement.single({"eps": 1}, SO3["y"]),
}
# two independent rf scales: the family analyze-lie's rf-two-scale preset reports on
TWO_PARAM_ELEMENTS = {
    "x1": DispersionPolyElement.single({"eps1": 1}, SO3["x"]),
    "y2": DispersionPolyElement.single({"eps2": 1}, SO3["y"]),
}


def _rf_samples(blocks: list, subdivisions: int) -> np.ndarray:
    """The ``(n, 2)`` rf samples of leaf blocks, each block built once and
    tiled ``subdivisions`` times, in time order.  A leaf ``(label, a)`` is
    the sample ``a / DEFAULT_DT`` on the label's channel, the other idle."""
    parts = []
    for block in blocks:
        samples = np.zeros((len(block), 2))
        for row, (label, a) in zip(samples, block):
            row[RF_CHANNELS[label]] = a / DEFAULT_DT
        parts.append(np.tile(samples, (subdivisions, 1)))
    return np.concatenate(parts)


def commutator_block(a: str, b: str, t: float) -> ControlSequence:
    """Four-segment sequence approximating exp(t [G_a, G_b]) to O(t^(3/2))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return ControlSequence(DEFAULT_DT, np.zeros((0, 2)))
    word = BracketWord.ad(BracketWord.leaf(a), BracketWord.leaf(b))
    return ControlSequence(DEFAULT_DT, _rf_samples([_realize(word, t)], 1))


# ---------------------------------------------------------------------------
# coefficient fitting
# ---------------------------------------------------------------------------


def fit_coefficients(
    target, exponents: Sequence[Mapping[str, int]], params: Mapping[str, np.ndarray], tol=1e-3
) -> FitResult:
    """Least-squares c_k for sum_k c_k * monomial_k (one exponents dict per word)
    against the target, broadcast over the equal-length ``params`` grids."""
    family = evaluate_monomials(exponents, params)
    return approximable(np.broadcast_to(target, family.shape[1:]), family, tol)


def _require_fit(fit: FitResult, what: str) -> FitResult:
    if not fit.achievable:
        raise InfeasibleError(f"{what}: max residual {fit.max_residual:.3e}")
    return fit


# ---------------------------------------------------------------------------
# compiled-sequence container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One labeled evolution segment of a strong-rf or two-qubit sequence.

    Immutable: a subdivided sequence repeats the same segment objects.
    """

    kind: str  # "drift" | "rot" | "coupling" | "local" | "tensor"
    duration: float = 0.0
    qubit: int = 0
    axis: str = ""
    angle: float = 0.0
    tensor: tuple[float, float, float] | None = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind in ("drift", "coupling", "tensor"):
            out["duration"] = self.duration
        if self.kind == "rot":
            out.update(axis=self.axis, angle=self.angle)
        if self.kind == "local":
            out.update(qubit=self.qubit, axis=self.axis, angle=self.angle)
        if self.kind == "tensor":
            out["tensor"] = list(self.tensor)
        return out


@dataclass
class CompiledSequence:
    sequence: ControlSequence | list[Segment]
    predicted: DispersionPolyElement
    diagnostics: dict = field(default_factory=dict)


def _compiled(sequence, terms, fit: FitResult, **diagnostics) -> CompiledSequence:
    """CompiledSequence with the fit figures leading its diagnostics."""
    diag = {
        "fit_l2": fit.l2_residual,
        "fit_max": fit.max_residual,
        "coefficients": np.asarray(fit.coefficients).tolist(),
        **diagnostics,
    }
    return CompiledSequence(sequence, DispersionPolyElement.make(terms), diag)


@dataclass
class RobustRotationSpec:
    """Target rotation angle as a sampled function of the rf-scale parameter."""

    axis: str
    angles: np.ndarray  # target rotation angle per grid point (rad)
    grid: np.ndarray  # parameter samples (rf scale eps)
    basis: tuple[int, ...] = (1, 3)
    tol: float = DEFAULT_TOL
    subdivisions: int = 1

    def __post_init__(self):
        self.angles = np.broadcast_to(
            np.asarray(self.angles, dtype=float), np.asarray(self.grid).shape
        ).copy()
        self.grid = np.asarray(self.grid, dtype=float)
        if len(self.basis) == 0:
            raise ValueError("basis must be nonempty")


# ---------------------------------------------------------------------------
# rf-scale compensation (single spin)
# ---------------------------------------------------------------------------


def compile_robust_rotation(spec: RobustRotationSpec) -> CompiledSequence:
    """Realize exp(theta(eps) * O_axis) to fit accuracy over the eps grid.

    Each basis power is synthesized by a nested bracket word, subdivided
    ``spec.subdivisions`` times; the words' exact single-monomial elements
    are measured, never assumed, so sign bookkeeping cannot drift.
    """
    if spec.axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    partner = "y" if spec.axis == "x" else "x"
    fit, blocks, terms, budget = _compile(
        RF_ELEMENTS, spec.axis, SO3[spec.axis], [{"eps": e} for e in spec.basis],
        lambda e: word_for_power(spec.axis, partner, e["eps"]),
        spec.angles, {"eps": spec.grid}, spec.tol, spec.subdivisions,
        f"target not approximable on basis {spec.basis}",
    )
    samples = _rf_samples(blocks, spec.subdivisions)
    return _compiled(
        ControlSequence(DEFAULT_DT, samples), terms, fit,
        basis=list(spec.basis), commutator_budget=budget, segments=len(samples),
    )


# ---------------------------------------------------------------------------
# offset compensation with strong rf (drift periods + instantaneous rotations)
# ---------------------------------------------------------------------------

OMEGA_ELEMENTS = {
    "drift": DispersionPolyElement.single({"omega": 1}, SO3["z"]),
    "rx": DispersionPolyElement.single({}, SO3["x"]),
    "ry": DispersionPolyElement.single({}, SO3["y"]),
}


def _period(kind: str, duration: float, flip: Segment) -> list[Segment]:
    """A ``kind`` period of ``|duration|``.  A negative one runs between the
    π rotation ``flip`` and its inverse, which negate the period's generator."""
    seg = Segment(kind, duration=abs(duration))
    if duration >= 0.0:
        return [seg]
    return [flip, seg, replace(flip, angle=-flip.angle)]


def _segments(blocks: list, subdivisions: int, leaf_map) -> list[Segment]:
    """The segments ``leaf_map(label, a)`` writes for each leaf block, each
    block mapped once and repeated ``subdivisions`` times, in time order."""
    out: list[Segment] = []
    for block in blocks:
        out += [seg for label, a in block for seg in leaf_map(label, a)] * subdivisions
    return out


# conjugation by a pi rotation about x negates Oz, so it reverses a drift
_DRIFT_FLIP = Segment("rot", axis="x", angle=-np.pi)


def _omega_segments(label: str, a: float) -> list[Segment]:
    """Strong-rf leaf map: a drift period for ``a * omega * Oz`` or an
    instantaneous rotation by ``a``."""
    if label == "drift":
        return _period("drift", a, _DRIFT_FLIP)
    return [Segment("rot", axis="x" if label == "rx" else "y", angle=a)]


def omega_word(axis: str, power: int) -> BracketWord:
    """Word carrying omega^power on O_axis using drift brackets."""
    drift = BracketWord.leaf("drift")
    if power % 2 == 0:
        word = BracketWord.leaf("rx" if axis == "x" else "ry")
    else:
        word = BracketWord.leaf("ry" if axis == "x" else "rx")
    for _ in range(power):
        word = BracketWord.ad(drift, word)
    return word


def compile_omega_robust(
    target: np.ndarray,
    omega_grid: np.ndarray,
    powers: Sequence[int] = (0, 1, 2),
    axis: str = "x",
    single_quadrature: bool = False,
    tol: float = DEFAULT_TOL,
    subdivisions: int = 1,
) -> CompiledSequence:
    """Synthesize exp(f(omega) O_axis) from drift periods and hard rotations.

    ``single_quadrature`` restricts the instantaneous rotations to the x
    channel.  Requested powers the family cannot put on the axis are
    dropped (with one quadrature, y only carries odd offset powers), and
    none left is infeasible.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    table = {k: v for k, v in OMEGA_ELEMENTS.items() if not (single_quadrature and k == "ry")}
    asked = [{"omega": int(p)} for p in powers]
    exponents = [e for e, ok in zip(asked, _reachable(table, SO3[axis], asked)) if ok]
    if not exponents:
        raise InfeasibleError(f"axis {axis} carries no requested offset powers with one quadrature")
    powers = tuple(e["omega"] for e in exponents)
    fit, blocks, terms, _ = _compile(
        table, axis, SO3[axis], exponents, lambda e: omega_word(axis, e["omega"]),
        target, {"omega": omega_grid}, tol, subdivisions,
        f"offset target not approximable on powers {powers}",
    )
    segments = _segments(blocks, subdivisions, _omega_segments)
    return _compiled(
        segments, terms, fit,
        powers=list(powers), segments=len(segments), single_quadrature=single_quadrature,
    )


# ---------------------------------------------------------------------------
# coupling-strength compensation (two qubits)
# ---------------------------------------------------------------------------

_B = two_qubit_coupling_generators()
COUPLING_ELEMENTS = {
    "b1": DispersionPolyElement.single({"J": 1}, _B["b1"]),
    "b2": DispersionPolyElement.single({"J": 1}, _B["b2"]),
}

# local rotation mapping sz(x)sz onto sy(x)sz, verified in tests:
# exp(i pi sx/4) sz exp(-i pi sx/4) = sy  ->  local angle -pi/2 about x
_B1_CONJ_ANGLE = -np.pi / 2
# a local pi flip of qubit 1 about x negates sz(x)sz
_COUPLING_FLIP = Segment("local", qubit=1, axis="x", angle=np.pi)
COUPLING_SAMPLES = 21  # points of the coupling grid the fit and the claim share


def _coupling_segments(label: str, a: float) -> list[Segment]:
    """Coupling leaf map: net unitary exp(a * J * B_label), every coupling
    duration >= 0."""
    segs = _period("coupling", 2.0 * a, _COUPLING_FLIP)
    if label == "b1":
        segs = (
            [Segment("local", qubit=1, axis="x", angle=-_B1_CONJ_ANGLE)]
            + segs
            + [Segment("local", qubit=1, axis="x", angle=_B1_CONJ_ANGLE)]
        )
    return segs


def coupling_grid(j0: float, delta: float) -> np.ndarray:
    """Coupling strengths J in j0*[1-delta, 1+delta]: ``COUPLING_SAMPLES``
    points, or the single point j0 when delta is 0."""
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if delta == 0.0:
        return np.array([j0])
    return np.linspace(j0 * (1 - delta), j0 * (1 + delta), COUPLING_SAMPLES)


def compile_j_robust_zz(
    theta: float,
    j0: float,
    delta: float,
    basis: tuple[int, ...] = (1, 3),
    tol: float = DEFAULT_TOL,
    subdivisions: int = 1,
) -> CompiledSequence:
    """Coupling-strength-robust ZZ evolution exp(-i theta sz sz) over
    J in j0*[1-delta, 1+delta]."""
    # exp(-i f(J) sz sz) = exp((f(J)/2) B2): the words carry the halved
    # coefficients (halving the direction instead flips signed zeros)
    fit, blocks, terms, _ = _compile(
        COUPLING_ELEMENTS, "zz", _B["b2"], [{"J": e} for e in basis],
        lambda e: word_for_power("b2", "b1", e["J"]),
        theta, {"J": coupling_grid(j0, delta)}, tol, subdivisions,
        f"coupling target not approximable on basis {basis}", share=0.5,
    )
    segments = _segments(blocks, subdivisions, _coupling_segments)
    coupling_time = sum(s.duration for s in segments if s.kind == "coupling")
    return _compiled(
        segments, terms, fit, basis=list(basis), segments=len(segments), coupling_time=coupling_time
    )


def reduce_coupling_tensor(
    alpha: float, beta: float, gamma: float, t: float = 1.0
) -> CompiledSequence:
    """Echo a generic commuting coupling tensor down to its ZZ part.

    The sequence evolves the tensor, applies an instantaneous pi rotation
    about z on qubit 1, evolves again and undoes the rotation; the xx and
    yy terms cancel and the net unitary is exp(-i 2 gamma t sz sz).
    """
    segments = [
        Segment("tensor", duration=t, tensor=(alpha, beta, gamma)),
        Segment("local", qubit=1, axis="z", angle=-np.pi),
        Segment("tensor", duration=t, tensor=(alpha, beta, gamma)),
        Segment("local", qubit=1, axis="z", angle=np.pi),
    ]
    predicted = DispersionPolyElement.single({}, gamma * t * _B["b2"].entries)
    return CompiledSequence(segments, predicted, {"gamma": gamma, "t": t})


_ZZ, _XX, _YY = (np.kron(pauli(a), pauli(a)) for a in "zxy")
# sigma_axis on one qubit: qubit 1 is the left tensor factor, qubit 0 the right
_LOCAL = {
    (q, a): np.kron(pauli(a), pauli("i")) if q == 1 else np.kron(pauli("i"), pauli(a))
    for q in (0, 1)
    for a in "xyz"
}


def simulate_two_qubit(segments: list[Segment], j: float) -> np.ndarray:
    """Exact 4x4 unitary of a coupling/local/tensor segment list."""
    gens = np.zeros((len(segments), 4, 4), dtype=complex)
    for g, seg in zip(gens, segments):
        if seg.kind == "coupling":
            g[:] = -1j * j * seg.duration * _ZZ
        elif seg.kind == "local":
            g[:] = -0.5j * seg.angle * _LOCAL[seg.qubit, seg.axis]
        elif seg.kind == "tensor":
            a, b, c = seg.tensor
            # the three terms commute, so one exponential is their product
            g[:] = -1j * seg.duration * (a * _XX + b * _YY + c * _ZZ)
        else:
            raise ValueError(f"segment kind {seg.kind!r} is not a two-qubit segment")
    return reduce(np.matmul, expm_skew(gens)[::-1], np.eye(4))


# ---------------------------------------------------------------------------
# fidelity helpers
# ---------------------------------------------------------------------------


def rotation_fidelity(r1: np.ndarray, r2: np.ndarray) -> float | np.ndarray:
    """(1 + cos of the relative rotation angle) / 2; one value per matrix of a stack."""
    cosang = 0.5 * (np.trace(np.swapaxes(r1, -1, -2) @ r2, axis1=-2, axis2=-1) - 1.0)
    return 0.5 * (1.0 + np.clip(cosang, -1.0, 1.0))


def gate_fidelity(u: np.ndarray, g: np.ndarray) -> float | np.ndarray:
    """|tr(G^H U)| / dim, phase-invariant; one value per matrix of a stack."""
    return np.abs(np.trace(np.swapaxes(np.conj(g), -1, -2) @ u, axis1=-2, axis2=-1)) / u.shape[-1]


def generator_level_rotation_fidelity(
    compiled: CompiledSequence, target_angles: np.ndarray, axis: str, grid: np.ndarray
) -> np.ndarray:
    """Fidelity of exp(predicted generator) against the target per eps grid point."""
    angles = np.broadcast_to(np.asarray(target_angles, dtype=float), np.shape(grid)).ravel()
    achieved = expm_skew(compiled.predicted.evaluate({"eps": np.ravel(grid)}).real)
    return rotation_fidelity(achieved, expm_skew(angles[:, None, None] * SO3[axis].entries.real))
