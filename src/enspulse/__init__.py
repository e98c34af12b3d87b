"""Design and verification of dispersion-compensating pulse sequences.

The package covers the full loop: bracket-closure analysis of which
dispersion dependencies are compensable (:mod:`.liealg`), exact ensemble
simulation over dispersion grids (:mod:`.bloch`), spinor-polynomial pulse
design (:mod:`.slr`), bracket-word compilation of compensating sequences
(:mod:`.composite`), linear-ensemble necessary conditions (:mod:`.linear`)
and a CLI with stable file formats (:mod:`.cli`, :mod:`.fileio`).  The
names re-exported here load their submodule on first use, so ``import
enspulse`` itself imports none of them.
"""

import importlib

# re-exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "bloch": (
            "ControlSequence", "DispersionGrid", "EnsembleState", "FidelityMap", "SU2Element",
            "TargetSpec", "fidelity_map", "net_rotation", "net_su2", "phase_frame_check",
            "propagate",
        ),
        "errors": (
            "CompletionError", "DegenerateExtractionError", "EnspulseError", "InfeasibleError",
            "SchemaError",
        ),
        "liealg": (
            "ClosureReport", "DispersionMonomial", "DispersionPolyElement", "GeneratorMatrix",
            "PolyVectorField", "SampledElement", "approximable", "bracket_poly",
            "lie_closure", "reachable_functions", "vf_bracket",
        ),
        "slr": (
            "HardPulseStep", "SpinorPolynomials", "TargetProfile", "complete_polynomial",
            "design_broadband", "design_pattern", "forward_recursion", "target_to_polys",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"

# the propagation and recursion kernels are numpy (:mod:`.kernels`)
IMPLEMENTATION = "numpy"


def __getattr__(name: str):
    """Import a re-exported name's submodule on first use (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
