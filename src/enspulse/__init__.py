"""Design and verification of dispersion-compensating pulse sequences.

The package covers the full loop: bracket-closure analysis of which
dispersion dependencies are compensable (:mod:`.liealg`), exact ensemble
simulation over dispersion grids (:mod:`.bloch`), spinor-polynomial pulse
design (:mod:`.slr`), bracket-word compilation of compensating sequences
(:mod:`.composite`), linear-ensemble necessary conditions (:mod:`.linear`)
and a CLI with stable file formats (:mod:`.cli`, :mod:`.fileio`).
"""

from .bloch import (
    ControlSequence,
    DispersionGrid,
    EnsembleState,
    FidelityMap,
    SU2Element,
    TargetSpec,
    ensemble_distance,
    fidelity_map,
    net_rotation,
    net_su2,
    phase_frame_check,
    propagate,
    step_propagator,
)
from .errors import (
    CompletionError,
    DegenerateExtractionError,
    EnspulseError,
    InfeasibleError,
    SchemaError,
)
from .liealg import (
    ClosureReport,
    DispersionMonomial,
    DispersionPolyElement,
    GeneratorMatrix,
    PolyVectorField,
    SampledElement,
    approximable,
    bracket,
    bracket_poly,
    lie_closure,
    reachable_functions,
    vf_bracket,
)
from .slr import (
    HardPulseStep,
    SpinorPolynomials,
    TargetProfile,
    complete_polynomial,
    design_broadband,
    design_pattern,
    forward_recursion,
    inverse_recursion,
    target_to_polys,
)

__version__ = "0.1.0"

# the propagation and recursion kernels are numpy (:mod:`.kernels`)
IMPLEMENTATION = "numpy"
