"""Robin waveguides collapsing onto a two-edge quantum graph.

Transverse Robin spectra and effective couplings, zero-energy-resonance
detection for the effective 1D Hamiltonians, the limit graph operators, and
numerical verification of the norm-resolvent convergence at desk scale.
"""

__version__ = "0.1.0"

from .geometry import (CurvatureProfile, ScalingParams, WaveguideGeometry,
                       bending_angle, default_bump)
from .graph_limit import GraphOperatorSpec, green_function, scattering_matrix
from .resonance import (Potential1D, ResonanceResult, detect_resonance,
                        find_resonant_coupling, zero_energy_solve)
from .transverse import (TransverseMode, asymmetric_spectrum, beta_table,
                         resolvent_kernel, symmetric_spectrum)

__all__ = [
    "CurvatureProfile", "ScalingParams", "WaveguideGeometry", "bending_angle",
    "default_bump", "GraphOperatorSpec", "green_function", "scattering_matrix",
    "Potential1D", "ResonanceResult", "detect_resonance",
    "find_resonant_coupling", "zero_energy_solve", "TransverseMode",
    "asymmetric_spectrum", "beta_table", "resolvent_kernel",
    "symmetric_spectrum", "__version__",
]
