"""Dual unit gain graphs and their spectra.

Arithmetic for dual reals, dual complex numbers and dual quaternions;
dual Hermitian eigendecomposition and Moore determinants; gain graphs with
switching, balance certificates, closed-form path/cycle spectra, interlacing
and spectral-radius bounds; the coefficient theorem; file I/O and a CLI.
"""

from .char_poly import (
    BasicSubgraph,
    CycleRealGain,
    char_poly_from_eigenvalues,
    coefficients,
    enumerate_basic_subgraphs,
    enumerate_cycles,
    mdet_via_subgraphs,
    real_gain_of_cycle,
)
from .errors import (
    BadParameterError,
    BadRingError,
    DualGainError,
    DuplicateEdgeError,
    GraphSyntaxError,
    InfinitesimalNotInvertibleError,
    NotACycleError,
    NotAWalkError,
    NotHermitianError,
    NotUnitError,
    NotUnitGainError,
    RingMismatchError,
    SelfLoopError,
    ShapeMismatchError,
    SingularStandardPartError,
    SizeCapExceededError,
)
from .gain_graph import GainGraph, PotentialCertificate, UnderlyingGraph
from .graph_io import (
    complete_graph,
    cycle_graph,
    generate,
    load,
    parse,
    path_graph,
    random_graph,
    save,
    serialize,
)
from .linalg import (
    DualMatrix,
    DualVector,
    EigenPair,
    hermitian_eigendecomposition,
    moore_determinant,
)
from .quaternion import Quaternion
from .scalars import (
    DualNumber,
    DualScalar,
    RING_COMPLEX,
    RING_QUATERNION,
    RING_REAL,
    RINGS,
    compare,
    dual_geq,
    parse_dual_scalar,
    render_dual_scalar,
)
from .spectra import (
    InterlacingReport,
    KIND_ADJACENCY,
    KIND_LAPLACIAN,
    RadiusReport,
    Spectrum,
    adjacency_matrix,
    check_interlacing,
    cycle_spectrum_closed_form,
    gain_matrix,
    laplacian_matrix,
    path_spectrum_closed_form,
    radius_report,
    spectral_radius,
    spectrum,
    underlying_radius,
)
from .transcendental import (
    DualAngle,
    dual_cos,
    dual_exp,
    dual_log,
    reduce_to_complex,
    unit_nth_roots,
    unit_to_angle,
)

__version__ = "0.1.0"
