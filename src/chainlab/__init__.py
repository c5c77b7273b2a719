"""Exact chain-level homological algebra for finite-dimensional rational algebras.

The package materialises Bar, Hochschild and cyclic complexes of structure-
constant algebras over Q, the filtrations relating an ideal's complexes to
relative ones, Chevalley-Eilenberg homology of matrix Lie algebras with the
generalized trace into the cyclic side, and the degree-one log-trace probe of
nilpotent extensions.  All arithmetic is exact.
"""

from .algebras import (
    Algebra,
    AlgebraMorphism,
    Bimodule,
    Ideal,
    augmentation_ideal,
    commutator_subspace,
    matrix_algebra,
    product_algebra,
    quotient,
    tensor,
    unitalization,
)
from .complexes import (
    ChainComplex,
    ChainMap,
    HomologyReport,
    HomologySpace,
    Interval,
    cone,
    homotopy_fiber,
    is_quasi_iso,
    shift,
)
from .cyclic import (
    bar_complex,
    connes_check,
    hc_homology,
    hh_homology,
    hoch_complex,
    lambda_complex,
    norm_matrix,
    rotation_matrix,
    unit_homotopy,
)
from .dsl import parse_algebra, parse_algebra_file
from .excision import (
    ExtensionData,
    filtration_F,
    filtration_Q,
    graded_piece_check,
    h_unitality_check,
    h_unitary_check,
    q_kernel_complex,
    relative_homology,
    wodzicki_verify,
)
from .lie import (
    LieAlgebra,
    ce_complex,
    ce_homology,
    gl,
    h2_vs_hc1,
    lie_from_assoc,
    lqt_verify,
    sym_model_betti,
    trace_chain_check,
    triangular_lie,
)
from .presets import algebra_preset, extension_preset
from .sparse import SparseMatrix, Subspace
from .tangent import (
    ArtinianBase,
    LogTraceProbe,
    UnipotentElement,
    chern1,
    k1_rel_probe,
    nilpotent_exp,
    nilpotent_log,
    tangent_table,
)

__version__ = "0.1.0"
