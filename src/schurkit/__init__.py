"""Schur parameters and conservative realizations of matrix Schur-class
functions on the unit disk.

The package computes, for a contractive-valued holomorphic function given
through a simple conservative state-space realization, its Schur parameter
sequence in closed form, conservative realizations of every Schur iterate,
and a function-level iteration that serves as an independent pointwise
oracle for cross-verification.
"""

from .blockparam import (
    BlockMatrix,
    FGLParams,
    KMXParams,
    assemble_fgl,
    assemble_kmx,
    block_matrix,
    decompose_fgl,
    decompose_kmx,
    fgl_params,
    iso_criteria,
    kmx_params,
    moebius_map,
    shmulyan_transform,
    split_blocks,
    unitary_link,
)
from .contractions import Contraction, DefectProfile
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    cmatrix,
    haar_unitary,
    is_coisometry,
    is_contraction,
    is_isometry,
    is_unitary,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    range_basis,
    subspace_eq,
    subspace_intersect,
)
from .schur import (
    ChainReport,
    ChoiceSequence,
    OracleChain,
    SchurChain,
    build_chain,
    choice_sequence,
    first_iterate_systems,
    gamma_from_realization,
    is_unitary_parameter,
    iterate_systems,
    moebius_compose,
    moebius_parameter,
    oracle_step,
    reconstruct,
    schur_oracle,
    verify_chain,
)
from .systems import (
    DefectFunctions,
    DiscreteSystem,
    SampledFunction,
    SystemClassification,
    char_colligation,
    char_function,
    const_function,
    defect_functions,
    discrete_system,
    disk_grid,
    grid_distance,
    random_conservative_system,
    unitarily_similar,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
