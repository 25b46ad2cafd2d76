"""Exact random walks on Bratteli diagrams.

Measures, cotransition probabilities and density cocycles on path spaces;
harmonic sequences and ergodic decompositions; conditional expectations on
direct sums of matrix algebras presented by inclusion graphs; windowed skew
products for group-valued potentials.  All probability arithmetic is exact
(fractions.Fraction); floats appear only in numeric verification helpers.
"""

from types import ModuleType as _ModuleType

from .diagram import (
    BratteliDiagram,
    CylinderTable,
    Edge,
    FinitePath,
    Violation,
    count_paths,
    enumerate_paths,
    subdiagram,
    tail_related,
)
from .errors import (
    BratteliError,
    FileFormatError,
    IncompatibleData,
    InvalidDiagram,
    NotACocycle,
    NotAMatrixUnit,
    NotAMeasure,
    NotHarmonic,
    NotTailRelated,
    PathError,
    ShapeMismatch,
    SupportViolation,
    WindowError,
)
from .fdalg import (
    AlgebraElement,
    DiagonalizedState,
    ExpectationReport,
    FiniteEquivRelation,
    InclusionGraph,
    ModelExpectation,
    brute_force_commutant,
    canonical_units,
    commutant_embed_k,
    diagonalize_state,
    extend_matrix_unit,
    extract_transition,
    identity_element,
    include_j,
    matrix_unit,
    pinch_average_decompose,
    trivialize_cocycle,
    verify_expectation,
)
from .fileio import (
    DiagramFile,
    dump_diagram,
    dump_element,
    load_diagram,
    load_element,
    load_inclusion_graph,
    load_measure_table,
    load_terminal,
    potential_from_file,
    walk_from_file,
)
from .harmonic import (
    ErgodicComponent,
    HarmonicCheck,
    HarmonicSequence,
    InvariantFunction,
    ergodic_components,
    harmonic_from_terminal,
    harmonic_to_invariant,
    invariant_to_harmonic,
    is_harmonic,
    measure_from_harmonic,
)
from .skew import (
    SkewDiagram,
    ZLattice,
    lift_walk,
    pascal_diagram,
    pascal_edge_potential,
    pascal_path,
    skew_harmonic,
    skew_product,
    uhf_from_group_walk,
)
from .walk import (
    CotransitionProbability,
    EdgePotential,
    InitialDistribution,
    MultiplicativeRationals,
    RandomWalk,
    TransitionProbability,
    build_walk,
    central_cotransition,
    cylinder_measure,
    from_cotransition,
    group_cocycle,
    markov_cylinder_table,
    q_measure_witness,
    radon_nikodym,
    sample_path,
    table_from_leaves,
)

__version__ = "0.1.0"

# the public names: everything imported above, less the submodules
__all__ = sorted(k for k, v in vars().items() if k[0] != "_" and not isinstance(v, _ModuleType))
