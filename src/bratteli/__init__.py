"""Exact random walks on Bratteli diagrams.

Measures, cotransition probabilities and density cocycles on path spaces;
harmonic sequences and ergodic decompositions; conditional expectations on
direct sums of matrix algebras presented by inclusion graphs; windowed skew
products for group-valued potentials.  All probability arithmetic is exact
(fractions.Fraction); floats appear only in numeric verification helpers.

A public name is imported from its module on first access (PEP 562), so a
program compiles only the modules it uses; ``states`` is imported at once.
"""

from importlib import import_module as _import_module

from . import states  # the one module imported at once; it loads numpy

# each public name, by the module that defines it
_NAMES = {
    "diagram": "BratteliDiagram CylinderTable Edge FinitePath Violation count_paths enumerate_paths "
               "subdiagram tail_related",
    "errors": "BratteliError FileFormatError IncompatibleData InvalidDiagram NotACocycle NotAMatrixUnit "
              "NotAMeasure NotHarmonic NotTailRelated PathError ShapeMismatch SupportViolation WindowError",
    "fdalg": "AlgebraElement ExpectationReport FiniteEquivRelation InclusionGraph ModelExpectation "
             "brute_force_commutant canonical_units commutant_embed_k extend_matrix_unit extract_transition "
             "identity_element include_j matrix_unit pinch_average_decompose trivialize_cocycle "
             "verify_expectation",
    "fileio": "DiagramFile dump_diagram dump_element load_diagram load_element load_inclusion_graph "
              "load_measure_table load_terminal potential_from_file walk_from_file",
    "harmonic": "ErgodicComponent HarmonicCheck HarmonicSequence InvariantFunction ergodic_components "
                "harmonic_from_terminal harmonic_to_invariant invariant_to_harmonic is_harmonic "
                "measure_from_harmonic",
    "skew": "SkewDiagram ZLattice lift_walk pascal_diagram pascal_edge_potential pascal_path skew_harmonic "
            "skew_product uhf_from_group_walk",
    "states": "DiagonalizedState diagonalize_state",
    "walk": "CotransitionProbability EdgePotential InitialDistribution MultiplicativeRationals RandomWalk "
            "TransitionProbability build_walk central_cotransition cylinder_measure from_cotransition "
            "group_cocycle markov_cylinder_table q_measure_witness radon_nikodym sample_path "
            "table_from_leaves",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
