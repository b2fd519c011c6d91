"""Exact-arithmetic calculus on special fibres of degenerating genus-2
curves and their Jacobian surfaces.

The package solves the intersection-theoretic linear systems that
determine vertical divisors of rational functions on minimal regular
models, assembles boundary vectors of Collino-type cycles over the seven
standard degeneration families, certifies by exact rank computation that
those boundaries span subgroups of the expected dimension, and evaluates
the boundary/coboundary operators of stratified fibres together with
their Ker/Im subquotient ranks.  All arithmetic is exact over the
rationals.
"""

from .boundary_engine import (
    CollinoDatum,
    MethodDisagreement,
    RadicalTooLarge,
    SurjectivityCertificate,
    certificate_to_json,
    certify,
    closed_form_vertical,
    collino_boundary,
    decomposable_boundary,
    matches_mod_constant,
    solve_vertical,
)
from .consani_complex import (
    DegreeOutOfRange,
    IdentityReport,
    MissingMap,
    OperatorPair,
    PchRankReport,
    StratifiedComplex,
    check_identities,
    complex_from_fibre_graph,
    complex_from_json,
    complex_to_json,
    gamma_matrix,
    operator_pair,
    pch_rank,
    rho_matrix,
)
from .exactlin import (
    AffineSolution,
    InconsistentSystem,
    RatMatrix,
    format_rat,
    gram,
    kernel_basis,
    negative_semidefinite_rank,
    rank,
    rat,
    rref,
    solve_affine,
)
from .fibre_model import (
    BoundaryCycle,
    Component,
    FibreFormatError,
    FibreGraph,
    HorizontalDivisor,
    ValidationReport,
    VerticalDivisor,
    graph_from_json,
    graph_to_json,
    intersection_matrix,
    validate,
)
from .parshin_catalog import (
    CASE_IDS,
    CaseBuild,
    ExpectedRank,
    ParamOutOfRange,
    ParshinCase,
    UnknownCase,
    build_case,
    build_kulikov_complex,
    default_cycle_specs,
    expected_dimension,
    middle_aliases,
)

__version__ = "0.1.0"
