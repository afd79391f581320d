"""Exact-arithmetic toolkit for horizontally periodic translation surfaces.

Surfaces are presented combinatorially by planar half-trees (one vertex per
horizontal cylinder) decorated with rational saddle lengths, cylinder heights
and twists.  The package builds the glued surface, reads off singularity and
involution data, runs exact vertical flow, deforms and degenerates surfaces,
and forms quotients by cylinder equivalences, all over ``fractions.Fraction``.
"""

from .halftree import (
    CanonicalForm,
    CanonicalLabeling,
    HalfTree,
    SkeletonDiagnostics,
    SkeletonError,
    Stratum,
    bipartition,
    canonical_form,
    enumerate_halftrees,
    halftree_from_json,
    halftree_to_dot,
    halftree_to_json,
    stratum_of,
    validate,
)
from .surface import (
    CertifyResult,
    DisjointSurface,
    HyperellipticSurface,
    InvolutionReport,
    Mark,
    MetricError,
    SingularityProfile,
    WeierstrassReport,
    area,
    build,
    canonical_metric,
    extract_skeleton,
    fraction_from_string,
    fraction_to_string,
    involution_check,
    involution_orbit,
    random_metric,
    singularity_profile,
    surface_from_json,
    surface_to_dot,
    surface_to_json,
    surfaces_isomorphic,
    weierstrass_points,
    with_marks,
)
from .flow import (
    FlowError,
    StandardPosition,
    Trajectory,
    VerticalCylinder,
    cylinder_proportion,
    standard_position,
    trace_vertical,
    vertical_decomposition,
)
from .deform import (
    CandidateReport,
    CylinderPartition,
    DeformError,
    FormalCochain,
    SaddlePartition,
    check_candidate,
    cochain_to_json,
    dilate_class,
    dilate_saddle_class,
    partitions_from_json,
    partitions_to_json,
    relative_deformation,
    relative_flow,
    shear_class,
    singleton_partitions,
    standard_shear,
)
from .collapse import (
    CollapseError,
    ForestReport,
    HorizontalCollapseResult,
    StripGluing,
    VerticalCollapseResult,
    certify_hyperelliptic,
    horizontal_collapse,
    horizontal_collapse_report,
    vertical_collapse,
    vertical_collapse_report,
)
from .cover import (
    CoverBlueprint,
    CoverError,
    CoverVerdict,
    FiberCylinder,
    QuotientResult,
    blueprint_from_json,
    blueprint_to_json,
    builtin_blueprints,
    certify_cover,
    fiber_partitions,
    pullback,
    quotient,
    quotient_to_json,
)
from .lemmas import (
    LemmaReport,
    verify_balls_lemma,
    verify_colored_tree_lemma,
    verify_interval_lemma,
)
from .cli import SCHEMA_NAMES, load_schema

__version__ = "0.1.0"
