"""Polynomial lens distortion models.

Construction of the classical model families (radial, decentering, thin
prism, and their generalizations), algebraic verification of rotation
invariance, isotropy and reflection symmetry, point warping with numeric
inversion, and synthetic calibration experiments comparing model families by
reprojection error.
"""

from .poly import (
    MAX_DEGREE,
    ComplexPoly,
    RealPolyModel,
    load_model,
    model_from_json,
    model_to_json,
    monomial_rotation,
    monomial_vector,
    save_model,
    winding_number,
    winding_table,
)
from .families import (
    CATALOG_NAMES,
    DistortionFunction,
    IrreducibleSpec,
    ModelSpace,
    conjugate_quadratic,
    decentering,
    full_poly_space,
    irreducible_space,
    load_space,
    mixed_quadratic,
    named_space,
    opencv_thin_prism,
    radial_homogeneous,
    rri,
    rri_space,
    save_space,
    space_sum,
    symmetric_cubic,
    symmetric_quadratic,
    tangential_homogeneous,
    thin_prism,
)
from .symmetry import (
    ClassReport,
    SymmetryReport,
    classify,
    in_radial_tangential_span,
    is_isotropic,
    is_rotation_invariant,
    pairwise_conditions,
    radial_tangential_at,
    reflection_symmetry,
    sphere_point,
    structural_rsf,
)
from .warp import (
    FieldSample,
    NoConvergence,
    SingularJacobian,
    apply_distortion,
    circle_points,
    grid_points,
    invert,
    jacobian,
    sample_field,
)
from .calib import (
    CompareRow,
    FitOptions,
    FitReport,
    Intrinsics,
    Observations,
    Pose,
    Scene,
    TABLE_FAMILIES,
    compare,
    default_scene,
    fit,
    parse_family,
    project,
    sweep_axis_ratio,
    synthesize,
)

__version__ = "0.1.0"
