"""Numerical machinery for generating families of wave fronts: critical sets,
caustics, Maxwell sets, evolutes and parallels, characteristic methods for
quasi-linear PDEs, normal-form ODE front galleries and jet-space stability
checks."""

from .errors import WavefrontError
from .expr import parse_expr, parse_family
from .families import (
    GeneratingFamily,
    GraphLikeFamily,
    family_from_file,
    family_from_text,
    lagrangian_map,
    legendrian_unfolding_map,
    morse_family_check,
    morse_hypersurface_check,
    nondegeneracy_check,
    rank_diagnostics,
    solve_critical_set,
)
from .fronts import (
    big_front,
    caustic,
    delta_set,
    discriminant,
    maxwell_set,
    momentary_front,
)
from .gallery import gallery_discriminant, gallery_family, gallery_front
from .geometry import (
    Circle,
    Ellipse,
    Ellipsoid,
    Parabola,
    Sphere,
    distance_squared_family,
    evolute,
    parallels,
    tangent_sphere_check,
)
from .jets import (
    JetSpace,
    k_determinacy_dimension,
    lagrangian_stability_check,
    sp_plus_versality_check,
)
from .pde import (
    BlockField,
    QuasiLinearPDE,
    breaking_time,
    burgers,
    integrate_characteristics,
    multivalued_count,
    transport,
)

__version__ = "0.1.0"

__all__ = [
    "WavefrontError",
    "parse_expr",
    "parse_family",
    "GeneratingFamily",
    "GraphLikeFamily",
    "family_from_file",
    "family_from_text",
    "lagrangian_map",
    "legendrian_unfolding_map",
    "morse_family_check",
    "morse_hypersurface_check",
    "nondegeneracy_check",
    "rank_diagnostics",
    "solve_critical_set",
    "big_front",
    "caustic",
    "delta_set",
    "discriminant",
    "maxwell_set",
    "momentary_front",
    "gallery_discriminant",
    "gallery_family",
    "gallery_front",
    "Circle",
    "Ellipse",
    "Ellipsoid",
    "Parabola",
    "Sphere",
    "distance_squared_family",
    "evolute",
    "parallels",
    "tangent_sphere_check",
    "JetSpace",
    "k_determinacy_dimension",
    "lagrangian_stability_check",
    "sp_plus_versality_check",
    "BlockField",
    "QuasiLinearPDE",
    "breaking_time",
    "burgers",
    "integrate_characteristics",
    "multivalued_count",
    "transport",
]
