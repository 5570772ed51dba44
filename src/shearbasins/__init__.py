"""Shear-built automorphisms tangent to the identity and their basins.

The package constructs five-factor shear/overshear words in C^{k+1} that
are automorphisms tangent to the identity, certifies their power-series
normal form with a sparse jet engine, analyses characteristic directions
and directors of the leading homogeneous term, and explores orbits and
basin slices numerically.
"""

from .jets import DEFAULT_ORDER, DimensionError, DomainError, Jet, JetMap, OrderRangeError
from .maps import (
    ElementaryKind,
    ElementaryMap,
    MapWord,
    Params,
    Prototype,
    SemiConjugacyError,
    build_F,
    build_family,
    eval_pushforward,
    family_in_regime,
    map_from_spec,
    planar_word,
    project_pi,
    push_forward,
    verify_normal_form,
)
from .directions import (
    CharacteristicDirection,
    IdentityJetError,
    LeadingTerm,
    UnsupportedDimensionError,
    characteristic_directions,
    characteristic_set_dimension,
    classify,
    leading_term,
)
from .dynamics import (
    BasinRaster,
    InsufficientDataError,
    Orbit,
    OrbitConfig,
    SliceSpec,
    Status,
    estimate_tangent,
    iterate,
    sample_slice,
    write_orbit_csv,
    write_pgm,
)
from .report import CheckResult, Report

__version__ = "0.1.0"
