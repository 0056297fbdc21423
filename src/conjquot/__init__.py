"""Topology of quotients of real algebraic surfaces by complex conjugation.

Schemes of real plane curves, the two domains they cut out of the
projective plane, elementary moves across the discriminant, Betti
numbers of branched double covers and their quotients, and derivation
search for standardness of Arnold surfaces.
"""

from .schemes import (
    CurveType,
    Oval,
    RealScheme,
    SchemeCatalogEntry,
    canonical_key,
    default_catalog,
    forest_key,
    format_viro,
    harnack_bound,
    l_curve_bound,
    load_catalog,
    parse_viro,
    validate,
)
from .domains import (
    Orientability,
    Side,
    SurfaceDescriptor,
    TrackedScheme,
    arnold_descriptor,
    components_W,
    euler_W,
    real_part_X,
    regions,
)
from .moves import (
    Classification,
    MoveRecord,
    apply,
    detect_log_transform,
    enumerate_moves,
    inverse_move,
    ledger_effect,
)
from .fourman import (
    DoublePlaneInvariants,
    FourManifoldWord,
    StandardSurfaceForm,
    branch_cover_word,
    decomposition,
    double_plane_invariants,
    general_cover_invariants,
    k3_classify,
    parse_word,
    predict_standard_form,
)
from .propagation import (
    Fact,
    FactTable,
    Predicate,
    RHD,
    RelationSpec,
    SUCC,
    propagate,
    relation_search,
    sextic_sweep,
)
from .constructions import (
    BaseCurveSpec,
    FiberedSpec,
    fibered_quotient,
    imaginary_curve_image,
    perturb_u,
    perturb_v,
    quotient_Y_minus,
)
# The tracer needs numpy; it is loaded on first use (PEP 562),
# so the symbolic half starts without it.
_TRACER_NAMES = ("GridConfig", "PolySpec", "TraceResult", "l_curve_sample", "trace_scheme")

__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} | {"tracer", *_TRACER_NAMES}
)


def __getattr__(name: str):
    if name == "tracer" or name in _TRACER_NAMES:
        import importlib

        tracer = importlib.import_module(".tracer", __name__)
        return tracer if name == "tracer" else getattr(tracer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
