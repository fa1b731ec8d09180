"""Exact dg-algebra structures on resolutions of squarefree monomial
ideals: Taylor and Lyubeznik resolutions, discrete Morse reductions,
mapping-cone resolutions for small-diameter trees, resolution pruning, and
a certified classification of dg trees and dg cycles.

All arithmetic is exact (integers and `fractions.Fraction`)."""

from .classify import (
    CITED_FACTS,
    VERSION,
    Certificate,
    UnsupportedGraphError,
    classify,
    kruskal_katona_is_fvector,
    verify_certificate,
)
from .combin import (
    Graph,
    GraphError,
    build_family,
    cycle_graph,
    edge_ideal,
    graph_diameter,
    lyubeznik_graph,
    path_graph,
    t4_tree,
)
from .complexes import (
    BasisLabel,
    ChainMap,
    ComplexError,
    LabeledFreeComplex,
    complexes_equal,
    desuspend_truncation,
    graded_betti,
    mapping_cone,
    multiplication_map,
    total_betti,
)
from .dg import (
    DGError,
    DGIdealError,
    DGStructure,
    Element,
    QuotientDG,
    SpanGenerator,
    SubmoduleSpan,
    dg_check,
    dg_ideal_closure,
    quotient_dg,
    span_from_matching_sources,
    submodule_membership,
)
from .diam4 import (
    ConeResolution,
    StarDecomposition,
    build_cone_resolution,
    diam4_betti,
    lyubeznik_betti,
    star_decompose,
)
from .morse import (
    MorseError,
    TaylorGraph,
    lyubeznik_matching,
    lyubeznik_resolution,
    matching_quotient,
    morse_reduce,
    taylor_graph,
    validate_matching,
)
from .poly import (
    Monomial,
    MonomialIdeal,
    PolyError,
    VariableSet,
    lcm_of,
    minimalize,
    parse_monomial,
)
from .prune import PruneResult, PrunedDG, prune_complex, prune_dg, prune_ideal
from .taylor import taylor_dg_structure, taylor_resolution

__version__ = VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
