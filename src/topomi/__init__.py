"""Topological multipartite information of planar subsystem collections."""

from .engine import (
    CssAnalysis,
    CssFamily,
    EntanglementVector,
    InfoReport,
    InfoSummary,
    RecursionResult,
    SubloopResult,
    annular_order,
    connectivity_count,
    entanglement_vector,
    entropy_of_region,
    information_summary,
    model_entropy_source,
    multipartite_information,
    recursion_check,
    strong_subadditivity_combination,
    subloop_revival,
    subset_entropy_table,
)
from .errors import TopomiError
from .graphs import SimpleGraph, cycle_graph, path_graph, rho, sigma_of_css
from .grid import (
    OUTSIDE,
    GridCss,
    HoleSet,
    adjacency_graph,
    boundary_component_count,
    connected_components,
    euler_characteristic,
    find_holes,
    loop_around_hole,
    parse_ascii,
    perimeter_links,
    restrict_css,
    union_region,
)
from .model import EntropyModel
from .stabilizer import (
    CodeLattice,
    QubitRegionMap,
    StabilizerState,
    brute_force_entropy,
    build_code,
    entropy_bits,
    multipartite_information_exact,
    rasterize_css,
    region_entropy_source,
)

__version__ = "0.1.0"

__all__ = [k for k in dir() if not k.startswith("_")]
