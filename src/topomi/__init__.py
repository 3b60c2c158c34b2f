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
    information_summary,
    multipartite_information,
    recursion_check,
    subloop_revival,
    subset_entropy_table,
)
from .errors import TopomiError
from .graphs import SimpleGraph, rho, sigma_of_css
from .grid import (
    OUTSIDE,
    GridCss,
    HoleSet,
    adjacency_graph,
    euler_characteristic,
    find_holes,
    loop_around_hole,
    parse_ascii,
)
from .model import EntropyModel
from .stabilizer import (
    CodeLattice,
    QubitRegionMap,
    StabilizerState,
    build_code,
    entropy_bits,
    multipartite_information_exact,
    rasterize_css,
)

__version__ = "0.1.0"

__all__ = [k for k in dir() if not k.startswith("_")]
