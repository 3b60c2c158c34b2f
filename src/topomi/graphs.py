"""Alternating component-count invariant over induced subgraphs.

For a finite simple graph the invariant is

    rho = sum over nontrivial induced subgraphs G' of (-1)^|V(G')| H0(G'),

where H0 counts connected components and "nontrivial" excludes the empty
vertex set and the full vertex set.  Path graphs give rho(P_n) = (-1)^(n-1)
for n >= 3 (rho(P_1) = 0 and rho(P_2) = -2) and cycle graphs give
rho(C_n) = 0, which is what makes open chains vanish and rings survive in
the subsystem-counting identities.  The alternating sum comes from
:mod:`topomi.walk`, as a CSS's C does, and the full set's component count
from ``grid.count_components``, as J's and chi's do.  rho
is read from the signed component sum, split over the blocks of the graph:
for v >= 3 only a block that holds every vertex counts, a cycle graph adds
(-1)^v in closed form, a 2-connected graph with a chord is walked, and no
2^v table is read unless that walk passes its state cap.  sigma reads its
precondition from the grid's labelling and adds the full set's J, two
``grid.count_components`` over the same labelling, to C^N, so it needs no
table either, and a failed precondition names the failed condition at
every N.
Every table is capped at ``masks.MAX_SUBSYSTEMS`` vertices or subsystems.
"""

from __future__ import annotations

from collections.abc import Mapping

from .engine import CssAnalysis
from .errors import ParseError, PreconditionViolated
from .grid import OUTSIDE, GridCss, SimpleGraph, count_components, hole_name, json_int, set_bits, union_boundary_count
from .walk import signed_component_sum


def rho(graph: SimpleGraph) -> int:
    """Alternating sum of component counts over nontrivial induced subgraphs:
    the signed sum over every vertex set (``walk.signed_component_sum``;
    for three vertices or more only a block that holds every vertex counts,
    so only a 2-connected graph with a chord is walked, and its walk past
    the state cap reads the induced component table), less the full set's
    term, whose components ``grid.count_components`` counts."""
    v, adj = graph.vertex_count, graph.neighbor_masks
    near = [set(set_bits(mask)) for mask in adj]
    return signed_component_sum(adj, [1 << i for i in range(v)]) - (-1) ** v * count_components(near, range(v))


def sigma_of_css(css: GridCss | CssAnalysis) -> int:
    """Partial alternating J sum over proper subsets, tied to -rho.

    Valid only when every proper non-empty union S is a disk arrangement:
    J(S) equals h0(S), the component count of the subgraph of the adjacency
    graph induced by S.  For N >= 2 that holds exactly when
    (a) every subsystem is one component of the grid's labelling,
    (b) every subsystem walls the outside, component 0, and
    (c) every hole is walled by every subsystem
    (:func:`disk_arrangement_fault`); N = 1 has no proper subset.  With (a)
    the cell-component graph is the adjacency graph, so J(S) - h0(S) counts
    the holes of the union of S.  A proper union encloses a bounded
    complement component exactly when a subsystem missing from it does not
    wall component 0 (the union of all the others encloses it), or a hole
    has all its walling subsystems in it (the union of all but a subsystem
    not walling the hole encloses it); a split subsystem alone has J >= 2.

    So no 2^N table is read: sigma is C^N less the full set's term, whose J,
    the footprint's components plus its holes, is read from the labelling
    (``grid.union_boundary_count``).  A failure names the failed condition
    and its subsystem or hole, at every N.
    """
    analysis = CssAnalysis.of(css)
    n = analysis.css.n_subsystems
    fault = disk_arrangement_fault(analysis.css)
    if fault is not None:
        raise PreconditionViolated(f"{fault} (a subsystem or proper union is not a disk arrangement)")
    # C^N less the full set's term
    j_full = union_boundary_count(analysis.css, range(n))
    return analysis.c_n - (-1) ** (n - 1) * j_full


def disk_arrangement_fault(css: GridCss) -> str | None:
    """The first of :func:`sigma_of_css`'s conditions (a)-(c) that ``css``
    fails, naming the subsystem or hole, or None when every proper union is
    a disk arrangement; read from the labelling, in O(components + walls)."""
    n = css.n_subsystems
    if n == 1:
        return None
    labels, near, holes = css.labelling
    component: dict[int, int] = {}  # subsystem -> its one labelling component
    for c, label in enumerate(labels):
        if label != OUTSIDE:
            if label in component:
                return f"subsystem {label} has more than one component"
            component[label] = c
    for i in range(n):
        if 0 not in near[component[i]]:
            return f"subsystem {i} does not wall the outside"
    for k, (hole, c) in enumerate(holes.items(), 1):
        if len(near[c]) != n:  # a hole's walls are with subsystems, one component each
            missing = min(set(range(n)).difference(labels[b] for b in near[c]))
            return f"{hole_name(k, len(holes), hole)} is not walled by subsystem {missing}"
    return None


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def parse_graph_json(obj: Mapping) -> SimpleGraph:
    """Parse ``{"v": int, "edges": [[i, j], ...]}``."""
    try:
        v = json_int(obj["v"], "graph 'v'")
        end = "a graph edge end"
        edges = tuple((json_int(i, end), json_int(j, end)) for i, j in obj["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph object: {exc}") from exc
    return SimpleGraph(v, edges)


def parse_graph_text(text: str) -> SimpleGraph:
    """Parse edge-list lines ``i j``, each id a run of ASCII digits 0-9; vertex
    count is 1 + max id.  An error names its line by its number in the text,
    counted from 1."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'i j', got {line!r}")
        for token in parts:
            if not (token.isascii() and token.isdigit()):
                raise ParseError(f"line {lineno}: vertex id {token!r} is not a run of digits 0-9")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ParseError("no edges found")
    v = 1 + max(max(i, j) for i, j in edges)
    return SimpleGraph(v, tuple(edges))

