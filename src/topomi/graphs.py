"""Alternating component-count invariant over induced subgraphs.

For a finite simple graph the invariant is

    rho = sum over nontrivial induced subgraphs G' of (-1)^|V(G')| H0(G'),

where H0 counts connected components and "nontrivial" excludes the empty
vertex set and the full vertex set.  Path graphs give rho(P_n) = (-1)^(n-1)
for n >= 3 (rho(P_1) = 0 and rho(P_2) = -2) and cycle graphs give
rho(C_n) = 0, which is what makes open chains vanish and rings survive in
the subsystem-counting identities.  Component counts and alternating sums
come from :mod:`topomi.masks`, as for a CSS's per-subset tables.  rho is
read from the signed component sum of the frontier walk, which needs no
2^v table unless it passes its state cap; sigma compares whole tables.
Every table is capped at ``masks.MAX_SUBSYSTEMS`` vertices or subsystems.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .engine import CssAnalysis
from .errors import ParseError, PreconditionViolated, ValidationError
from .grid import GridCss, SimpleGraph, json_int, subset_letters
from .masks import component_counts, count_components, signed_component_sum


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValidationError("cycle graph needs at least 3 vertices")
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def induced_component_table(graph: SimpleGraph) -> np.ndarray:
    """Components of the induced subgraph on every vertex bitmask (entry 0 is 0)."""
    return component_counts(graph.neighbor_masks, [1 << i for i in range(graph.vertex_count)])


def rho(graph: SimpleGraph) -> int:
    """Alternating sum of component counts over nontrivial induced subgraphs:
    the signed sum over every vertex set (``masks.signed_component_sum``,
    which reads the induced component table when its walk passes the state
    cap), less the full set's term."""
    v, adj = graph.vertex_count, graph.neighbor_masks
    return signed_component_sum(adj, [1 << i for i in range(v)]) - (-1) ** v * count_components(adj)


def sigma_of_css(css: GridCss | CssAnalysis) -> int:
    """Partial alternating J sum over proper subsets, tied to -rho.

    Valid only when every proper union's boundary count equals the
    component count of the induced adjacency subgraph (in particular each
    subsystem is a hole-free disk and no proper union encloses a hole);
    the first violating subset mask is reported otherwise.
    """
    analysis = CssAnalysis.of(css)
    n = analysis.css.n_subsystems
    j = analysis.j_table[1:-1]
    h0 = induced_component_table(analysis.graph)[1:-1]
    bad = np.flatnonzero(j != h0)
    if bad.size:
        k = int(bad[0])  # index of mask k + 1
        raise PreconditionViolated(
            f"subset mask {k + 1:#x} {subset_letters(k + 1)} has J = {j[k]} "
            f"but induced component count {h0[k]} "
            "(a subsystem or proper union is not a disk arrangement)",
            mask=k + 1,
        )
    # C^N less the full set's term
    return analysis.c_n - (-1) ** (n - 1) * int(analysis.j_table[-1])


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
    """Parse edge-list lines ``i j``; vertex count is 1 + max id."""
    edges = []
    for lineno, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not edges:
        raise ParseError("no edges found")
    v = 1 + max(max(i, j) for i, j in edges)
    return SimpleGraph(v, tuple(edges))

