"""No package path calls the flood fills over sets of cells.

Every number the package computes is read from the grid's one labelling
(``GridCss.labelling``).  The flood-fill layer of ``topomi.grid`` stays
defined for the benchmark's correctness gate and the tests; only its own
function bodies may call it.  The feature rows of the cell complex serve
only the 2^N tables of ``topomi.masks``: C reads the labelling and the
junction corners instead.
"""

import ast
from pathlib import Path

import pytest

import topomi
from topomi import grid

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topomi"
MODULES = sorted(PACKAGE.glob("*.py"))
LAYER = frozenset({
    "connected_components", "_complement_components", "boundary_component_count",
    "union_region", "subsystem_cells", "restrict_css", "_neighbors4",
})


def layer_reads(source: str, exempt=frozenset(), names=LAYER) -> list[str]:
    """Each read of one of ``names``, the layer's by default, as a name, an
    attribute or an imported name, outside the bodies of the functions named
    in ``exempt``; a docstring naming one is no read."""
    found, stack = [], [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in exempt:
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name in names:
            found.append((node.lineno, name))
        stack.extend(ast.iter_child_nodes(node))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_layer_reads_are_found():
    source = (
        'from .grid import union_region as u, find_holes\n'
        'def f(css):\n'
        '    """Not ``restrict_css``."""\n'
        '    return grid.restrict_css(css, [0]).subsystem_cells(0)\n'
        'def connected_components(cells):\n'
        '    return _neighbors4(cells)\n'
    )
    assert layer_reads(source) == [
        "line 1: union_region", "line 4: restrict_css", "line 4: subsystem_cells", "line 6: _neighbors4",
    ]
    assert layer_reads(source, exempt=LAYER) == ["line 1: union_region", "line 4: restrict_css", "line 4: subsystem_cells"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_no_flood_fill(path):
    exempt = LAYER if path.name == "grid.py" else frozenset()
    assert layer_reads(path.read_text(), exempt) == []


def test_only_masks_reads_the_feature_rows():
    readers = [path.name for path in MODULES if layer_reads(path.read_text(), names={"_cell_bits"})]
    assert readers == ["masks.py"]


def test_layer_is_defined_in_grid_and_not_exported():
    assert all(callable(getattr(grid, name)) for name in LAYER - {"subsystem_cells"})
    exported = {"perimeter_links", "region_holes", "entropy_of_region", "model_entropy_source",
                "boundary_component_count", "connected_components", "union_region", "restrict_css"}
    assert not exported & set(dir(topomi))
