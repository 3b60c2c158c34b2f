"""Every function, class and class member of the package runs under a command.

``topomi.cli.main`` is the root.  A top-level function, class or assigned
name of a package module, or a method, property or cached property of a
class, is reached when the body of something reached names it, as a name,
an attribute or a keyword argument.  A reached class reaches its bases, its
decorators, its fields and its dunder methods, but not its other members:
each of those must be named by a reached body of its own, which may be
another member's.  A name is matched by its bare name in every module and
class, which can only count more as reached.  What ``main`` does not reach
must be on ``LIBRARY``, with the reason it stays in ``src/``, or be reached
from an entry there.  An entry names a module (all of it), a top-level name
(a class with its members), a class member, or a class-level name, which
counts as reached when a reached body outside its class names it.  An
entry that ``main`` reaches, or that names nothing, fails, so the list
shrinks as the work that removes its names lands.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topomi"
ROOT = "cli.main"

#: what stays in src/ although no command runs it, and why
LIBRARY = {
    "builders": "the grids of scripts/generate_gallery.py, of the benchmark's inputs and of the tests",
    "engine.multipartite_information": "the random-n20 benchmark op, and README's library example",
    "engine.recursion_check": "perfbench binds its span (ROADMAP R); B deletes it",
    "engine.subset_entropy_table": "read by recursion_check and the tests; B and T leave it no reader",
    "model.EntropyModel.alpha": "only the tests' alpha sweeps set it; T retargets criterion 8 and B deletes "
                                "the recursion check it reaches",
    "grid.restrict_css": "perfbench binds its span (ROADMAP R); O moves it to tests/flood_reference.py",
    "grid.connected_components": "the benchmark's input fingerprint (ROADMAP R); O moves it",
    "grid.boundary_component_count": "the random-n20 correctness gate (ROADMAP R); O moves it",
    "grid.union_region": "the random-n20 correctness gate (ROADMAP R); O moves it",
    "stabilizer.entropy_bits": "perfbench binds its span (ROADMAP R); U then moves it to the tests",
    "grid.GridCss.label_at": "perfbench's place_ring (ROADMAP R, then O)",
    "grid.GridCss.subsystem_cells": "perfbench's input fingerprint (ROADMAP R, then O)",
    "grid.GridCss.to_ascii": "perfbench/selfcheck.py and scripts/generate_gallery.py",
    "masks.UnionTopology.euler_table": "perfbench's _TABLE_SPANS (ROADMAP R, then B)",
    "masks.UnionTopology.component_table": "perfbench's _TABLE_SPANS (ROADMAP R, then B)",
    "engine.RecursionResult.residual": "the result of recursion_check, which B deletes",
}


def _defined(body: list[ast.stmt]) -> dict[str, ast.AST]:
    """The functions, classes and assigned names of a module or class body."""
    out = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                out.update((name.id, node) for name in ast.walk(target) if isinstance(name, ast.Name))
    return out


def _is_member(node: ast.AST) -> bool:
    """A method or property that its class does not reach by itself."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _nodes(module: str, source: str) -> dict[str, ast.AST]:
    """``module.name`` for each top-level name, ``module.Class.member`` for
    each member of a class; a class keeps its bases, decorators, fields and
    dunder methods, and its members are nodes of their own."""
    out = {}
    for name, node in _defined(ast.parse(source).body).items():
        if isinstance(node, ast.ClassDef):
            members = [sub for sub in node.body if _is_member(sub)]
            out.update((f"{module}.{name}.{sub.name}", sub) for sub in members)
            node = ast.ClassDef(
                name=node.name, bases=node.bases, keywords=node.keywords, decorator_list=node.decorator_list,
                body=[sub for sub in node.body if sub not in members],
            )
        out[f"{module}.{name}"] = node
    return out


def _named(node: ast.AST) -> set[str]:
    """Every name, attribute and keyword argument in the node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.keyword) and sub.arg:
            out.add(sub.arg)
    return out


def _reached(nodes: dict[str, ast.AST], roots) -> set[str]:
    """The keys reached from ``roots``, a key by its bare last part."""
    where: dict[str, list[str]] = {}
    for key in nodes:
        where.setdefault(key.rpartition(".")[2], []).append(key)
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            for read in _named(nodes[key]):
                stack.extend(where.get(read, ()))
    return seen


def problems(sources: dict[str, str], library: dict[str, str], root: str = ROOT) -> list[str]:
    """What fails the rule, for modules given as ``{name: source}``."""
    nodes = {key: node for module, source in sources.items() for key, node in _nodes(module, source).items()}
    from_root = _reached(nodes, [root])
    out, roots = [], [root]
    for entry in library:
        keys = [key for key in nodes if key == entry or key.startswith(entry + ".")]
        cls, _, field = entry.rpartition(".")
        if not keys and isinstance(nodes.get(cls), ast.ClassDef) and field in _defined(nodes[cls].body):
            # a class-level name is reached with its class: it is on the
            # list when no reached body outside its class names it
            if any(field in _named(nodes[key]) for key in from_root if key != cls and not key.startswith(cls + ".")):
                out.append(f"LIBRARY entry {entry} is reached from {root}")
        elif not keys:
            out.append(f"LIBRARY entry {entry} names nothing")
        elif from_root.intersection(keys):
            out.append(f"LIBRARY entry {entry} is reached from {root}")
        roots += keys
    covered = _reached(nodes, roots)
    out += [
        f"{key} is neither reached from {root} nor on LIBRARY"
        for key, node in nodes.items()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and key not in covered
    ]
    return sorted(out)


# a command that runs a chain of helpers, a class with a base, a dunder
# method, a method reached through an instance and a property reached from
# that method, and a library module
SYNTHETIC = {
    "cli": "def main():\n    return core.helper(size=2)\n",
    "core": (
        "LIMIT = 3\n"
        "def helper(size):\n"
        "    leaf = Leaf(size)\n"
        "    return leaf.grow()\n"
        "class Base:\n"
        "    pass\n"
        "class Leaf(Base):\n"
        "    size: int\n"
        "    depth: int = LIMIT\n"
        "    def __post_init__(self):\n"
        "        check(self.size)\n"
        "    def grow(self):\n"
        "        return deep(self.height)\n"
        "    @property\n"
        "    def height(self):\n"
        "        return self.depth + 1\n"
        "def check(n):\n"
        "    return n\n"
        "def deep(n):\n"
        "    return n\n"
    ),
    "shapes": "def ring():\n    return core.Leaf(1)\n",
}


def _core(old: str, new: str) -> dict[str, str]:
    """SYNTHETIC with one piece of ``core`` replaced."""
    assert SYNTHETIC["core"].count(old) == 1
    return {**SYNTHETIC, "core": SYNTHETIC["core"].replace(old, new)}


def test_a_chain_from_main_and_a_method_through_its_class_are_reached():
    # check is named only in the dunder method, deep only in grow
    assert problems(SYNTHETIC, {"shapes": "inputs"}) == []
    assert problems(SYNTHETIC, {"shapes": "inputs", "core.Leaf.depth": "set by no command"}) == []


def test_a_method_reached_only_through_an_instance_attribute_passes():
    assert problems(SYNTHETIC, {"shapes": "inputs"}) == []
    # the class alone reaches neither grow nor what grow names
    assert problems(_core("    return leaf.grow()\n", "    return leaf\n"), {"shapes": "inputs"}) == [
        "core.Leaf.grow is neither reached from cli.main nor on LIBRARY",
        "core.Leaf.height is neither reached from cli.main nor on LIBRARY",
        "core.deep is neither reached from cli.main nor on LIBRARY",
    ]


def test_a_property_reached_only_from_another_reached_method_passes():
    assert problems(SYNTHETIC, {"shapes": "inputs"}) == []
    assert problems(_core("deep(self.height)", "deep(self.depth)"), {"shapes": "inputs"}) == [
        "core.Leaf.height is neither reached from cli.main nor on LIBRARY",
    ]


def test_an_unused_method_of_a_reached_class_fails():
    sources = _core("    def grow(self):\n", "    def unused(self):\n        return 0\n    def grow(self):\n")
    assert problems(sources, {"shapes": "inputs"}) == [
        "core.Leaf.unused is neither reached from cli.main nor on LIBRARY",
    ]
    assert problems(sources, {"shapes": "inputs", "core.Leaf.unused": "kept"}) == []


def test_a_library_member_entry_that_main_reaches_fails():
    library = {"shapes": "inputs", "core.Leaf.grow": "named by helper", "core.Leaf.height": "named by grow"}
    assert problems(SYNTHETIC, library) == [
        "LIBRARY entry core.Leaf.grow is reached from cli.main",
        "LIBRARY entry core.Leaf.height is reached from cli.main",
    ]


def test_an_unreached_function_fails():
    sources = {**SYNTHETIC, "core": SYNTHETIC["core"] + "def orphan():\n    return deep(1)\n"}
    assert problems(sources, {"shapes": "inputs"}) == ["core.orphan is neither reached from cli.main nor on LIBRARY"]
    assert problems(sources, {"shapes": "inputs", "core.orphan": "kept"}) == []
    assert problems(SYNTHETIC, {}) == ["shapes.ring is neither reached from cli.main nor on LIBRARY"]


def test_a_stale_library_entry_fails():
    library = {
        "shapes": "inputs", "core.gone": "removed", "gone": "removed", "core.helper": "reached",
        "core.Leaf.size": "named by main", "core.Leaf.gone": "removed", "core.LIMIT.real": "no class",
        "cli": "reached",
    }
    assert problems(SYNTHETIC, library) == [
        "LIBRARY entry cli is reached from cli.main",
        "LIBRARY entry core.LIMIT.real names nothing",
        "LIBRARY entry core.Leaf.gone names nothing",
        "LIBRARY entry core.Leaf.size is reached from cli.main",
        "LIBRARY entry core.gone names nothing",
        "LIBRARY entry core.helper is reached from cli.main",
        "LIBRARY entry gone names nothing",
    ]


def test_the_package_runs_what_it_defines():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert problems(sources, LIBRARY) == []
