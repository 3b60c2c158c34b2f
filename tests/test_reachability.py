"""Every top-level function and class of the package runs under a command.

``topomi.cli.main`` is the root.  A top-level function, class or assigned
name of a package module is reached when the body of something reached
names it, as a name, an attribute or a keyword argument; so a reached
class reaches its bases, its decorators and its methods.  A name is matched
by its bare name in every module, which can only count more as reached.
What ``main`` does not reach must be on ``LIBRARY``, with the reason it
stays in ``src/``, or be reached from an entry there.  An entry names a
module (all of it), a top-level name, or a class member, which counts as
reached when a reached body outside its class names it.  An entry that
``main`` reaches, or that names nothing, fails, so the list shrinks as the
work that removes its names lands.
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
}


def _defined(tree: ast.Module) -> dict[str, ast.AST]:
    """The module's top-level functions, classes and assigned names."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                out.update((name.id, node) for name in ast.walk(target) if isinstance(name, ast.Name))
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
    """The ``module.name`` keys reached from ``roots``."""
    where: dict[str, list[str]] = {}
    for key in nodes:
        where.setdefault(key.split(".")[1], []).append(key)
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            for read in _named(nodes[key]):
                stack.extend(where.get(read, ()))
    return seen


def _members(node: ast.AST | None) -> set[str]:
    """The methods and class-level names of a class; nothing for another node."""
    if not isinstance(node, ast.ClassDef):
        return set()
    return set(_defined(ast.Module(body=node.body, type_ignores=[])))


def problems(sources: dict[str, str], library: dict[str, str], root: str = ROOT) -> list[str]:
    """What fails the rule, for modules given as ``{name: source}``."""
    nodes = {
        f"{module}.{name}": node
        for module, source in sources.items() for name, node in _defined(ast.parse(source)).items()
    }
    from_root = _reached(nodes, [root])
    out, roots = [], [root]
    for entry in library:
        module, *rest = entry.split(".")
        if len(rest) == 2:
            cls, member = f"{module}.{rest[0]}", rest[1]
            if member not in _members(nodes.get(cls)):
                out.append(f"LIBRARY entry {entry} names nothing")
            elif any(member in _named(nodes[key]) for key in from_root if key != cls):
                out.append(f"LIBRARY entry {entry} is reached from {root}")
            continue
        keys = [key for key in nodes if key == entry or not rest and key.split(".")[0] == module]
        if not keys:
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


# a command that runs a chain of helpers, a class with a base and a method,
# and a library module
SYNTHETIC = {
    "cli": "def main():\n    return core.helper(size=2)\n",
    "core": (
        "LIMIT = 3\n"
        "def helper(size):\n"
        "    return Leaf(size).grow()\n"
        "class Base:\n"
        "    pass\n"
        "class Leaf(Base):\n"
        "    size: int\n"
        "    depth: int = LIMIT\n"
        "    def grow(self):\n"
        "        return deep(self.depth)\n"
        "def deep(n):\n"
        "    return n\n"
    ),
    "shapes": "def ring():\n    return core.Leaf(1)\n",
}


def test_a_chain_from_main_and_a_method_through_its_class_are_reached():
    # deep is named only in the method of the class helper reaches
    assert problems(SYNTHETIC, {"shapes": "inputs"}) == []
    assert problems(SYNTHETIC, {"shapes": "inputs", "core.Leaf.depth": "set by no command"}) == []


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
