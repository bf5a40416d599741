"""The package carries only code that the package itself calls.

A top-level function, class or assigned name (a constant or a type alias;
dunders such as __version__ aside) of src/uavdsa that nothing in
src/uavdsa references, other than its own definition, is code that only
tests or tools use: it belongs in the tests (exact references live in
tests/exact.py), or it goes. A reference is a name, an attribute or an
import alias anywhere in the package's syntax trees; a mention in a
docstring or a comment is not one. A method or property of a class (dunders
aside) is reached only as an attribute, so it counts as referenced when an
attribute read outside its own body names it. Names are matched without
their module or class, which can only hide an unused definition, never
invent one.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uavdsa"

# reached from outside the package: the console script runs cli.main, and
# cli_dispatch looks its handlers up in globals() by subcommand name
ENTRY_POINTS = re.compile(r"cli\.(main|cmd_\w+)")
# class members read from outside the package: benchmarks/workloads.py reads both
OUTSIDE_READS = {"core.SlotLedger.assignment", "simulate.RunReport.ledgers"}


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def referenced_attributes(node: ast.AST) -> set[str]:
    """The attribute names `node` reads, the only way to reach a member."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or class's, or
    those an assignment binds, dunders aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
                and not (sub.id.startswith("__") and sub.id.endswith("__"))]
    return []


def members(node: ast.stmt) -> list[ast.stmt]:
    """The methods and properties a class statement defines, dunders aside."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [sub for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (sub.name.startswith("__") and sub.name.endswith("__"))]


def unreferenced_definitions(package: Path) -> list[str]:
    """module.name of each name that a top-level statement of `package`
    defines and that no other top-level statement of the package
    references, then module.Class.name of each member of a class whose
    name no attribute in the package reads, outside the member itself."""
    definitions, statements, classes = [], [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append((node, referenced_names(node), referenced_attributes(node)))
            definitions += [(path.stem, name, node) for name in defined_names(node)]
            classes += [(path.stem, node)] if members(node) else []
    unused = [f"{module}.{name}" for module, name, node in definitions
              if not ENTRY_POINTS.fullmatch(f"{module}.{name}")
              and not any(name in names for other, names, _ in statements if other is not node)]
    for module, node in classes:
        body = [(sub, referenced_attributes(sub)) for sub in node.body]
        for member in members(node):
            name = f"{module}.{node.name}.{member.name}"
            if not (name in OUTSIDE_READS
                    or any(member.name in attrs
                           for other, _, attrs in statements if other is not node)
                    or any(member.name in attrs for sub, attrs in body if sub is not member)):
                unused.append(name)
    return unused


def test_every_definition_is_referenced_in_the_package():
    unused = unreferenced_definitions(PACKAGE)
    assert not unused, f"referenced nowhere in src/uavdsa: {', '.join(unused)}"


def test_the_scan_sees_through_docstrings_and_its_own_body(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""helper is named here, in a docstring."""\n'
        "from .b import used\n"
        "__version__ = '0'\n"
        "LIMIT: int = 3\n"
        "UNUSED, Alias = 4, int | None\n"
        "def helper():\n"
        "    return helper()  # recursion is its own definition\n"
        "def caller():\n"
        "    return used.attr\n"
        "class Kept:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def size(self):\n"
        "        return len(self)\n"
        "    def called(self):\n"
        "        return self.size  # a sibling's reference counts\n"
        "    def lonely(self):\n"
        "        return self.lonely()  # the member's own body does not\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def used():\n"
        "    return a.Kept(a.LIMIT).called()\n"
        "def attr():\n"
        "    pass\n"
        "def cmd_x():\n"
        "    pass\n")
    assert unreferenced_definitions(tmp_path) == [
        "a.UNUSED", "a.Alias", "a.helper", "a.caller", "b.cmd_x", "a.Kept.lonely"]
