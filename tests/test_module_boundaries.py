"""Module boundaries, read from the source: each module of the package and
each script reaches the package's other modules only through public names,
the CLI reads no block of a system (each design route checks the system's
shape itself), the design module computes without writing a file (the CLI
writes every output) and without linear algebra of its own
(``analysis.unit_gram`` scores every candidate), and the simulation runs in
the Jordan frame without the companion basis B or its inverse."""
import ast
from pathlib import Path

from nusample import cli, design, simulate

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PACKAGE = Path(cli.__file__).resolve().parent


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def _private_reads(tree):
    """(name, line) of every underscore-prefixed, non-dunder name that
    ``tree`` imports from a nusample module or reads as an attribute of one."""
    modules = {"nusample"}  # local names bound to a nusample module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nusample":
            for a in node.names:
                if node.module == "nusample":
                    modules.add(a.asname or a.name)
                if a.name.startswith("_"):
                    found.append((a.name, node.lineno))
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "nusample"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append((node.attr, node.lineno))
    return found


def _file_writes(tree):
    """(what, line) of every import of csv and every call to open."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append(("csv", node.lineno))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "open":
                found.append(("open", node.lineno))
    return found


def _linalg_uses(tree):
    """(name, line) of every call to a function of an attribute named
    ``linalg`` (np.linalg.det, numpy.linalg.qr) and of every import of
    numpy.linalg or of a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
                found.append((node.func.attr, node.lineno))
        elif isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names if a.name == "numpy.linalg"]
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "numpy.linalg"
                or node.module == "numpy" and any(a.name == "linalg" for a in node.names)):
            found.append((node.module, node.lineno))
    return found


def _attribute_reads(tree, names):
    """(name, line) of every attribute read whose name is in ``names``."""
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names]


COMPANION_BASIS = {"B", "B_inv"}


def test_simulate_reads_no_companion_basis():
    assert _attribute_reads(_tree(simulate), COMPANION_BASIS) == []


def test_the_attribute_scan_sees_what_it_forbids():
    tree = ast.parse("es.B @ x\n"
                     "spec.eigen.B_inv.T\n"
                     "es.Bx + B\n")
    assert sorted(_attribute_reads(tree, COMPANION_BASIS)) == [("B", 1), ("B_inv", 2)]


def test_modules_read_no_private_name_of_another():
    found = [(module.name, *hit) for module in sorted(PACKAGE.glob("*.py"))
             for hit in _private_reads(ast.parse(module.read_text()))]
    assert found == []


def test_cli_reads_no_block_of_the_system():
    assert _attribute_reads(_tree(cli), {"blocks"}) == []


def test_scripts_read_no_private_name_of_the_package():
    found = [(script.name, *hit) for script in sorted(SCRIPTS.glob("*.py"))
             for hit in _private_reads(ast.parse(script.read_text()))]
    assert found == []


def test_design_writes_no_file():
    assert _file_writes(_tree(design)) == []


def test_design_calls_no_linear_algebra():
    assert _linalg_uses(_tree(design)) == []


def test_the_scans_see_what_they_forbid():
    tree = ast.parse("import csv\n"
                     "from nusample import design as d\n"
                     "from nusample.lti import _overflow\n"
                     "import nusample.analysis\n"
                     "d._geometric_obstacle(nusample.analysis._x, d.__name__)\n"
                     "open('f')\n")
    assert sorted(_private_reads(tree)) == [("_geometric_obstacle", 5),
                                            ("_overflow", 3), ("_x", 5)]
    assert _file_writes(tree) == [("csv", 1), ("open", 6)]


def test_the_linalg_scan_sees_what_it_forbids():
    tree = ast.parse("import numpy as np\n"
                     "np.linalg.det(m)\n"
                     "from numpy.linalg import qr\n"
                     "from numpy import linalg\n"
                     "import numpy.linalg\n"
                     "np.linalg.norm\n"
                     "np.cross(a, b)\n")
    assert sorted(_linalg_uses(tree)) == [("det", 2), ("numpy", 4), ("numpy.linalg", 3),
                                          ("numpy.linalg", 5)]
