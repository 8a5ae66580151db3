"""One home for random streams: ``sde`` builds every generator of the package
and alone knows a stream's counter blocks.

Parsing ``src/sloc``, this guard requires that
- only ``sde`` calls a ``numpy.random`` constructor, such as ``Philox`` or
  ``Generator``, however numpy or the name is imported;
- only ``sde`` reads a salt name (``SALT_NOISE``, ``SALT_INIT``, ``SALT_IS``)
  as code; a docstring may still name one;
- ``sde`` imports no module of the package, so the stream layer depends on
  no math layer.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sloc"
HOME = "sde"


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted name it was imported as, for every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    return names


def _dotted(node: ast.AST, names: dict[str, str]) -> str | None:
    """The imported dotted name a chain ``a.b.c`` resolves to, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in names:
        return None
    return ".".join([names[node.id]] + parts[::-1])


def numpy_random_calls(trees: dict[str, ast.Module]) -> list[str]:
    """``module:line name`` of each call of a ``numpy.random`` name outside ``sde``."""
    out = []
    for module, tree in trees.items():
        names = _imported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func, names)
                if module != HOME and name is not None and name.startswith("numpy.random."):
                    out.append(f"{module}:{node.lineno} {name}")
    return out


def salt_reads(trees: dict[str, ast.Module]) -> list[str]:
    """``module:line name`` of each salt name read as code outside ``sde``."""
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if module != HOME and name is not None and name.startswith("SALT_"):
                out.append(f"{module}:{node.lineno} {name}")
    return out


def package_imports_of_home(trees: dict[str, ast.Module]) -> list[str]:
    """Each import in ``sde`` of a module of the package, relative or absolute."""
    out = []
    for node in ast.walk(trees[HOME]):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "sloc"):
            out.append(f"{'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            out += [a.name for a in node.names if a.name.split(".")[0] == "sloc"]
    return out


def test_only_sde_builds_generators():
    assert numpy_random_calls(_trees()) == []


def test_only_sde_reads_the_salts():
    assert salt_reads(_trees()) == []


def test_sde_imports_no_package_module():
    assert package_imports_of_home(_trees()) == []


def test_the_guard_finds_each_breach():
    # Every way round the layout that the checks above must catch.
    trees = {
        HOME: ast.parse("from .targets import _U64\nfrom sloc import targets\nimport sloc.rgd\n"),
        "targets": ast.parse(
            "import numpy\nimport numpy as np\nfrom numpy import random\nfrom numpy.random import Philox as P\n"
            "np.random.Generator(P(1))\nnumpy.random.default_rng(2)\nrandom.Philox(3)\n"
        ),
        "localize": ast.parse(
            'from .sde import SALT_INIT\nfrom . import sde\ndef f():\n    """SALT_IS"""\n    return sde.SALT_IS\n'
        ),
    }
    calls = [
        "targets:5 numpy.random.Generator",
        "targets:5 numpy.random.Philox",
        "targets:6 numpy.random.default_rng",
        "targets:7 numpy.random.Philox",
    ]
    assert sorted(numpy_random_calls(trees)) == calls
    assert sorted(salt_reads(trees)) == ["localize:1 SALT_INIT", "localize:5 SALT_IS"]
    assert package_imports_of_home(trees) == [".targets", "sloc", "sloc.rgd"]
