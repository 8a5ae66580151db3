"""Every public top-level name of the library, and every public method and
property of its public classes, is read by the program itself.

A function, class, constant or member that only tests call is code kept alive
for its own tests; this guard parses ``src/sloc``, ``scripts`` and
``slocbench`` (without its tests) and requires each public name of
``src/sloc`` to be referenced outside its own definition.  A function
registered with ``register_potential`` is reachable from a config file, so it
counts as read.  A member counts as read when the program loads an attribute
of its name from any object (an assignment is no read): matching is by name,
so a member is missed when another class's member of the same name is read.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sloc"
READERS = (PACKAGE, ROOT / "scripts", ROOT / "slocbench")


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _registered(node: ast.stmt) -> bool:
    decorators = getattr(node, "decorator_list", [])
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "register_potential"
        for d in decorators
    )


def _names_read(tree: ast.AST) -> set[str]:
    """Names, attributes, imported names and the words of string constants in
    ``tree``, docstrings aside; the benchmark's tracer reads layers by dotted
    name, as ``"rgd.rgd_step.calls"``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return out


def _program_trees() -> dict[Path, ast.Module]:
    files = [p for d in READERS for p in sorted(d.rglob("*.py")) if "tests" not in p.relative_to(ROOT).parts]
    return {p: ast.parse(p.read_text(), str(p)) for p in files}


def unread_public_names() -> list[str]:
    """``module.name`` of each public top-level name of the package that no
    top-level statement but its own definition reads."""
    trees = _program_trees()
    reads = {id(stmt): _names_read(stmt) for tree in trees.values() for stmt in tree.body}
    readers = Counter(name for names in reads.values() for name in names)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in trees[path].body:
            for name in _defined(stmt):
                if not (name.startswith("_") or _registered(stmt)) and readers[name] <= (name in reads[id(stmt)]):
                    unread.append(f"{path.stem}.{name}")
    return unread


def unread_public_members() -> list[str]:
    """``module.Class.member`` of each public method or property of a public
    class of the package whose name the program never reads as an attribute."""
    trees = _program_trees()
    attributes = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.stem}.{cls.name}.{member.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in trees[path].body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and member.name not in attributes
    ]


def test_every_public_name_is_read_by_the_program():
    assert unread_public_names() == []


def test_every_public_member_is_read_by_the_program():
    assert unread_public_members() == []
