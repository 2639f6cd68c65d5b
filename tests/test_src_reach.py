"""Every function, class and method in src/exactcft is used in src/exactcft.

The package holds what the CLI runs and the checks it runs on itself;
reference oracles and test-only helpers live in tests/oracles.py. This guard
walks the AST of every module and requires each top-level function and
class, and each method, to be named somewhere in the package outside its own
definition, as a name or as an attribute (``obj.method``). Dunder methods are
exempt (Python calls them), and so are the functions cftbench/traced_cli.py
wraps by name, which the benchmark reads.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "exactcft"


def _traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("traced_cli", ROOT / "cftbench" / "traced_cli.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr for _, attr, _ in tracer.TARGETS.values()}


def _references(tree: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    exempt = _traced_names()
    unused = [
        f"{fname}: {qualname}"
        for fname, tree in trees.items()
        for qualname, node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__") or node.name in exempt)
        and total[node.name] <= _references(node)[node.name]
    ]
    assert not unused, "defined in src/exactcft but never used there:\n" + "\n".join(unused)
