"""Every function, class and method in src/exactcft is used in src/exactcft,
every parameter default there is overridden by some call there, and every
annotated class field there is read there.

The package holds what the CLI runs and the checks it runs on itself;
reference oracles and test-only helpers live in tests/oracles.py. This guard
walks the AST of every module and requires each top-level function and
class, and each method, to be named somewhere in the package outside its own
definition, as a name or as an attribute (``obj.method``). Dunder methods are
exempt (Python calls them), and so are the functions cftbench/traced_cli.py
wraps by name, which the benchmark reads. A last guard asks the same of
tests/oracles.py: each of its top-level functions and classes is named by a
test file or by another oracle.
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


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_used_in_the_package():
    trees = _trees()
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


def _defaulted_params(func: ast.FunctionDef):
    """(position, name) of each parameter with a default; position counts
    from the first argument a caller passes (after self or cls), and is None
    for keyword-only parameters."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    for k, arg in enumerate(positional[first:], first):
        yield k - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(tree: ast.Module):
    """(callee name, call) of each call in tree. A constructor call is named
    by its class, and so is cls(...) inside a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "cls":
                    yield node.name, call
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id != "cls":
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node

def _sets(call: ast.Call, position, name: str) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_is_set_in_the_package():
    """A parameter default that no call in src/exactcft overrides is a knob
    nothing turns. Calls match by name, as in the guard above, and __init__
    by its class; cli.main(argv=) is exempt, because the tests pass the
    command line through it."""
    trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for callee, call in _calls(tree):
            calls.setdefault(callee, []).append(call)
    unset = []
    for fname, tree in trees.items():
        owner = {
            item: node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
        }
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            if (fname, func.name) == ("cli.py", "main"):
                continue
            callee = owner[func] if func.name == "__init__" else func.name
            qualname = f"{owner[func]}.{func.name}" if func in owner else func.name
            for position, name in _defaulted_params(func):
                if not any(_sets(call, position, name) for call in calls.get(callee, [])):
                    unset.append(f"{fname}: {qualname}({name}=)")
    assert not unset, "defaults no call in src/exactcft sets:\n" + "\n".join(unset)


def test_every_dataclass_field_is_read_in_the_package():
    """An annotated class field, such as a record field, that nothing in
    src/exactcft reads as an attribute (``obj.field``) is data no code uses."""
    trees = _trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{fname}: {node.name}.{item.target.id}"
        for fname, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
    ]
    assert not unread, "class fields no code in src/exactcft reads:\n" + "\n".join(unread)


def test_every_oracle_is_used_by_a_test():
    """Each top-level function and class in tests/oracles.py is named by some
    tests/test_*.py or by another oracle, so an oracle whose test is gone
    does not stay behind unchecked."""
    tests = ROOT / "tests"
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    total = _references(oracles) + sum(
        (_references(ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(tests.glob("test_*.py"))),
        Counter(),
    )
    unused = [
        name
        for name, node in _definitions(oracles)
        if "." not in name and total[name] <= _references(node)[name]
    ]
    assert not unused, "oracles no test uses:\n" + "\n".join(unused)


def test_terms_are_written_only_by_the_normaliser():
    """A sparse sum holds int numerators over one denominator in one canonical
    form, kept by one normaliser, poly.SparseSum.set_ints. No src module
    outside poly.py, series.py and pairs.py assigns to ``.terms``, and inside
    them only set_ints does: no assignment, augmented assignment, item
    assignment, deletion or mutating method call on a ``.terms`` anywhere
    else."""

    def is_terms(node) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    writes = []
    for fname, tree in _trees().items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("pop", "update", "setdefault", "clear", "popitem")):
                    targets = [node.func.value]
                else:
                    continue
                flat = [t for target in targets for t in ast.walk(target)]
                if any(is_terms(t) for t in flat):
                    writes.append((fname, func.name))
    assert set(writes) == {("poly.py", "set_ints")}, writes


def test_only_the_int_kernel_is_imported_from_poly():
    """The modules that build sums take den and terms directly; the only
    private names any of them imports from poly are the two int kernels."""
    private = {
        (fname, alias.name)
        for fname, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "poly" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert {name for _, name in private} <= {"_int_product", "_int_combination"}, sorted(private)


def test_pair_keys_are_built_and_read_only_in_pairs():
    """A pair-monomial key (pairs.ExpKey: sorted (pair, numerator) tuples over
    the sum's exp_den) is built and read inside pairs.py alone. No other src
    module imports ExpKey or the key helpers norm_exps and bump from pairs,
    whether at the top, in a function or in a TYPE_CHECKING block; they build
    keys through pairs.monomial_keys and PairSum methods."""
    inside = {"ExpKey", "norm_exps", "bump"}
    imports = sorted(
        (fname, alias.name)
        for fname, tree in _trees().items() if fname != "pairs.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "pairs"), (0, "exactcft.pairs"))
        for alias in node.names
        if alias.name in inside
    )
    assert not imports, imports
