"""The package's import structure and public surface.

Imports sit at module level only and form no cycle; every exported name,
every member of an exported class, and every defaulted parameter of an
exported function or constructor has a caller outside the tests, so
test-only API does not grow back.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import slnbranch

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slnbranch"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
# The code whose reads keep a name alive: the package beyond its
# re-exports, the demos and the benchmark harness.
CALLERS = [
    ast.parse(path.read_text())
    for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench")
    for path in sorted(folder.glob("*.py"))
    if path != PACKAGE / "__init__.py"
]


def _package_imports(nodes) -> set[str]:
    """Package modules named by the import statements among `nodes`."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("slnbranch"):
            out.add((node.module.split(".") + ["__init__"])[1])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("slnbranch.")
            )
    return out


def test_no_function_imports_from_the_package():
    found = [
        f"{name}.{fn.name}"
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _package_imports(ast.walk(fn))
    ]
    assert found == []


def test_module_import_graph_is_acyclic():
    graph = {name: _package_imports(tree.body) & set(MODULES) for name, tree in MODULES.items()}
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, "import cycle: " + " -> ".join(path + [name])
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        done.add(name)

    for name in graph:
        visit(name, [])


def _defined_names(node) -> set[str]:
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def _used_names(node) -> set[str]:
    """Names read inside `node`: loaded names, attributes, and dotted names
    spelled as strings, as the benchmark tracer's targets are."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def test_all_lists_exactly_the_imports():
    init = MODULES["__init__"]
    imported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(slnbranch.__all__) == imported
    assert len(slnbranch.__all__) == len(imported)


def test_every_export_has_a_caller_outside_the_tests():
    # A use inside the statement that defines the name does not count.
    used = set()
    for tree in CALLERS:
        for node in tree.body:
            used |= _used_names(node) - _defined_names(node)
    assert sorted(set(slnbranch.__all__) - used) == []


def _exported_signatures():
    """(name, arguments, leading parameters to skip) for each exported
    function and each exported class's `__init__`, whose self is skipped."""
    for tree in MODULES.values():
        for node in tree.body:
            if getattr(node, "name", None) not in slnbranch.__all__:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, node.args, 0
            elif isinstance(node, ast.ClassDef):
                for init in node.body:
                    if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                        yield node.name, init.args, 1


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether `call` sets the parameter `name`, the index-th positional one
    (index None for a keyword-only one); a `*` or `**` argument counts as
    setting every parameter it could reach."""
    if index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    ):
        return True
    return any(k.arg in (name, None) for k in call.keywords)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A parameter with a default that only the tests set is test-only API.

    A call matches by the name it calls, `f(...)` or `x.f(...)`, as the
    export guard matches reads by name; `*args` and `**kwargs` are skipped.
    """
    calls: dict[str, list[ast.Call]] = {}
    for tree in CALLERS:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(call)
    unpassed = []
    for name, args, skip in _exported_signatures():
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [
            (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        unpassed += [
            f"{name}.{arg}"
            for i, arg in defaulted
            if not any(_passes(call, i, arg) for call in calls.get(name, []))
        ]
    assert sorted(unpassed) == []


def _self_fields(init: ast.FunctionDef) -> set[str]:
    """The attributes that `init` assigns on `self`."""
    targets = [t for sub in ast.walk(init) if isinstance(sub, ast.Assign) for t in sub.targets]
    targets += [sub.target for sub in ast.walk(init) if isinstance(sub, ast.AnnAssign)]
    return {
        t.attr
        for t in targets
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
    }


def _members(cls: ast.ClassDef) -> set[str]:
    """The non-dunder methods (properties included) and fields of a class:
    its class-level annotations and what its `__init__` assigns on `self`."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
            if node.name == "__init__":
                names |= _self_fields(node)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def test_every_member_of_an_exported_class_is_read():
    """Each member of an exported class is read as an attribute by a caller.

    The match is by attribute name alone, whatever object it is read from,
    so a member with a common name such as `n` passes on any `x.n`; the
    guard catches members whose name no caller reads at all.  Dunders are
    left out, since the operators and protocols that call them are judged
    by hand.
    """
    read = {
        node.attr
        for tree in CALLERS
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{node.name}.{member}"
        for tree in MODULES.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in slnbranch.__all__
        for member in sorted(_members(node) - read)
    ]
    assert unread == []


def _loaded_modules(code: str) -> set[str]:
    """The modules loaded after running `code` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(done.stdout.split())


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """`import slnbranch.cli` is every command's start-up cost; these three
    modules (inspect brings ast, dis and tokenize) would add to it."""
    added = _loaded_modules("import slnbranch.cli") - _loaded_modules("pass")
    assert "slnbranch.cli" in added
    assert sorted(added & {"dataclasses", "inspect", "typing"}) == []
