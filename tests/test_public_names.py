"""Every public function and class of `src/saflex`, and every public method
of a public class, has a caller outside the tests. Every parameter with a
default is passed by one such call, and left to its default by another.

A caller is a load of the name, as an `ast.Name` or an `ast.Attribute`,
anywhere in `src/`, `scripts/` or `perfbench/`: a call, a reference, a
base class or an annotation. An import or a string (a tracer's site
table) is no caller, and neither is a load in the body of a function that
only the tests call (TEST_ONLY): its callees serve the tests alone. A
method's loads of its own name, inside its own body, do not count either.
The match is on the bare name, so a load of `oracle.param_dot` would also
count for a public `param_dot` in `nn`, and a numpy `x.dot(y)` counts for
any method named `dot`: such a method passes this rule whatever calls it.

A defaulted parameter of a public function, or of a public method of any
class, is passed when a call in those directories names it as a keyword
or reaches its position, counted without `self` or `cls`; calls match on
the bare name in the same way, with one exception: a bare-name call inside
a package module that defines that name at top level reaches only that
module's own definition, so `oracle`'s `mlp_backward(...)` says nothing
about `nn.mlp_backward`. A parameter that only the tests pass is an
option set to one value: that value becomes a constant. A call that names
neither relies on the default; a default that no call there relies on is
one the tests alone use, and the parameter becomes required.

Every name a package module imports is loaded in that module, unless the
tracer's site table (`perfbench/tracing.py:_SITES`) wraps that name at that
module: the tracer replaces the attribute, so the import has to stay.

Only `data.write_files` opens a file for writing: every other `open(...)`
in the package, bare or as an attribute (`io.open`, `Path.open`), has a
literal mode, or none, without `w`, `a`, `x` or `+`. So the write rule
(partial files, then renames) has one home.

What only the tests call lives in `tests/reference.py`. The package
never imports from the tests, and defines no function, class or method
under a name that the reference module defines at its top level, so a
moved name cannot come back as a second copy. Both rules are read from
the source with `ast`, without importing it.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
CALLER_DIRS = ("src", "scripts", "perfbench")
PACKAGE = ROOT / "src" / "saflex"
TESTS = ROOT / "tests"
KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# each name here has callers in the tests only; a caller elsewhere fails the
# test below, so the name leaves this list when it gains one. They wait for
# the callers ROADMAP items 2, 3 and 12 give them (a certification run on real
# training states, `saflex explain` and `scripts/step_fidelity.py`)
TEST_ONLY = {
    "core.closed_form_assignment": "the closed-form rule criterion 5 and test_oracle assign with",
    "core.combined_step_gradient": "the step gradient of criterion 3's exact post-step loss",
    "oracle.post_step_val_loss": "the exact post-step loss criterion 3 compares against",
}


# defaulted parameters that no call outside the tests passes or leaves to its
# default, and why each keeps its default
EXEMPT = {
    "rng._Key.generate_state.dtype": "numpy's ISeedSequence interface declares it",
}


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions() -> dict[str, str]:
    """'module.name' -> name for every public module-level function and class."""
    return {f"{module}.{node.name}": node.name
            for module, tree in _package_trees().items() for node in tree.body
            if isinstance(node, KINDS) and not node.name.startswith("_")}


def _loads(tree: ast.AST) -> Counter:
    """How often each bare name is loaded in tree."""
    loaded = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded[node.attr] += 1
    return loaded


def _public_methods() -> dict[str, ast.FunctionDef]:
    """'module.Class.method' -> definition, for each public method of a public class."""
    return {f"{module}.{cls.name}.{fn.name}": fn
            for module, tree in _package_trees().items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for fn in cls.body if isinstance(fn, KINDS[:2]) and not fn.name.startswith("_")}


def _loaded_names() -> Counter:
    loaded = Counter()
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            tree = ast.parse(path.read_text())
            if path.parent == PACKAGE:
                for node in tree.body:
                    if isinstance(node, KINDS) and f"{path.stem}.{node.name}" in TEST_ONLY:
                        node.body = []
            loaded += _loads(tree)
    return loaded


def _defaulted_parameters() -> dict[str, tuple[str, int | None, str]]:
    """'module.[Class.]function.param' -> ('module.[Class.]function', position,
    param) for each defaulted parameter of a public function or method outside
    TEST_ONLY. The position skips `self` and `cls`; a keyword-only parameter
    has none."""
    found = {}
    for module, tree in _package_trees().items():
        defs = [(module, node, False) for node in tree.body]
        defs += [(f"{module}.{node.name}", item, True) for node in tree.body
                 if isinstance(node, ast.ClassDef) for item in node.body]
        for owner, fn, method in defs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name[0] == "_":
                continue
            qual = f"{owner}.{fn.name}"
            if qual in TEST_ONLY:
                continue
            positional = fn.args.posonlyargs + fn.args.args
            if method and positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first_defaulted = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first_defaulted:], first_defaulted):
                found[f"{qual}.{arg.arg}"] = (qual, i, arg.arg)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found[f"{qual}.{arg.arg}"] = (qual, None, arg.arg)
    return found


def _calls() -> dict[str, list[tuple[str | None, ast.Call]]]:
    """Every call outside the tests, by bare callee name, with the package
    module whose own top-level definition a bare-name call reaches (None
    for every other call)."""
    calls = {}
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            tree = ast.parse(path.read_text())
            own = ({node.name for node in tree.body if isinstance(node, KINDS)}
                   if path.parent == PACKAGE else set())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                    owner = path.stem if name in own else None
                elif isinstance(node.func, ast.Attribute):
                    name, owner = node.func.attr, None
                else:
                    continue
                calls.setdefault(name, []).append((owner, node))
    return calls


def _reaching(calls: dict[str, list[tuple[str | None, ast.Call]]], qual: str) -> list[ast.Call]:
    """The calls that may reach the function or method `qual`."""
    name = qual.rsplit(".", 1)[1]
    return [c for owner, c in calls.get(name, []) if owner is None or qual == f"{owner}.{name}"]


def _passes(call: ast.Call, position: int | None, arg: str) -> bool:
    """Whether call names `arg` as a keyword or reaches its `position`."""
    return (any(kw.arg == arg for kw in call.keywords)
            or position is not None and len(call.args) > position)


def _relies(call: ast.Call, position: int | None, arg: str) -> bool:
    """Whether call leaves `arg` to its default: it passes it neither by
    name nor by position, and unpacks no `*args` or `**kwargs` that might."""
    unpacks = (any(kw.arg is None for kw in call.keywords)
               or any(isinstance(a, ast.Starred) for a in call.args))
    return not unpacks and not _passes(call, position, arg)


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, loaded = _public_definitions(), _loaded_names()
    assert set(TEST_ONLY) <= set(defined), "TEST_ONLY names a function that is gone"
    uncalled = {q for q, name in defined.items() if not loaded[name]}
    uncalled |= {q for q, fn in _public_methods().items()
                 if not loaded[fn.name] - _loads(fn)[fn.name]}
    assert sorted(uncalled - set(TEST_ONLY)) == [], "no caller outside the tests"
    assert sorted(set(TEST_ONLY) - uncalled) == [], "gained a caller: drop it from TEST_ONLY"


def test_no_package_module_imports_from_the_tests():
    # the tests import one another by bare module name (pytest puts tests/
    # on sys.path), or through the directory as `tests.<module>`
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    found = []
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}: {n}" for n in names if n.split(".")[0] in test_modules]
    assert found == [], "src/saflex imports from tests/"


def test_no_package_module_defines_a_name_of_the_reference_module():
    reference = {node.name for node in ast.parse((TESTS / "reference.py").read_text()).body
                 if isinstance(node, KINDS)}
    found = sorted(f"{module}.{node.name}" for module, tree in _package_trees().items()
                   for node in ast.walk(tree)
                   if isinstance(node, KINDS) and node.name in reference)
    assert found == [], "a name tests/reference.py defines is defined again in src/saflex"


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    params, calls = _defaulted_parameters(), _calls()
    assert set(EXEMPT) <= set(params), "EXEMPT names a parameter that is gone"
    unpassed = {q for q, (fn, position, arg) in params.items()
                if not any(_passes(c, position, arg) for c in _reaching(calls, fn))}
    assert sorted(unpassed - set(EXEMPT)) == [], "only the tests pass it: make it a constant"
    assert sorted(set(EXEMPT) - unpassed) == [], "now passed: drop it from EXEMPT"


def test_every_default_is_relied_on_outside_the_tests():
    params, calls = _defaulted_parameters(), _calls()
    unrelied = {q for q, (fn, position, arg) in params.items()
                if not any(_relies(c, position, arg) for c in _reaching(calls, fn))}
    assert sorted(unrelied - set(EXEMPT)) == [], "only the tests use it: drop the default"
    assert sorted(set(EXEMPT) - unrelied) == [], "now relied on: drop it from EXEMPT"


def _traced_sites() -> set[str]:
    """'module.attribute' for each entry of the tracer's site table."""
    tree = ast.parse(TRACING.read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_SITES" for t in node.targets))
    return {f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in table.elts}


def _unloaded_imports() -> set[str]:
    """'module.name' for each name a package module imports and never loads
    as a bare name; `from __future__` imports are no names."""
    unloaded = set()
    for module, tree in _package_trees().items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unloaded |= {f"{module}.{n}" for n in names if n not in loaded}
    return unloaded


def test_every_import_is_loaded_or_traced():
    assert sorted(_unloaded_imports() - _traced_sites()) == [], \
        "imported and never loaded: drop the import"


def _write_opens() -> tuple[list[str], int]:
    """'module.py:line' of each open(...) in the package outside data.write_files
    whose mode may write, and the count of open(...) calls inside write_files."""
    outside, inside = [], 0
    for module, tree in _package_trees().items():
        home = {id(node) for fn in tree.body if module == "data"
                and isinstance(fn, ast.FunctionDef) and fn.name == "write_files"
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", ""))
            if not isinstance(node, ast.Call) or name != "open":
                continue
            if id(node) in home:
                inside += 1
                continue
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0] if modes else ast.Constant("r")
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                outside.append(f"{module}.py:{node.lineno}")
    return outside, inside


def test_only_write_files_opens_a_file_for_writing():
    outside, inside = _write_opens()
    assert inside > 0, "data.write_files opens no file: the guard has lost its home"
    assert outside == [], "write through data.write_files"
