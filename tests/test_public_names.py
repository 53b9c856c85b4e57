"""Every public function and class of `src/saflex` has a caller outside the
tests, and every parameter with a default is passed by one.

A caller is a load of the name, as an `ast.Name` or an `ast.Attribute`,
anywhere in `src/`, `scripts/` or `perfbench/`: a call, a reference, a
base class or an annotation. An import or a string (a tracer's site
table) is no caller, and neither is a load in the body of a function that
only the tests call (TEST_ONLY): its callees serve the tests alone. The match is on the bare name, so a load of
`oracle.param_dot` would also count for a public `param_dot` in `nn`.

A defaulted parameter of a public function, or of a public method of any
class, is passed when a call in those directories names it as a keyword
or reaches its position, counted without `self` or `cls`; calls match on
the bare name in the same way. A parameter that only the tests pass is an
option set to one value: that value becomes a constant.

What only the tests call lives in `tests/reference.py`. The package
never imports from the tests, and defines no function, class or method
under a name that the reference module defines at its top level, so a
moved name cannot come back as a second copy. Both rules are read from
the source with `ast`, without importing it.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
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
    "core.validation_gradient": "the validation gradient criterion 3 and the oracle tests start from",
    "oracle.post_step_val_loss": "the exact post-step loss criterion 3 compares against",
}


# defaulted parameters that no call outside the tests passes, and why each stays
UNPASSED = {
    "rng._Key.generate_state.dtype": "numpy's ISeedSequence interface declares it",
}


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions() -> dict[str, str]:
    """'module.name' -> name for every public module-level function and class."""
    return {f"{module}.{node.name}": node.name
            for module, tree in _package_trees().items() for node in tree.body
            if isinstance(node, KINDS) and not node.name.startswith("_")}


def _loaded_names() -> set[str]:
    loaded = set()
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            tree = ast.parse(path.read_text())
            if path.parent == PACKAGE:
                for node in tree.body:
                    if isinstance(node, KINDS) and f"{path.stem}.{node.name}" in TEST_ONLY:
                        node.body = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    return loaded


def _defaulted_parameters() -> dict[str, tuple[str, int | None, str]]:
    """'module.[Class.]function.param' -> (function, position, param) for each
    defaulted parameter of a public function or method outside TEST_ONLY.
    The position skips `self` and `cls`; a keyword-only parameter has none."""
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
                found[f"{qual}.{arg.arg}"] = (fn.name, i, arg.arg)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found[f"{qual}.{arg.arg}"] = (fn.name, None, arg.arg)
    return found


def _passed_arguments() -> tuple[dict[str, int], dict[str, set[str]]]:
    """Per bare callee name: the most positional arguments a call passes,
    and every keyword a call names."""
    positions, keywords = defaultdict(int), defaultdict(set)
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                else:
                    continue
                positions[name] = max(positions[name], len(node.args))
                keywords[name] |= {kw.arg for kw in node.keywords}
    return positions, keywords


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, loaded = _public_definitions(), _loaded_names()
    assert set(TEST_ONLY) <= set(defined), "TEST_ONLY names a function that is gone"
    uncalled = {q for q, name in defined.items() if name not in loaded}
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
    params = _defaulted_parameters()
    assert set(UNPASSED) <= set(params), "UNPASSED names a parameter that is gone"
    positions, keywords = _passed_arguments()
    unpassed = {q for q, (fn, position, arg) in params.items()
                if arg not in keywords[fn] and (position is None or positions[fn] <= position)}
    assert sorted(unpassed - set(UNPASSED)) == [], "only the tests pass it: make it a constant"
    assert sorted(set(UNPASSED) - unpassed) == [], "now passed: drop it from UNPASSED"
