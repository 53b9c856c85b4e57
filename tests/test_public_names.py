"""Every public function and class of `src/saflex` has a caller outside the tests.

A caller is a load of the name, as an `ast.Name` or an `ast.Attribute`,
anywhere in `src/`, `scripts/` or `perfbench/`: a call, a reference, a
base class or an annotation. An import or a string (a tracer's site
table) is no caller. The match is on the bare name, so a load of
`oracle.param_dot` would also count for a public `param_dot` in `nn`.

What only the tests call lives in `tests/reference.py`. The package
never imports from the tests, and defines no function, class or method
under a name that the reference module defines at its top level, so a
moved name cannot come back as a second copy. Both rules are read from
the source with `ast`, without importing it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")
PACKAGE = ROOT / "src" / "saflex"
TESTS = ROOT / "tests"
KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# each name here has callers in the tests only; a caller elsewhere fails the
# test below, so the name leaves this list when it gains one. The three left
# wait for the callers ROADMAP items 2 and 3 give them (a certification run
# on real training states and `saflex explain`)
TEST_ONLY = {
    "core.closed_form_assignment": "the closed-form rule criterion 5 and test_oracle assign with",
    "core.validation_gradient": "the validation gradient criterion 3 and the oracle tests start from",
    "oracle.post_step_val_loss": "the exact post-step loss criterion 3 compares against",
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
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    return loaded


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
