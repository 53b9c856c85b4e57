"""Every public function and class of `src/saflex` has a caller outside the tests.

A caller is a load of the name, as an `ast.Name` or an `ast.Attribute`,
anywhere in `src/`, `scripts/` or `perfbench/`: a call, a reference, a
base class or an annotation. An import or a string (a tracer's site
table) is no caller. The match is on the bare name, so a load of
`oracle.param_dot` would also count for a public `param_dot` in `nn`.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")

# each name here has callers in the tests only; a caller elsewhere fails the
# test below, so the name leaves this list when it gains one
TEST_ONLY = {
    "core.closed_form_assignment": "the closed-form rule criterion 5 and test_oracle assign with",
    "core.validation_gradient": "the validation gradient criterion 3 and the oracle tests start from",
    "data.save_images_raw": "writes the raw image files the CLI and file-fuzz tests read",
    "losses.hard_ce": "the plain cross-entropy criterion 2 and the oracle tests score with",
    "losses.weighted_soft_ce": "criterion 4's weighted soft-label loss",
    "losses.normalize_rows": "the contrastive block that criterion 4 checks",
    "losses.infonce_loss": "the contrastive block's InfoNCE loss, checked in test_losses",
    "losses.weighted_soft_clip": "the contrastive block that criterion 4 checks",
    "oracle.finite_diff": "the central differences criterion 2 checks gradients against",
    "oracle.iter_assignments": "the brute-force assignment list criterion 3 and test_oracle enumerate",
    "oracle.post_step_val_loss": "the exact post-step loss criterion 3 compares against",
}


def _public_definitions() -> dict[str, str]:
    """'module.name' -> name for every public module-level function and class."""
    found = {}
    for path in sorted((ROOT / "src" / "saflex").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, kinds) and not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node.name
    return found


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
