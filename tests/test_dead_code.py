"""Every top-level function and class of the package has a caller in src/,
or is on the allowlist below."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rpsketch"

ALLOWED = {
    # a public entry point that only tests and users call
    "bench.interpolated_precision",
    # called only by tests and by the benchmark's span tracer, which looks them
    # up by name; they go (with mle._only_row and mle.MleResult, which only
    # they use) when the tracer reads hooks instead (ROADMAP item 1c)
    "mle.solve_sign_full",
    "mle.solve_full_from_moments",
    "simulate.raw_estimates",
}


def unreferenced() -> set[str]:
    """module.name of each top-level function or class that no code in the
    package names, as a name or as an attribute; dunders are Python's."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {f"{module}.{name}" for module, name in defined
            if name not in used and not name.startswith("__")}


def test_every_definition_has_a_caller_or_is_allowed():
    # a name missing here is dead code to delete, or an entry point to allow;
    # an allowed name that gained a caller leaves the list
    assert unreferenced() == ALLOWED
