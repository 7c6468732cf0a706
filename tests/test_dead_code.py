"""Every top-level function and class of the package has a caller in src/,
or is on the allowlist below; and no module of the package reads another
one's private names."""

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(sources: dict[str, str]) -> set[str]:
    """"module: name" for each private name of another module of the package
    that a module imports, or reads as an attribute of a package module it
    imported (``from . import rng`` then ``rng._name``)."""
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        imported = set()  # local names of package modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "rpsketch":
                if node.module in (None, "rpsketch"):  # from . import rng [as r]
                    imported |= {alias.asname or alias.name for alias in node.names}
                found |= {f"{module}: {node.module or ''}.{alias.name}" for alias in node.names
                          if _private(alias.name)}
        found |= {f"{module}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported and _private(node.attr)}
    return found


def test_no_module_reads_another_modules_private_names():
    # a name another module needs is public in its home module (rng.seed_word),
    # or the job moves there (vectors.text_rows keeps the formatter's tables)
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert private_reads(sources) == set()


def test_private_reads_are_found():
    source = """
from . import rng, vectors as v
from .vectors import _write_reprs, text_rows
from rpsketch.bench import _fold
import numpy as np

rng._seed_word(1), v._REPR_TEMPLATE, rng.seed_word(1), np._NoValue, rng.__name__
"""
    assert private_reads({"cli": source}) == {
        "cli: rng._seed_word", "cli: v._REPR_TEMPLATE", "cli: vectors._write_reprs",
        "cli: rpsketch.bench._fold"}
