"""Every public function and class in ``latseg`` is used by the package or the benchmark.

An API that only tests call is dead weight: the test pins code the program
never runs. This parses ``src/latseg/*.py`` and ``bench/**/*.py`` without
importing them and counts as a use any name, attribute, import alias or
identifier string constant (the tracer names its targets by string).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latseg"

# Public names kept although neither the package nor the benchmark uses them yet.
ALLOWED = {
    "error_reduction": "the paper's error reduction against a baseline, for a coming `eval --baseline`",
    "load_bpe_model": "the reader of the .bpe file that `bpe-learn --out` writes",
    "zero_grads": "the gradient checks' reset, which must know the tape's row records",
}


def public_definitions() -> dict[str, str]:
    """Public top-level function and class names, each with its module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.stem
    return found


def referenced_names() -> set[str]:
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_public_definition_is_used():
    used = referenced_names()
    unused = sorted(
        f"{module}.{name}" for name, module in public_definitions().items()
        if name not in used and name not in ALLOWED
    )
    assert not unused, f"public API that neither src/latseg nor bench/ uses: {unused}"


def test_allowlist_names_only_unused_definitions():
    defined, used = public_definitions(), referenced_names()
    assert all(name in defined and name not in used for name in ALLOWED), ALLOWED
