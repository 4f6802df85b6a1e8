"""Every public function, class and field in ``latseg`` is used by the package or the benchmark.

An API that only tests call is dead weight: the test pins code the program
never runs. This parses ``src/latseg/*.py`` and ``bench/**/*.py`` without
importing them and counts as a use any name, attribute, import alias or
identifier string constant (the tracer names its targets by string). A field
counts as read only where an attribute of its name is loaded.
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

# Public fields kept although nothing in the package or the benchmark reads them yet.
FIELDS_ALLOWED = {
    "Fusion.alpha": "each match's fusion weight, for the lattice statistics of `train` and `eval`",
    "Fusion.alpha_char": "the character path's fusion weight, for the same statistics",
}


def public_definitions() -> dict[str, str]:
    """Public top-level function and class names, each with its module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.stem
    return found


def sources():
    return [*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py")]


def referenced_names() -> set[str]:
    names = set()
    for path in sources():
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


def public_fields() -> set[str]:
    """``Class.field`` for each field annotated in a public class body or assigned as ``self.field``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node in cls.body:
                    name = node.target.id
                elif (
                    isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                ):
                    name = node.attr
                else:
                    continue
                if not name.startswith("_"):
                    found.add(f"{cls.name}.{name}")
    return found


def loaded_attributes() -> set[str]:
    return {
        node.attr
        for path in sources()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_field_is_read():
    loaded = loaded_attributes()
    unread = sorted(f for f in public_fields() if f.split(".")[1] not in loaded and f not in FIELDS_ALLOWED)
    assert not unread, f"fields that neither src/latseg nor bench/ reads: {unread}"


def test_field_allowlist_names_only_unread_fields():
    fields, loaded = public_fields(), loaded_attributes()
    assert all(f in fields and f.split(".")[1] not in loaded for f in FIELDS_ALLOWED), FIELDS_ALLOWED
