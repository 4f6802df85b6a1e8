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


def public_methods() -> set[str]:
    """``Class.method`` for each public method, property or classmethod of a public class."""
    return {
        f"{cls.name}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_every_public_method_is_called():
    # Only attribute loads count: a method is reached as ``obj.method``, and a
    # string such as the "segment" subcommand's name says nothing about one.
    loaded = loaded_attributes()
    uncalled = sorted(m for m in public_methods() if m.split(".")[1] not in loaded)
    assert not uncalled, f"methods that neither src/latseg nor bench/ calls: {uncalled}"


def text_file_calls(tree: ast.AST) -> list[int]:
    """The lines of calls that open a file in text mode or read or write one as text."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("read_text", "write_text"):
            lines.append(node.lineno)
        elif name == "open":
            # open(path, mode) or path.open(mode); the mode defaults to text
            at = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            if not (isinstance(mode, ast.Constant) and "b" in mode.value):
                lines.append(node.lineno)
    return lines


def test_only_data_opens_text_files():
    # every text file goes through data.read_lines and data.write_lines
    found = {
        path.name: text_file_calls(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "data"
    }
    assert not {name: lines for name, lines in found.items() if lines}
