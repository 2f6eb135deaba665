"""Every public module-level function and class in src/fsg is used
somewhere in src/fsg or bench outside its own definition.  A name that
only its unit tests call is dead code: delete it, or give it a caller."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fsg").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def _used_names(node):
    """Identifiers a statement refers to: names, attributes, imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_public_name_has_a_caller():
    uses = {}           # (file, top-level statement index) -> names it uses
    public = []         # (file, index, name) of public functions and classes
    for path in FILES:
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            uses[path, i] = set(_used_names(stmt))
            if (path in SOURCES and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                public.append((path, i, stmt.name))
    assert public                   # the glob found the package
    dead = [f"{path.name}:{name}" for path, i, name in public
            if not any(name in names for key, names in uses.items() if key != (path, i))]
    assert dead == []
