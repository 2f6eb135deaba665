"""Every public module-level function and class in src/fsg, every private
module-level function there (dunders aside), and every public method of a
class there, is used somewhere in src/fsg or bench outside its own
definition.  A name that only its unit tests call is dead code: delete it,
or give it a caller."""

import ast
import pathlib
import sys
from collections import Counter

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
    public = []         # (file, index, label, name, uses of its own definition)
    for path in FILES:
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            uses[path, i] = Counter(_used_names(stmt))
            if path not in SOURCES or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not stmt.name.startswith("_") or (isinstance(stmt, ast.FunctionDef)
                                                 and not stmt.name.startswith("__")):
                public.append((path, i, stmt.name, stmt.name, uses[path, i]))
            if isinstance(stmt, ast.ClassDef):
                public += [(path, i, f"{stmt.name}.{fn.name}", fn.name,
                            Counter(_used_names(fn)))
                           for fn in stmt.body if isinstance(fn, ast.FunctionDef)
                           and not fn.name.startswith("_")]
    assert public                   # the glob found the package
    # a method's class statement counts, less the uses inside the method
    dead = [f"{path.name}:{label}" for path, i, label, name, own in public
            if not any(names[name] > (own[name] if key == (path, i) else 0)
                       for key, names in uses.items())]
    assert dead == []


def _defaulted(fn, bound_first):
    """(name, positions that pass it) of each parameter of fn that has a
    default; *args counts, since it defaults to ().  bound_first drops the
    self or cls that a call through an attribute supplies."""
    a = fn.args
    pos = (a.posonlyargs + a.args)[1 if bound_first else 0:]
    out = [(p.arg, range(i, i + 1)) for i, p in enumerate(pos)
           if i >= len(pos) - len(a.defaults)]
    out += [(p.arg, ()) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    if a.vararg:
        out.append((a.vararg.arg, range(len(pos), sys.maxsize)))
    return out


def _definitions(tree, public):
    """(call name, full name, node, bound_first, public) of every top-level
    function and method; a constructor is called by its class name."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield (stmt.name, stmt.name, stmt, False,
                   public and not stmt.name.startswith("_"))
        elif isinstance(stmt, ast.ClassDef):
            for fn in stmt.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    name = stmt.name if fn.name == "__init__" else fn.name
                    yield (name, f"{stmt.name}.{fn.name}", fn, not static,
                           public and not (stmt.name + name).startswith("_"))


def _calls(node, enclosing=None):
    """(call, innermost enclosing function) for every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, enclosing
        yield from _calls(child, child if isinstance(child, ast.FunctionDef) else enclosing)


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A parameter with a default that no call in src/fsg or bench passes is
    dead: fold its default into the body.  A call passes it by keyword, by
    position, or through *args or **kwargs, except by forwarding a defaulted
    parameter of its own function that is itself unset.  Calls are matched by
    identifier, so a method shares its callers with every other attribute of
    the same name, as the name guard above does; and a call with *args counts
    as passing every parameter from its position on."""
    defs, calls = [], []
    for path in FILES:
        tree = ast.parse(path.read_text())
        defs += [(path, *d) for d in _definitions(tree, path in SOURCES)]
        calls += list(_calls(tree))
    by_name = {}
    for call, enclosing in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        by_name.setdefault(name, []).append((call, enclosing))
    unset, public = {}, []
    for path, name, full, fn, bound_first, is_public in defs:
        for p, positions in _defaulted(fn, bound_first):
            unset[fn, p] = name, positions
            if is_public:
                public.append((fn, p, f"{path.name}:{full}({p})"))

    def passes(expr, enclosing):
        return not (isinstance(expr, ast.Name) and (enclosing, expr.id) in unset)

    def is_set(name, p, positions):
        for call, enclosing in by_name.get(name, []):
            if any(kw.arg is None or (kw.arg == p and passes(kw.value, enclosing))
                   for kw in call.keywords):
                return True
            for k, arg in enumerate(call.args):
                star = isinstance(arg, ast.Starred)
                if positions and (star and k <= positions[-1]
                                  or k in positions and passes(arg, enclosing)):
                    return True
        return False

    changed = True
    while changed:
        changed = False
        for (fn, p), (name, positions) in list(unset.items()):
            if is_set(name, p, positions):
                del unset[fn, p]
                changed = True
    assert sorted(label for fn, p, label in public if (fn, p) in unset) == []
