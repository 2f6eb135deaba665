"""Every public module-level function and class in src/fsg, every private
module-level function there (dunders aside), every method of a class
there and every name its class body assigns (dunders aside), and every
module-level UPPER_CASE constant there, is used somewhere in src/fsg or
bench outside its own definition.  A name that only its unit tests use is
dead code: delete it, or give it a user."""

import ast
import pathlib
import re
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
    assert public                   # the glob found the package
    dead = [f"{path.name}:{label}" for path, i, label, name, own in public
            if not any(names[name] > (own[name] if key == (path, i) else 0)
                       for key, names in uses.items())]
    assert dead == []


def _owned_uses(node, owner):
    """Counter of (owner, identifier) for the names node uses: an attribute
    of self or cls belongs to the class statement it sits in, every other
    use to None, since it may reach any class."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out[owner if getattr(n.value, "id", None) in ("self", "cls") else None,
                n.attr] += 1
        elif isinstance(n, (ast.Name, ast.alias)):
            out[None, getattr(n, "id", None) or n.name] += 1
    return out


def _members(cls):
    """(name, node) of each method and each name the class body assigns."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def test_every_class_member_has_a_user():
    # self.x inside class C reaches only C's ancestors and descendants, so a
    # member of an unrelated class of the same name does not keep x alive
    uses, bases, members = {}, {}, []
    for path in FILES:
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
            uses[path, i] = _owned_uses(stmt, owner)
            if owner:
                bases[owner] = {getattr(b, "id", None) for b in stmt.bases}
            if owner and path in SOURCES:
                members += [(path, i, owner, name, _owned_uses(node, owner))
                            for name, node in _members(stmt)
                            if not (name.startswith("__") and name.endswith("__"))]
    assert members                  # the scan found the package's classes

    def lineage(cls, up):
        """cls with its ancestors (up) or its descendants (not up)."""
        found, todo = {cls}, [cls]
        while todo:
            c = todo.pop()
            step = bases.get(c, set()) if up else {d for d, bs in bases.items() if c in bs}
            todo += step - found
            found |= step
        return found

    def used(path, i, cls, name, own):
        reach = {None} | lineage(cls, True) | lineage(cls, False)
        return any(n > (own[key] if (p, j) == (path, i) else 0)
                   for (p, j), counter in uses.items()
                   for key, n in counter.items() if key[1] == name and key[0] in reach)

    dead = [f"{path.name}:{cls}.{name}" for path, i, cls, name, own in members
            if not used(path, i, cls, name, own)]
    assert dead == []


def test_every_constant_has_a_user():
    # a constant is a module-level assignment to an UPPER_CASE name, with or
    # without a leading underscore; __all__ is not one
    uses, constants = {}, []
    for path in FILES:
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            uses[path, i] = Counter(_used_names(stmt))
            if path in SOURCES and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                constants += [(path, i, t.id) for t in targets if isinstance(t, ast.Name)
                              and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]
    assert constants                # the scan found the package's constants
    dead = [f"{path.name}:{name}" for path, i, name in constants
            if not any(names[name] for key, names in uses.items() if key != (path, i))]
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
