"""Every function, class, method, property, slot and import of the package is
used in it.

A module-level name counts as used when a top-level statement of some rfactor
module other than its own definition refers to it; imports alone do not
count.  A method or property (dunder methods apart) counts as used when a
statement outside its own definition names it, as an attribute or otherwise.
Exempt are the console entry points named in pyproject.toml and the names
that perfbench/spans.py looks up in the package to trace them.  A
`__slots__` attribute counts as used when the package reads it, as an
attribute, outside its class's `__init__`.  A name a module imports at top
level (`__future__` features apart) counts as used when another top-level
statement of that module refers to it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rfactor"


def _entry_points():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', scripts))


def _traced_names():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            names.update(
                k.value for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            )
    return names


def _referenced(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _definitions():
    """(label, name, statements that may call it) for every module-level
    function and class, and every method and property of a module-level
    class."""
    modules = {
        path.name: ast.parse(path.read_text()).body
        for path in sorted(PACKAGE.glob("*.py"))
    }
    statements = [stmt for body in modules.values() for stmt in body]
    for module, body in modules.items():
        for stmt in body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            others = [o for o in statements if o is not stmt]
            yield f"{module}:{stmt.name}", stmt.name, others
            if not isinstance(stmt, ast.ClassDef):
                continue
            for item in stmt.body:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("__"):
                    continue
                siblings = [o for o in stmt.body if o is not item]
                label = f"{module}:{stmt.name}.{item.name}"
                yield label, item.name, others + siblings


def test_every_module_level_definition_has_a_caller_in_the_package():
    refs = {}  # statement id -> names it refers to, computed once

    def calls(stmt, name):
        if id(stmt) not in refs:
            refs[id(stmt)] = _referenced(stmt)
        return name in refs[id(stmt)]

    exempt = _entry_points() | _traced_names()
    unused = [
        label
        for label, name, callers in _definitions()
        if name not in exempt and not any(calls(stmt, name) for stmt in callers)
    ]
    assert not unused, "no caller in the package: " + ", ".join(unused)


def test_the_exemptions_are_read_from_their_sources():
    assert "main" in _entry_points()
    assert {"mat_scale", "mat_is_zero", "cert_cap"} <= _traced_names()


def test_every_slot_is_read_outside_its_init():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    unread = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            slots = [
                ast.literal_eval(stmt.value)
                for stmt in cls.body
                if isinstance(stmt, ast.Assign)
                and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]
            ]
            init = [f for f in cls.body if getattr(f, "name", None) == "__init__"]
            skip = {id(n) for f in init for n in ast.walk(f)}
            reads = {
                n.attr
                for t in trees
                for n in ast.walk(t)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load)
                and id(n) not in skip
            }
            unread += [
                f"{cls.name}.{name}"
                for names in slots
                for name in names
                if name not in reads
            ]
    assert not unread, "slot never read outside __init__: " + ", ".join(unread)


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        imports = [s for s in body if isinstance(s, (ast.Import, ast.ImportFrom))]
        refs = set().union(*(_referenced(s) for s in body if s not in imports))
        for stmt in imports:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in refs:
                    unused.append(f"{path.name}:{name}")
    assert not unused, "imported but never used: " + ", ".join(unused)
