"""Every function, class, method and property of the package has a caller in it.

A module-level name counts as used when a top-level statement of some rfactor
module other than its own definition refers to it; imports alone do not
count.  A method or property (dunder methods apart) counts as used when a
statement outside its own definition names it, as an attribute or otherwise.
Exempt are the console entry points named in pyproject.toml and the names
that perfbench/spans.py looks up in the package to trace them.
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
