"""Every module-level function and class of the package has a caller in it.

A name counts as used when a top-level statement of some rfactor module other
than its own definition refers to it; imports alone do not count.  Exempt are
the console entry points named in pyproject.toml and the names that
perfbench/spans.py looks up in the package to trace them.
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


def test_every_module_level_definition_has_a_caller_in_the_package():
    defined = []  # (module, name, defining statement)
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, stmt.name, stmt))
    uses = [(stmt, _referenced(stmt)) for stmt in statements]
    exempt = _entry_points() | _traced_names()
    unused = [
        f"{module}:{name}"
        for module, name, own in defined
        if name not in exempt
        and not any(name in refs for stmt, refs in uses if stmt is not own)
    ]
    assert not unused, "no caller in the package: " + ", ".join(unused)


def test_the_exemptions_are_read_from_their_sources():
    assert "main" in _entry_points()
    assert {"mat_scale", "mat_is_zero", "cert_cap"} <= _traced_names()
