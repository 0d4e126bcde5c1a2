import ast
from pathlib import Path

import satpmsm


def test_exports_resolve_and_are_listed():
    # every listed name resolves, and every public name the package imports
    # is listed, so deleting API cannot leave a stale export behind
    exported = satpmsm.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(satpmsm, name)] == []
    tree = ast.parse(Path(satpmsm.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(n for n in imported if not n.startswith("_") and n not in exported) == []


def test_public_definitions_are_used():
    # every public top-level function and class in the package is exported
    # or referenced by name from another top-level statement of the package,
    # so API left without a caller fails here
    src = Path(satpmsm.__file__).parent
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            used |= names - {getattr(node, "name", None)}
    dead = sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in satpmsm.__all__ and name not in used)
    assert dead == []
