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
