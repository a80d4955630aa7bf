import ast
from pathlib import Path

import ransim


def test_every_export_resolves():
    missing = [name for name in ransim.__all__ if not hasattr(ransim, name)]
    assert missing == []
    assert len(set(ransim.__all__)) == len(ransim.__all__)


def _reads(node, owners=frozenset()):
    """Names and attributes loaded under node, outside a def or class of the
    same name; a docstring is a constant and reads nothing."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owners |= {node.name}
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if isinstance(getattr(node, "ctx", None), ast.Load) and name not in owners:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, owners)


def test_every_export_is_used_by_the_package():
    # an export that only the tests read belongs in the tests
    read = {name for path in Path(ransim.__file__).parent.glob("*.py")
            if path.name != "__init__.py"
            for name in _reads(ast.parse(path.read_text()))}
    assert sorted(set(ransim.__all__) - read) == []
