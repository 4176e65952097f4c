"""The seams between the package's modules: no module imports a private
(underscore-prefixed) name of a sibling, so a format one module keeps
behind its functions stays there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "mechgen"


def is_sibling(node: ast.ImportFrom) -> bool:
    module = node.module or ""
    return node.level == 1 or module == "mechgen" or module.startswith("mechgen.")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and is_sibling(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names of its siblings: {private}"
