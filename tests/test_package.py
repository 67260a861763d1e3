import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "storyweave"


def absolute_imports(path: Path):
    """``(line, module)`` of every absolute import in the file at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_standard_library_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in sources
    outside = [
        f"{path.name}:{line} imports {module}"
        for path in sources
        for line, module in absolute_imports(path)
        if module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
