"""The runtime stays stdlib-only: every import in src/binpack3d names the
standard library or the package itself."""

import ast
import sys

from helpers import REPO


def test_runtime_imports_only_stdlib():
    outside = []
    for path in sorted((REPO / "src" / "binpack3d").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "binpack3d":
                    outside.append(f"{path.relative_to(REPO)}:{node.lineno}: {name}")
    assert outside == []
