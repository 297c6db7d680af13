"""The runtime depends on numpy alone: every import in the package must name
the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

import segrecall

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "segrecall"}


def test_package_imports_only_stdlib_and_numpy():
    root = Path(segrecall.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.partition(".")[0] not in ALLOWED
            ]
    assert not offenders, offenders
