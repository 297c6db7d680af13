"""The runtime depends on numpy alone: every import in the package must name
the standard library, numpy, or the package itself. JSON is parsed in one
place, ``fileio``, whose typed reader checks every field it hands out. The
command line composes the library's public names only."""

import ast
import sys
from pathlib import Path

import segrecall

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "segrecall"}
JSON_PARSERS = {"load", "loads"}


def _package_nodes():
    root = Path(segrecall.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_package_imports_only_stdlib_and_numpy():
    offenders = []
    for path, node in _package_nodes():
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


def test_only_fileio_parses_json():
    offenders = []
    for path, node in _package_nodes():
        if path.name == "fileio.py":
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            parsers = [a.name for a in node.names if a.name in JSON_PARSERS]
        elif isinstance(node, ast.Attribute) and node.attr in JSON_PARSERS:
            parsers = [node.attr] if getattr(node.value, "id", None) == "json" else []
        else:
            continue
        offenders += [f"{path.name}:{node.lineno} uses json.{name}" for name in parsers]
    assert not offenders, offenders


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_cli_uses_no_private_name_of_another_module():
    path = Path(segrecall.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, offenders = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("segrecall")):
            if node.module in (None, "segrecall"):  # from . import fileio
                modules |= {alias.asname or alias.name for alias in node.names}
            offenders += [f"line {node.lineno} imports {alias.name}"
                          for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.asname and alias.name.startswith("segrecall.")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            offenders.append(f"line {node.lineno} reads {node.value.id}.{node.attr}")
    assert not offenders, offenders


def test_cli_reads_no_map_whole():
    # Every command streams its maps: cli.py never calls fileio.read_prob_map.
    path = Path(segrecall.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [f"line {node.lineno}" for node in ast.walk(tree)
                 if "read_prob_map" in (getattr(node, "attr", None), getattr(node, "id", None),
                                        getattr(node, "name", None))]
    assert not offenders, offenders
