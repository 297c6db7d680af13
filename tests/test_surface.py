"""The public surface has users, and the demos that show it still run."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import segrecall
from segrecall import cli, errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "segrecall"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_every_public_name_has_a_user():
    # A user is a demo, the README, the benchmark, or a package module other
    # than the one that defines the name (and other than __init__).
    users = [*DEMOS, ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.*")),
             *(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")]
    texts = {p: p.read_text() for p in users}
    unused = []
    for name in segrecall.__all__:
        module = getattr(getattr(segrecall, name), "__module__", "segrecall")
        home = SRC / (module.rsplit(".", 1)[-1] + ".py")
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        if not any(pattern.search(text) for p, text in texts.items() if p != home):
            unused.append(name)
    assert not unused, f"public names with no user outside tests: {unused}"


def test_every_error_class_is_raised():
    # Each class in segrecall.errors is raised somewhere in the package, or is
    # the base of one that is; naming() raises FormatError.
    source = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    classes = [v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, errors.SegrecallError)]
    raised = {c for c in classes if re.search(rf"raise {c.__name__}\b", source)}
    unused = [c.__name__ for c in classes if not any(issubclass(r, c) for r in raised)]
    assert not unused, f"error classes nothing raises: {unused}"


def test_every_cli_option_is_documented():
    readme = (ROOT / "README.md").read_text()
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    undocumented = sorted(
        f"{command} {flag}"
        for command, parser in sub.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
        and not re.search(rf"{re.escape(flag)}(?![\w-])", readme)
    )
    assert not undocumented, f"options the README does not mention: {undocumented}"
