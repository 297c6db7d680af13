"""Start-up cost: importing the package, or running a command that needs no
numpy, loads no numpy; the lazily resolved package keeps its public surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segrecall

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "concurrent.futures")

# Each case runs in a fresh interpreter, then prints its exit code and which
# of HEAVY it left in sys.modules.
REPORT = "import json, sys; print(json.dumps([{code}, [m for m in {heavy} if m in sys.modules]]))"


def _fresh(body: str, code: str = "0"):
    script = f"{body}\n{REPORT.format(code=code, heavy=HEAVY)}"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return (*json.loads(result.stdout.splitlines()[-1]), result.stderr)


def _cli(*argv) -> str:
    return f"from segrecall import cli\nrc = cli.main({list(argv)!r})"


@pytest.mark.parametrize("body, code, exit_code, err", [
    ("import segrecall", "0", 0, ""),
    ("import segrecall.cli", "0", 0, ""),
    (_cli("arch", "--variant", "basic"), "rc", 0, ""),
    (_cli("decide", "--probs", "m.json", "--rule", "bayes", "--out", "o", "--jobs", "0"), "rc", 2,
     "error: --jobs must be at least 1, got 0\n"),
    (_cli("decide", "--probs", "m.json", "--rule", "ml", "--out", "o"), "rc", 2,
     "error: --rule ml requires --priors\n"),
    (_cli("loss", "--probs", "p.sft", "--labels", "g.pgm", "--classes", "c.json", "--loss", "ial"),
     "rc", 2, "error: --loss ial requires --config\n"),
    (_cli("loss", "--probs", "p.sft", "--labels", "g.pgm", "--classes", "c.json", "--loss", "ce",
          "--grad-check"), "rc", 2, "error: --grad-check applies to --loss ial\n"),
], ids=["import-package", "import-cli", "arch", "jobs-zero", "ml-without-priors",
        "ial-without-config", "grad-check-not-ial"])
def test_startup_imports_no_numpy(tmp_path, body, code, exit_code, err):
    rc, heavy, stderr = _fresh(f"import os\nos.chdir({str(tmp_path)!r})\n{body}", code)
    assert (rc, heavy, stderr) == (exit_code, [], err)
    assert not any(tmp_path.iterdir())


def test_arch_json_imports_no_numpy(tmp_path):
    body = _cli("arch", "--variant", "basic", "--json", "out.json")
    rc, heavy, stderr = _fresh(f"import os\nos.chdir({str(tmp_path)!r})\n{body}", "rc")
    assert (rc, heavy, stderr) == (0, [], "")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert json.loads((tmp_path / "out.json").read_text())["config"]["variant"] == "basic"


def test_arch_loads_only_its_modules():
    body = _cli("arch", "--variant", "basic") + (
        "\nprint(sorted(m for m in sys.modules if m.startswith('segrecall')), file=sys.stderr)"
    )
    _, _, stderr = _fresh("import sys\n" + body)
    assert stderr.strip() == str(
        ["segrecall", "segrecall.archcalc", "segrecall.cli", "segrecall.errors"]
    )


def test_submodules_resolve_after_a_bare_import():
    body = ("import segrecall\n"
            "assert segrecall.fileio.read_sft.__module__ == 'segrecall.fileio'\n"
            "assert callable(segrecall.cli.main)")
    rc, heavy, stderr = _fresh(body)
    assert rc == 0 and "numpy" in heavy, stderr


def test_every_public_name_is_its_home_modules_object():
    for name in segrecall.__all__:
        if name == "__version__":
            continue
        value = getattr(segrecall, name)
        home = sys.modules[value.__module__]
        assert home is not segrecall and getattr(home, name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from segrecall import *", namespace)
    assert len(segrecall.__all__) == 44
    assert set(segrecall.__all__) <= set(namespace)
    assert namespace["__version__"] == segrecall.__version__


def test_dir_lists_every_public_name_and_submodule():
    submodules = {p.stem for p in (SRC / "segrecall").glob("*.py")} - {"__init__"}
    assert set(segrecall.__all__) | submodules <= set(dir(segrecall))


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        segrecall.no_such_name
    assert not hasattr(segrecall, "no_such_name")


def test_only_priors_loads_openssl(tmp_path):
    # hashlib's OpenSSL backend costs RSS, and only priors hashes (its manifest).
    from conftest import build_pipeline_fixture

    fx = {k: str(v) for k, v in build_pipeline_fixture(tmp_path / "fx").items()}
    runs = [
        (["decide", "--probs", fx["manifest"], "--rule", "bayes", "--out", "pred"], False),
        (["evaluate", "--pred", "pred", "--gt", fx["labels"], "--classes", fx["classes"],
          "--out", "metrics.csv"], False),
        (["priors", "--manifest", fx["manifest"], "--out", "priors.sft"], True),
    ]
    for argv, loads in runs:
        body = (f"import os, sys\nos.chdir({str(tmp_path)!r})\n{_cli(*argv)}\n"
                "print('_hashlib' in sys.modules, file=sys.stderr)")
        rc, _, stderr = _fresh(body, "rc")
        assert (rc, stderr) == (0, f"{loads}\n"), argv[0]


def test_priors_and_decide_do_not_load_metrics(tmp_path):
    # Only compare_rules, of all the decision module, needs segrecall.metrics.
    from conftest import build_pipeline_fixture

    fx = {k: str(v) for k, v in build_pipeline_fixture(tmp_path / "fx").items()}
    runs = [
        ["priors", "--manifest", fx["manifest"], "--out", "priors.sft"],
        ["decide", "--probs", fx["manifest"], "--rule", "bayes", "--out", "bayes"],
        ["decide", "--probs", fx["manifest"], "--rule", "ml", "--priors", "priors.sft",
         "--out", "ml"],
    ]
    for argv in runs:
        body = (f"import os, sys\nos.chdir({str(tmp_path)!r})\n{_cli(*argv)}\n"
                "print('segrecall.metrics' in sys.modules, file=sys.stderr)")
        rc, _, stderr = _fresh(body, "rc")
        assert (rc, stderr) == (0, "False\n"), argv


@pytest.mark.parametrize("argv, preset, want", [
    (["decide", "--probs", "m.json", "--rule", "bayes", "--out", "o"], None, "1"),
    (["evaluate", "--pred", "p", "--gt", "g", "--classes", "c.json", "--out", "o.csv"], None, "1"),
    (["loss", "--probs", "p.sft", "--labels", "g.pgm", "--classes", "c.json", "--loss", "ce"],
     None, "1"),
    (["gcn", "--features", "f.sft", "--graph", "g.json", "--weights", "w.sft",
      "--classes", "c.json", "--out", "o"], None, "1"),
    (["priors", "--manifest", "m.json", "--out", "p.sft"], None, "1"),
    (["arch", "--variant", "basic"], None, "1"),
    (["decide", "--probs", "m.json", "--rule", "bayes", "--out", "o"], "3", "3"),
], ids=["decide", "evaluate", "loss", "gcn", "priors", "arch", "decide-preset"])
def test_every_command_starts_blas_on_one_thread(tmp_path, argv, preset, want):
    # A fresh interpreter: the variable only counts before numpy's first import.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = ("import os\nfrom segrecall import cli\n"
              f"cli.main({argv!r})\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))")
    result = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(want)


def test_in_process_callers_keep_their_environment(monkeypatch, tmp_path):
    # numpy is already imported here, so the variable would change nothing.
    from segrecall import cli

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert cli.main(["decide", "--probs", str(tmp_path / "m.json"), "--rule", "bayes",
                     "--out", str(tmp_path / "o")]) == 1
    assert "OPENBLAS_NUM_THREADS" not in os.environ
