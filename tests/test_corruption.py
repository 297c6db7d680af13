"""A sweep of corrupted inputs through ``cli.main``, in process.

Each command's every input is corrupted in turn. Each case must exit 1 or 2
with one ``error: `` line that names the corrupted file, raise nothing out
of ``main`` (no traceback), print nothing else and leave no output file.
"""

import json
import shutil

import numpy as np
import pytest

from segrecall import LabelMap
from segrecall.cli import main
from segrecall.fileio import read_pgm, read_sft, write_label_map, write_pgm, write_sft

H, W = 4, 6
NAMES = ["a", "b", "c"]


def _write_json(path, payload):
    path.write_text(json.dumps(payload))


def _clean_inputs(root):
    rng = np.random.default_rng(70)
    for probs, labels in (("p.sft", "g.pgm"), ("q.sft", "h.pgm")):
        logits = rng.normal(size=(H, W, len(NAMES)))
        write_sft(root / probs, (np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True))
                  .astype(np.float32))
        gt = rng.integers(0, len(NAMES), size=(H, W))
        gt[0, 0] = 255
        write_label_map(root / labels, LabelMap(gt))
    for folder in ("pred", "gt"):
        (root / folder).mkdir()
        write_label_map(root / folder / "x.pgm", LabelMap(rng.integers(0, len(NAMES), (H, W))))
    _write_json(root / "classes.json", {"names": NAMES})
    _write_json(root / "manifest.json", {"classes": {"names": NAMES}, "entries": [
        {"probs": "p.sft", "labels": "g.pgm"}, {"probs": "q.sft", "labels": "h.pgm"}]})
    _write_json(root / "groups.json", {"groups": [{"name": "low", "classes": ["a"]},
                                                  {"name": "high", "classes": ["b", "c"]}]})
    _write_json(root / "ial.json", {"groups": [{"classes": [name]} for name in NAMES]})
    _write_json(root / "graph.json", {"adjacency": np.tril(np.ones((3, 3))).tolist()})
    write_sft(root / "f.sft", rng.normal(size=(H, W, 2)).astype(np.float32))
    write_sft(root / "w0.sft", rng.uniform(-0.5, 0.5, size=(3, 4)))
    write_sft(root / "w1.sft", rng.uniform(-0.5, 0.5, size=(4, 2)))
    argv = ["priors", "--manifest", str(root / "manifest.json"), "--sigma", "1",
            "--out", str(root / "priors.sft")]
    assert main(argv) == 0


COMMANDS = {
    "decide": lambda r: ["decide", "--probs", r / "manifest.json", "--rule", "ml",
                         "--priors", r / "priors.sft", "--out", r / "out"],
    "evaluate": lambda r: ["evaluate", "--pred", r / "pred", "--gt", r / "gt",
                           "--classes", r / "classes.json", "--groups", r / "groups.json",
                           "--out", r / "out" / "metrics.csv"],
    "priors": lambda r: ["priors", "--manifest", r / "manifest.json", "--sigma", "1",
                         "--out", r / "out" / "priors.sft"],
    "loss": lambda r: ["loss", "--probs", r / "p.sft", "--labels", r / "g.pgm",
                       "--classes", r / "classes.json", "--loss", "ial",
                       "--config", r / "ial.json", "--grad-check",
                       "--out", r / "out" / "loss.json"],
    "gcn": lambda r: ["gcn", "--features", r / "f.sft", "--graph", r / "graph.json",
                      "--weights", r / "w0.sft", r / "w1.sft", "--classes", r / "classes.json",
                      "--out", r / "out"],
}


def _rewrite_bytes(edit):
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def _rewrite_sft(edit):
    return lambda path: write_sft(path, edit(read_sft(path)))


def _nan_entry(a):
    a.reshape(-1)[1] = np.nan
    return a


def _extra_row(path):
    # One more row (of a map) or input row (of a weight matrix): the file
    # no longer fits its partner.
    if path.suffix == ".pgm":
        data = read_pgm(path)
        write_pgm(path, np.concatenate([data, data[:1]]))
    else:
        data = read_sft(path)
        write_sft(path, np.concatenate([data, data[:1]]))


# A field of the wrong type, for each JSON input.
WRONG_TYPE = {
    "classes.json": lambda d: {**d, "names": "abc"},
    "manifest.json": lambda d: {**d, "entries": {}},
    "groups.json": lambda d: {**d, "groups": [{"name": 3, "classes": ["a"]}]},
    "ial.json": lambda d: {**d, "lambda": "half"},
    "graph.json": lambda d: {**d, "adjacency": "lower"},
    "priors.sft.json": lambda d: {**d, "config": {**d["config"], "floor": "low"}},
}

CORRUPTIONS = {
    "truncated": _rewrite_bytes(lambda b: b[:-1]),
    "trailing-byte": _rewrite_bytes(lambda b: b + b"\0"),
    "bad-sft-magic": _rewrite_bytes(lambda b: b"XFT1" + b[4:]),
    "rank-byte-0": _rewrite_bytes(lambda b: b[:5] + b"\0" + b[6:]),
    "zero-dimension": _rewrite_bytes(lambda b: b[:6] + bytes(4) + b[10:]),
    "cut-in-dimension-table": _rewrite_bytes(lambda b: b[:8]),
    "rank-1": _rewrite_sft(lambda a: a.reshape(-1)),
    "extra-channel": _rewrite_sft(lambda a: np.concatenate([a, a[..., :1]], axis=-1)),
    "nan-entry": _rewrite_sft(_nan_entry),
    "bad-pgm-magic": _rewrite_bytes(lambda b: b"P2" + b[2:]),
    "maxval-65535": _rewrite_bytes(lambda b: b.replace(b"\n255\n", b"\n65535\n", 1)),
    "short-raster": _rewrite_bytes(lambda b: b[:-1]),
    "non-numeric-header": _rewrite_bytes(lambda b: b.replace(b"P5\n", b"P5\nx", 1)),
    "invalid-json": _rewrite_bytes(lambda b: b[: len(b) // 2]),
    "not-utf-8": _rewrite_bytes(lambda b: b"\xff" + b),
    "wrong-type": lambda path: _write_json(
        path, WRONG_TYPE[path.name](json.loads(path.read_text()))),
    "extra-row": _extra_row,
}

HEADER = ("bad-sft-magic", "rank-byte-0", "zero-dimension", "cut-in-dimension-table")
SFT = ("truncated", "trailing-byte", *HEADER, "rank-1", "extra-channel", "nan-entry")
WEIGHT = ("truncated", "trailing-byte", *HEADER, "rank-1", "extra-row", "nan-entry")
PGM = ("bad-pgm-magic", "maxval-65535", "short-raster", "non-numeric-header")
JSON = ("invalid-json", "not-utf-8", "wrong-type")

# Each command's inputs, and what is done to each. "extra-row" is given to
# the file whose resolution is checked against another's.
READS = {
    "decide": {"manifest.json": JSON, "p.sft": SFT, "q.sft": ("extra-row",),
               "priors.sft": SFT, "priors.sft.json": JSON},
    "evaluate": {"pred/x.pgm": PGM, "gt/x.pgm": (*PGM, "extra-row"),
                 "classes.json": JSON, "groups.json": JSON},
    "priors": {"manifest.json": JSON, "g.pgm": PGM, "h.pgm": ("extra-row",)},
    "loss": {"p.sft": (*SFT, "extra-row"), "g.pgm": (*PGM, "extra-row"),
             "classes.json": JSON, "ial.json": JSON},
    "gcn": {"f.sft": SFT, "graph.json": JSON, "w0.sft": WEIGHT, "w1.sft": WEIGHT,
            "classes.json": JSON},
}

CASES = [(command, name, fault) for command, reads in READS.items()
         for name, faults in reads.items() for fault in faults]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    _clean_inputs(root)
    return root


@pytest.fixture
def inputs(clean, tmp_path):
    """A fresh copy of the clean inputs, for one case to corrupt."""
    return shutil.copytree(clean, tmp_path / "inputs")


def _main(command, root) -> int:
    return main([str(arg) for arg in COMMANDS[command](root)])


@pytest.mark.parametrize("command", COMMANDS)
def test_clean_inputs_run(inputs, capsys, command):
    assert _main(command, inputs) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, name, fault", CASES,
                         ids=[f"{c}-{n}-{f}" for c, n, f in CASES])
def test_a_corrupted_input_fails_naming_it(inputs, capsys, command, name, fault):
    CORRUPTIONS[fault](inputs / name)
    assert _main(command, inputs) in (1, 2)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert str(inputs / name) in err, err
    assert [p for p in (inputs / "out").rglob("*") if p.is_file()] == []
