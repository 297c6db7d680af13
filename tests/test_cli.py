import argparse
import json
import os
import time

import numpy as np
import pytest

from segrecall import ClassSpec, LabelMap, PriorsMap, ProbMap, cli, errors, fileio
from segrecall.cli import build_parser, main
from segrecall.core import _LABEL_BLOCK_PIXELS, BLOCK_PIXELS
from segrecall.datasets import CITYSCAPES_GROUP_NAMES, CITYSCAPES_NAMES
from segrecall.decision import decide_bayes, decide_ml, estimate_priors
from segrecall.fileio import (
    class_spec_to_dict,
    read_label_map,
    read_pgm,
    read_sft,
    write_label_map,
    write_sft,
)
from segrecall.gcn import ClassifierMatrix, GcnWeights, GraphSpec, classify_features, gcn_forward
from segrecall.losses import (
    FrequencyWeights,
    check_gradient,
    class_pixel_frequencies,
    cross_entropy,
    ial,
    load_importance_config,
)

from conftest import FIXTURE_CLASSES, peak_traced_bytes, random_labelmap


def write_manifest(path, entries, classes=FIXTURE_CLASSES):
    path.write_text(json.dumps({"classes": classes, "entries": entries}))
    return path


@pytest.fixture
def spec3_file(tmp_path, spec3):
    path = tmp_path / "classes.json"
    path.write_text(json.dumps(class_spec_to_dict(spec3)))
    return path


class TestPriorsCommand:
    def test_toy_priors_match_library(self, tmp_path, spec3):
        write_label_map(tmp_path / "a.pgm", LabelMap(np.zeros((2, 2), dtype=np.int64)))
        write_label_map(tmp_path / "b.pgm", LabelMap(np.ones((2, 2), dtype=np.int64)))
        manifest = write_manifest(
            tmp_path / "manifest.json", [{"labels": "a.pgm"}, {"labels": "b.pgm"}]
        )
        out = tmp_path / "priors.sft"
        assert main(["priors", "--manifest", str(manifest), "--sigma", "0",
                     "--floor", "1e-5", "--out", str(out)]) == 0
        maps = [read_label_map(tmp_path / n, spec3) for n in ("a.pgm", "b.pgm")]
        want = estimate_priors(maps, spec3, sigma=0.0, floor=1e-5)
        np.testing.assert_array_equal(read_sft(out), want.data)
        sidecar = json.loads((tmp_path / "priors.sft.json").read_text())
        assert sidecar["config"]["sigma"] == 0.0
        assert "manifest_sha256" in sidecar

    def test_jobs_do_not_change_the_priors_bytes(self, tmp_path):
        rng = np.random.default_rng(48)
        entries = []
        for i in range(3):
            data = rng.integers(0, 3, size=(40, 60))
            data[rng.random((40, 60)) < 0.2] = 255
            write_label_map(tmp_path / f"{i}.pgm", LabelMap(data))
            entries.append({"labels": f"{i}.pgm"})
        manifest = write_manifest(tmp_path / "manifest.json", entries)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"priors{jobs}.sft"
            assert main(["priors", "--manifest", str(manifest), "--sigma", "4",
                         "--out", str(out), "--jobs", jobs]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_defaults_recorded_in_sidecar(self, tmp_path):
        write_label_map(tmp_path / "a.pgm", LabelMap(np.zeros((4, 4), dtype=np.int64)))
        manifest = write_manifest(tmp_path / "manifest.json", [{"labels": "a.pgm"}])
        out = tmp_path / "priors.sft"
        assert main(["priors", "--manifest", str(manifest), "--out", str(out)]) == 0
        config = json.loads((tmp_path / "priors.sft.json").read_text())["config"]
        assert config["sigma"] == 40.0
        assert config["floor"] == 1e-5

    def test_empty_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "manifest.json", [])
        assert main(["priors", "--manifest", str(manifest), "--out", str(tmp_path / "p.sft")]) == 2
        assert "no entries" in capsys.readouterr().err


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memory_is_the_counts_one_band_and_each_workers_scratch(self, tmp_path, jobs):
        h, w, c = 256, 512, 19
        rng = np.random.default_rng(54)
        entries = []
        for i in range(3):
            write_label_map(tmp_path / f"{i}.pgm",
                            LabelMap(random_labelmap(rng, h, w, c).data.astype(np.uint8)))
            entries.append({"labels": f"{i}.pgm"})
        classes = {"names": [f"c{k}" for k in range(c)], "ignore_id": 255}
        manifest = write_manifest(tmp_path / "manifest.json", entries, classes)
        out = tmp_path / "priors.sft"
        peak = peak_traced_bytes(main, ["priors", "--manifest", str(manifest), "--sigma", "40",
                                        "--jobs", str(jobs), "--out", str(out)])
        assert read_sft(out).shape == (h, w, c)
        plane = h * w * 8
        band = 64 * w * 8  # the rows of one band of a plane
        operators = (h * h + w * w) * 8
        # uint8 counts, uint8 totals, one float64 band of priors, a span plane
        # and a band of scratch rows per worker, the operators, and 1 MB for
        # the rest; the 20 MB float64 priors are never held.
        assert peak <= c * h * w + h * w + band * c + jobs * (plane + band) + operators + 2**20

    def test_sigma_too_wide_for_int64_taps_writes_nothing(self, tmp_path, capsys):
        write_label_map(tmp_path / "g.pgm", LabelMap(np.zeros((4, 4), dtype=np.int64)))
        manifest = write_manifest(tmp_path / "m.json", [{"labels": "g.pgm"}])
        out = tmp_path / "priors.sft"
        argv = ["priors", "--manifest", str(manifest), "--sigma", "1e300", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: sigma") and "1e+300" in captured.err
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "priors.sft.json").exists()

    def test_sigma_beyond_the_cap_exits_at_once_and_writes_nothing(self, tmp_path, capsys):
        # Smoothing time grows with the 6*sigma + 1 taps: 1e7 would take seconds.
        write_label_map(tmp_path / "g.pgm", LabelMap(np.zeros((4, 4), dtype=np.int64)))
        manifest = write_manifest(tmp_path / "m.json", [{"labels": "g.pgm"}])
        out = tmp_path / "priors.sft"
        start = time.perf_counter()
        assert main(["priors", "--manifest", str(manifest), "--sigma", "1e7",
                     "--out", str(out)]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == "error: sigma must lie in [0, 1e6], got 10000000.0\n"
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "priors.sft.json").exists()

    def test_mixed_resolution_stops_before_writing(self, tmp_path, capsys):
        for name, shape in (("a.pgm", (4, 4)), ("b.pgm", (4, 4)), ("odd.pgm", (4, 5))):
            write_label_map(tmp_path / name, LabelMap(np.zeros(shape, dtype=np.int64)))
        manifest = write_manifest(
            tmp_path / "manifest.json",
            [{"labels": "a.pgm"}, {"labels": "b.pgm"}, {"labels": "odd.pgm"}],
        )
        out = tmp_path / "priors.sft"
        assert main(["priors", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "odd.pgm" in capsys.readouterr().err
        assert not out.exists()


def one_hot_probs(gt, c):
    data = np.zeros(gt.shape + (c,), dtype=np.float64)
    for k in range(c):
        data[gt == k, k] = 1.0
    return data


class TestDecideCommand:
    def test_bayes_writes_argmax_pgm(self, tmp_path):
        gt = np.array([[0, 1], [2, 0]], dtype=np.int64)
        write_sft(tmp_path / "x.sft", one_hot_probs(gt, 3))
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "x.sft"}])
        out = tmp_path / "preds"
        assert main(["decide", "--probs", str(manifest), "--rule", "bayes",
                     "--out", str(out)]) == 0
        spec = ClassSpec(names=tuple(FIXTURE_CLASSES["names"]))
        assert np.array_equal(read_label_map(out / "x.pgm", spec).data, gt)

    def test_ml_with_uniform_priors_matches_bayes(self, tmp_path):
        rng = np.random.default_rng(50)
        logits = rng.normal(size=(4, 4, 3))
        probs = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
        write_sft(tmp_path / "x.sft", probs)
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "x.sft"}])
        priors_path = tmp_path / "uniform.sft"
        write_sft(priors_path, np.full((4, 4, 3), 1.0 / 3))
        (tmp_path / "uniform.sft.json").write_text(
            json.dumps({"config": {"sigma": 0.0, "floor": 1e-5}})
        )
        assert main(["decide", "--probs", str(manifest), "--rule", "bayes",
                     "--out", str(tmp_path / "b")]) == 0
        assert main(["decide", "--probs", str(manifest), "--rule", "ml",
                     "--priors", str(priors_path), "--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "b" / "x.pgm").read_bytes() == (tmp_path / "m" / "x.pgm").read_bytes()

    def _priors_for(self, tmp_path, classes, shape):
        # Priors written by the priors command for a one-map manifest.
        write_label_map(tmp_path / "lab.pgm", LabelMap(np.zeros(shape, dtype=np.int64)))
        manifest = write_manifest(tmp_path / "lab.json", [{"labels": "lab.pgm"}], classes)
        priors = tmp_path / "priors.sft"
        assert main(["priors", "--manifest", str(manifest), "--sigma", "0",
                     "--out", str(priors)]) == 0
        return priors

    def _ml_run(self, tmp_path, priors, shape):
        probs = np.full(shape + (3,), 1.0 / 3)
        write_sft(tmp_path / "x.sft", probs)
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "x.sft"}])
        return main(["decide", "--probs", str(manifest), "--rule", "ml",
                     "--priors", str(priors), "--out", str(tmp_path / "o")])

    def test_ml_rejects_priors_of_other_classes(self, tmp_path, capsys):
        other = {"names": ["sky", "tree", "car"], "ignore_id": 255}
        priors = self._priors_for(tmp_path, other, (4, 4))
        assert self._ml_run(tmp_path, priors, (4, 4)) == 2
        assert str(priors) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ml_rejects_priors_of_other_resolution(self, tmp_path, capsys):
        priors = self._priors_for(tmp_path, FIXTURE_CLASSES, (4, 4))
        assert self._ml_run(tmp_path, priors, (2, 2)) == 2
        assert str(priors) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ml_rejects_sidecar_resolution_mismatch(self, tmp_path, capsys):
        priors = self._priors_for(tmp_path, FIXTURE_CLASSES, (4, 4))
        sidecar = tmp_path / "priors.sft.json"
        recorded = json.loads(sidecar.read_text())
        recorded["resolution"] = [2, 8]
        sidecar.write_text(json.dumps(recorded))
        assert self._ml_run(tmp_path, priors, (4, 4)) == 2
        assert str(priors) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_output_name_collision_stops_before_writing(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_sft(tmp_path / sub / "x.sft", np.full((2, 2, 3), 1.0 / 3))
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "a/x.sft"}, {"probs": "b/x.sft"}])
        out = tmp_path / "preds"
        assert main(["decide", "--probs", str(manifest), "--rule", "bayes",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "a" / "x.sft") in err and str(tmp_path / "b" / "x.sft") in err
        assert not out.exists()

    # A map with another resolution, rank or channel count stops the run at
    # the header pass, before any output is written.
    @pytest.mark.parametrize("rule, odd_shape, code", [
        ("bayes", (4, 5, 3), 2), ("ml", (4, 5, 3), 2),
        ("bayes", (4, 4), 1), ("ml", (4, 4), 1),
        ("bayes", (4, 4, 2), 2), ("ml", (4, 4, 2), 2),
    ], ids=["bayes", "ml", "rank-bayes", "rank-ml", "channels-bayes", "channels-ml"])
    def test_mixed_resolution_stops_before_writing(self, tmp_path, capsys, rule, odd_shape, code):
        priors = self._priors_for(tmp_path, FIXTURE_CLASSES, (4, 4))
        for name, shape in (("a.sft", (4, 4, 3)), ("b.sft", (4, 4, 3)), ("odd.sft", odd_shape)):
            write_sft(tmp_path / name, np.full(shape, 1.0 / shape[-1]))
        manifest = write_manifest(
            tmp_path / "m.json", [{"probs": "a.sft"}, {"probs": "b.sft"}, {"probs": "odd.sft"}]
        )
        out = tmp_path / "preds"
        assert main(["decide", "--probs", str(manifest), "--rule", rule,
                     "--priors", str(priors), "--out", str(out)]) == code
        assert "odd.sft" in capsys.readouterr().err
        assert not out.exists()

    def test_short_map_stops_the_header_pass_before_writing(self, tmp_path, capsys):
        for name in ("a.sft", "b.sft"):
            write_sft(tmp_path / name, np.full((2, 2, 3), 1.0 / 3))
        short = tmp_path / "b.sft"
        os.truncate(short, short.stat().st_size - 4)
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "a.sft"}, {"probs": "b.sft"}])
        out = tmp_path / "preds"
        assert main(["decide", "--probs", str(manifest), "--rule", "bayes", "--jobs", "1",
                     "--out", str(out)]) == 1
        size = 2 * 2 * 3 * 8
        assert capsys.readouterr().err == (
            f"error: {short}: expected {size} payload bytes, found {size - 4}\n"
        )
        assert not out.exists()

    def test_failed_run_leaves_no_run_record(self, tmp_path, capsys):
        for name in ("a.sft", "b.sft"):
            write_sft(tmp_path / name, np.full((2, 2, 3), 1.0 / 3))
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "a.sft"}, {"probs": "b.sft"}])
        out = tmp_path / "preds"
        argv = ["decide", "--probs", str(manifest), "--rule", "bayes", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "run.json").exists()
        bad = np.full((2, 2, 3), 1.0 / 3)
        bad[1, 1] = [1.0, 0.5, 0.0]  # channel sum 1.5
        write_sft(tmp_path / "b.sft", bad)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'b.sft'}: ")
        assert not (out / "run.json").exists()

    def test_failed_map_leaves_no_earlier_labels(self, tmp_path, capsys):
        for name in ("a.sft", "b.sft"):
            write_sft(tmp_path / name, np.full((2, 2, 3), 1.0 / 3))
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "a.sft"}, {"probs": "b.sft"}])
        out = tmp_path / "preds"
        argv = ["decide", "--probs", str(manifest), "--rule", "bayes", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "b.pgm").exists()
        bad = np.full((2, 2, 3), 1.0 / 3)
        bad[1, 1] = [1.0, 0.5, 0.0]  # channel sum 1.5
        write_sft(tmp_path / "b.sft", bad)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'b.sft'}: ")
        assert (out / "a.pgm").exists()
        assert not (out / "b.pgm").exists()

    def test_ml_without_priors_is_usage_error(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "x.sft"}])
        assert main(["decide", "--probs", str(manifest), "--rule", "ml",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--priors" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("sigma", "x"), ("sigma", True), ("sigma", None), ("floor", "1e-5"), ("floor", [0.1]),
    ], ids=["sigma-string", "sigma-bool", "sigma-missing", "floor-string", "floor-list"])
    def test_ml_rejects_malformed_sidecar_numbers(self, tmp_path, capsys, key, value):
        priors = self._priors_for(tmp_path, FIXTURE_CLASSES, (4, 4))
        sidecar = tmp_path / "priors.sft.json"
        recorded = json.loads(sidecar.read_text())
        recorded["config"][key] = value
        sidecar.write_text(json.dumps(recorded))
        assert self._ml_run(tmp_path, priors, (4, 4)) == 1
        assert capsys.readouterr().err.startswith(f"error: {sidecar}: '{key}' ")
        assert not (tmp_path / "o").exists()


def write_priors(path, data, floor):
    # A priors file as decide --rule ml reads it: the SFT plus its sidecar.
    write_sft(path, data)
    (path.parent / (path.name + ".json")).write_text(
        json.dumps({"config": {"sigma": 0.0, "floor": floor}})
    )
    return path


class TestStreamedDecide:
    """decide streams each map block by block: same labels, same errors, one block held."""

    ROWS = BLOCK_PIXELS // 500

    @staticmethod
    def _decide(tmp_path, probs, rule, priors=None):
        write_sft(tmp_path / "x.sft", probs)
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "x.sft"}],
                                  {"names": [f"c{k}" for k in range(probs.shape[2])]})
        argv = ["decide", "--probs", str(manifest), "--rule", rule, "--out", str(tmp_path / "o")]
        if priors is not None:
            argv += ["--priors", str(priors)]
        return main(argv)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2 * ROWS + 7, 500, 5), (3, BLOCK_PIXELS + 9, 3)],
                             ids=["height-not-a-multiple", "row-wider-than-a-block"])
    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_labels_match_the_in_memory_rules(self, tmp_path, dtype, shape, ties):
        rng = np.random.default_rng(45)
        h, w, c = shape
        if ties:
            # Quarters that sum to exactly 1, over priors of 1/4 or 1/2: both
            # rules meet exact ties often.
            data = rng.multinomial(4, np.full(c, 1.0 / c), size=(h, w)) / 4
            prior = rng.choice([0.25, 0.5], size=shape)
        else:
            data = rng.random(shape)
            data /= data.sum(axis=2, keepdims=True)
            prior = rng.uniform(1e-3, 1.0, size=shape)
        data = data.astype(dtype)
        p = ProbMap(data)
        priors = write_priors(tmp_path / "priors.sft", prior, 1e-3)
        for rule, want in (("bayes", decide_bayes(p)),
                           ("ml", decide_ml(p, PriorsMap(prior, floor=1e-3)))):
            assert self._decide(tmp_path, data, rule, priors) == 0
            np.testing.assert_array_equal(read_pgm(tmp_path / "o" / "x.pgm"), want.data)
            if ties:
                scores = data if rule == "bayes" else data / prior
                assert ((scores == scores.max(axis=2, keepdims=True)).sum(axis=2) > 1).any()

    @pytest.mark.parametrize("bad, text", [(np.nan, "nan"), (-0.25, "-0.25"), (1.5, "1.5")],
                             ids=["nan", "negative", "above-one"])
    def test_out_of_range_in_the_last_block_wins_over_an_earlier_bad_sum(
            self, tmp_path, capsys, bad, text):
        h, w = 2 * self.ROWS + 7, 500
        probs = np.full((h, w, 3), 1.0 / 3)
        probs[0, 0] = [1.0, 0.5, 0.0]  # channel sum 1.5, in block 0
        probs[h - 1, 400, 1] = bad  # in the last block
        probs[h - 1, 450, 2] = bad  # a later pixel, not named
        assert self._decide(tmp_path, probs, "bayes") == 1
        path = tmp_path / "x.sft"
        assert capsys.readouterr().err == (
            f"error: {path}: probability {text} at pixel ({h - 1}, 400) channel 1 "
            "is outside [0, 1]\n"
        )
        assert not (tmp_path / "o" / "x.pgm").exists()

    def test_bad_sum_alone_names_its_first_pixel(self, tmp_path, capsys):
        h, w = 2 * self.ROWS + 7, 500
        probs = np.full((h, w, 3), 1.0 / 3)
        probs[self.ROWS + 3, 7] = [0.9, 0.5, 0.0]  # block 1
        probs[h - 1, 9] = [1.0, 0.5, 0.0]  # last block
        assert self._decide(tmp_path, probs, "bayes") == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'x.sft'}: channel sum 1.400000 at pixel ({self.ROWS + 3}, 7) "
            "is outside 1 +/- 0.0001\n"
        )
        assert not (tmp_path / "o" / "x.pgm").exists()

    def test_map_shortened_after_its_size_check_fails_the_read(self, tmp_path, capsys,
                                                                monkeypatch):
        h, w = 2 * self.ROWS + 7, 500
        path = tmp_path / "x.sft"

        class ShrinkingOs:
            # The real os, except that fstat cuts the map short once it has
            # reported the full size to the read; the first fstat is the
            # header pass's.
            calls = 0

            def __getattr__(self, name):
                return getattr(os, name)

            def fstat(self, fd):
                st = os.fstat(fd)
                self.calls += 1
                if self.calls == 2:
                    os.truncate(path, st.st_size - 100)
                return st

        monkeypatch.setattr(fileio, "os", ShrinkingOs())
        assert self._decide(tmp_path, np.full((h, w, 3), 1.0 / 3), "bayes") == 1
        assert capsys.readouterr().err == f"error: {path}: payload ended early while reading\n"
        assert not (tmp_path / "o" / "x.pgm").exists()

    @pytest.mark.parametrize("rule", ["bayes", "ml"])
    def test_memory_is_the_labels_and_a_few_blocks(self, tmp_path, rule):
        h, w, c = 512, 1024, 19
        data = np.random.default_rng(46).random((h, w, c), dtype=np.float32)
        data /= data.sum(axis=2, keepdims=True)
        write_sft(tmp_path / "x.sft", data)
        del data
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "x.sft"}],
                                  {"names": [f"c{k}" for k in range(c)]})
        priors = write_priors(tmp_path / "priors.sft", np.full((h, w, c), 1.0 / c), 1e-5)
        argv = ["decide", "--probs", str(manifest), "--rule", rule, "--priors", str(priors),
                "--out", str(tmp_path / "o")]
        peak = peak_traced_bytes(main, argv)
        assert read_pgm(tmp_path / "o" / "x.pgm").shape == (h, w)
        # One byte per label plus four float64 blocks. Neither the 40 MB map
        # nor ML's 80 MB float64 priors is ever held: each priors block is
        # read into the buffer its quotient is written to.
        assert peak <= h * w + 4 * BLOCK_PIXELS * c * 8

    def test_float32_priors_are_widened_block_by_block(self, tmp_path):
        rng = np.random.default_rng(47)
        shape = (2 * self.ROWS + 7, 500, 4)
        data = rng.random(shape)
        data /= data.sum(axis=2, keepdims=True)
        prior = rng.uniform(1e-3, 1.0, size=shape).astype(np.float32)
        priors = write_priors(tmp_path / "priors.sft", prior, 1e-3)
        assert self._decide(tmp_path, data, "ml", priors) == 0
        want = decide_ml(ProbMap(data), PriorsMap(prior, floor=1e-3))
        np.testing.assert_array_equal(read_pgm(tmp_path / "o" / "x.pgm"), want.data)


class TestStreamedPriors:
    """decide --rule ml checks its priors in one block pass before anything is
    written, then streams them beside each map; a priors file that changes
    after that pass fails its map loudly."""

    ROWS = BLOCK_PIXELS // 500
    SHAPE = (2 * ROWS + 7, 500, 3)

    def _setup(self, tmp_path, floor=1e-3):
        probs = np.full(self.SHAPE, 1.0 / 3)
        write_sft(tmp_path / "x.sft", probs)
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "x.sft"}])
        priors = write_priors(tmp_path / "priors.sft", np.full(self.SHAPE, 0.5), floor)
        argv = ["decide", "--probs", str(manifest), "--rule", "ml", "--priors", str(priors),
                "--out", str(tmp_path / "o")]
        return priors, argv

    @pytest.mark.parametrize("fault, text", [
        ("rank-2", "priors must be H*W*C, got shape (5, 6)"),
        ("rank-1", "priors must be H*W*C, got shape (4,)"),
        ("last-block-above-one", "prior entries must lie in [floor, 1]"),
        ("last-block-below-floor", "prior entries must lie in [floor, 1]"),
        ("last-block-nan", "prior entries must lie in [floor, 1]"),
        ("floor-0", "floor must lie in (0, 1], got 0.0"),
    ])
    def test_bad_priors_exit_1_naming_them_before_any_output(self, tmp_path, capsys, fault, text):
        priors, argv = self._setup(tmp_path, floor=0.0 if fault == "floor-0" else 1e-3)
        data = np.full(self.SHAPE, 0.5)
        if fault == "rank-2":
            data = np.full((5, 6), 0.5)
        elif fault == "rank-1":  # the reader must check the rank before it sizes a block
            data = np.full(4, 0.5)
        elif fault == "last-block-above-one":
            data[-1, -1, 2] = 1.5
        elif fault == "last-block-below-floor":
            data[-1, 0, 0] = 1e-4
        elif fault == "last-block-nan":
            data[-1, 1, 1] = np.nan
        write_sft(priors, data)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {priors}: {text}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change", ["out-of-range", "truncated", "reshaped"])
    def test_priors_changed_after_their_check_fail_the_map(self, tmp_path, capsys, monkeypatch,
                                                            change):
        priors, argv = self._setup(tmp_path)
        assert main(argv) == 0
        assert (tmp_path / "o" / "x.pgm").exists()
        size = priors.stat().st_size
        checked = cli._read_priors

        def then_change(*args):
            found = checked(*args)
            if change == "out-of-range":
                data = np.full(self.SHAPE, 0.5)
                data[self.ROWS + 1, 3, 1] = 0.0  # block 1, below the floor
                write_sft(priors, data)
            elif change == "truncated":
                os.truncate(priors, size - 8)
            else:
                write_sft(priors, np.full((self.SHAPE[1], self.SHAPE[0], 3), 0.5))
            return found

        monkeypatch.setattr(cli, "_read_priors", then_change)
        assert main(argv) == 1
        payload = 8 * np.prod(self.SHAPE)
        h, w, c = self.SHAPE
        assert capsys.readouterr().err == "error: " + {
            "out-of-range": f"{priors}: prior entries must lie in [floor, 1]",
            "truncated": f"{priors}: expected {payload} payload bytes, found {payload - 8}",
            "reshaped": f"{priors}: priors of shape {(h, w, c)} now have shape {(w, h, c)}",
        }[change] + "\n"
        assert not (tmp_path / "o" / "x.pgm").exists()
        assert not (tmp_path / "o" / "run.json").exists()

    @pytest.mark.parametrize("rows, cols", [(ROWS, 0), (0, 1)], ids=["taller", "wider"])
    def test_map_reshaped_after_the_header_pass_fails(self, tmp_path, capsys, monkeypatch,
                                                      rows, cols):
        # Taller by a whole row block: the priors' blocks run out first.
        priors, argv = self._setup(tmp_path)
        h, w, c = self.SHAPE
        grown = (h + rows, w + cols, c)
        checked = cli._read_priors

        def then_change(*args):
            found = checked(*args)
            write_sft(tmp_path / "x.sft", np.full(grown, 1.0 / 3))
            return found

        monkeypatch.setattr(cli, "_read_priors", then_change)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'x.sft'}: probabilities {grown} and priors {self.SHAPE} differ\n"
        )
        assert not (tmp_path / "o" / "x.pgm").exists()
        assert not (tmp_path / "o" / "run.json").exists()

    def test_priors_shortened_while_read_fail_the_map(self, tmp_path, capsys, monkeypatch):
        priors, argv = self._setup(tmp_path)
        size = priors.stat().st_size

        class ShrinkingOs:
            # The real os, except that fstat cuts the priors short once it has
            # reported their full size to the map's worker. The fstats are the
            # map's header pass, the priors' check, then the map and the
            # priors in the worker.
            calls = 0

            def __getattr__(self, name):
                return getattr(os, name)

            def fstat(self, fd):
                st = os.fstat(fd)
                self.calls += 1
                if self.calls == 4:
                    os.truncate(priors, size - 100)
                return st

        monkeypatch.setattr(fileio, "os", ShrinkingOs())
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {priors}: payload ended early while reading\n"
        assert not (tmp_path / "o" / "x.pgm").exists()


class TestStreamedGcnAndLoss:
    """gcn and loss stream their maps block by block: the same bytes as the
    whole-map library functions, the same errors in the same order, and a
    few blocks held instead of the map."""

    W = 500
    ROWS = BLOCK_PIXELS // W
    H = 2 * ROWS + 7  # a short last row block
    C = 5

    def _classes(self, tmp_path, c=C):
        path = tmp_path / "classes.json"
        path.write_text(json.dumps({"names": [f"c{k}" for k in range(c)]}))
        return path

    def _gcn_setup(self, tmp_path, h=H, w=W, c=C, d=16):
        rng = np.random.default_rng(61)
        features = (rng.normal(size=(h, w, d)) * 3).astype(np.float32)
        write_sft(tmp_path / "features.sft", features)
        adjacency = np.tril(np.ones((c, c)))  # distinct rows, so distinct classifier rows
        (tmp_path / "graph.json").write_text(json.dumps({"adjacency": adjacency.tolist()}))
        layers = (rng.uniform(-0.5, 0.5, size=(c, 8)), rng.uniform(-0.5, 0.5, size=(8, d)))
        for i, layer in enumerate(layers):
            write_sft(tmp_path / f"w{i}.sft", layer)
        argv = ["gcn", "--features", str(tmp_path / "features.sft"),
                "--graph", str(tmp_path / "graph.json"),
                "--weights", str(tmp_path / "w0.sft"), str(tmp_path / "w1.sft"),
                "--classes", str(self._classes(tmp_path, c)), "--out", str(tmp_path / "o")]
        return features, layers, argv

    def test_gcn_outputs_equal_the_whole_map_functions_byte_for_byte(self, tmp_path):
        # The last row block is a short one.
        assert self.H % self.ROWS
        features, layers, argv = self._gcn_setup(tmp_path)
        assert main(argv) == 0
        rows = gcn_forward(np.eye(self.C), GraphSpec(np.tril(np.ones((self.C, self.C)))),
                           GcnWeights(layers))
        probs = classify_features(features, ClassifierMatrix(rows=rows))
        write_sft(tmp_path / "want.sft", probs.data)
        labels = decide_bayes(probs)
        write_label_map(tmp_path / "want.pgm", labels)
        out = tmp_path / "o"
        assert (out / "probs.sft").read_bytes() == (tmp_path / "want.sft").read_bytes()
        assert (out / "labels.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()
        assert len(np.unique(labels.data)) == self.C

    def _loss_setup(self, tmp_path, dtype, h=H, w=W, c=C):
        rng = np.random.default_rng(62)
        logits = rng.normal(size=(h, w, c))
        probs = (np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)).astype(dtype)
        gt = rng.integers(0, c, size=(h, w))
        gt[rng.random((h, w)) < 0.2] = 255
        write_sft(tmp_path / "p.sft", probs)
        write_label_map(tmp_path / "g.pgm", LabelMap(gt))
        config = tmp_path / "ial.json"
        config.write_text(json.dumps({"groups": [{"classes": ["c0", "c1"]}, {"classes": ["c2"]},
                                                 {"classes": ["c3", "c4"]}]}))
        argv = ["loss", "--probs", str(tmp_path / "p.sft"), "--labels", str(tmp_path / "g.pgm"),
                "--classes", str(self._classes(tmp_path, c))]
        return ProbMap(probs), LabelMap(gt), config, argv

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_reports_equal_the_library_exactly(self, tmp_path, capsys, dtype):
        p, gt, config, argv = self._loss_setup(tmp_path, dtype)
        reports = {}
        for loss in ("ce", "wce", "ial"):
            extra = ["--config", str(config)] if loss == "ial" else []
            assert main([*argv, "--loss", loss, *extra]) == 0
            reports[loss] = json.loads(capsys.readouterr().out)
        assert reports["ce"]["value"] == cross_entropy(p, gt)
        weights = FrequencyWeights(class_pixel_frequencies([gt], self.C))
        assert reports["wce"]["value"] == cross_entropy(p, gt, weights)
        assert reports["wce"]["weights"] == weights.weights.tolist()
        breakdown = ial(p, gt, load_importance_config(config, ClassSpec(
            names=tuple(f"c{k}" for k in range(self.C)))))
        assert reports["ial"]["value"] == breakdown.total
        assert reports["ial"]["group_losses"] == list(breakdown.group_losses)
        assert reports["ial"]["dynamic_weights"] == list(breakdown.dynamic_weights)
        assert reports["ial"]["multipliers"] == list(breakdown.multipliers)

    def test_grad_check_on_a_streamed_map(self, tmp_path, capsys):
        _, _, config, argv = self._loss_setup(tmp_path, np.float64)
        assert main([*argv, "--loss", "ial", "--config", str(config), "--grad-check"]) == 0
        assert json.loads(capsys.readouterr().out)["grad_max_rel_error"] < 1e-5

    def test_grad_check_streams_the_map_a_second_time(self, tmp_path, capsys):
        # 256×1024×19 float32 is a 19 MB map. The check reads it block by
        # block a second time, so neither the map nor its 40 MB float64
        # gradient is held, and it reports the library's bits.
        h, w, c = 256, 1024, 19
        p, gt, config, argv = self._loss_setup(tmp_path, np.float32, h, w, c)
        groups = [{"classes": [f"c{k}" for k in range(c) if k % 3 == g]} for g in range(3)]
        config.write_text(json.dumps({"groups": groups}))
        peak = peak_traced_bytes(main, [*argv, "--loss", "ial", "--config", str(config),
                                        "--grad-check"])
        report = json.loads(capsys.readouterr().out)
        assert peak < p.data.nbytes
        spec = ClassSpec(names=tuple(f"c{k}" for k in range(c)))
        assert report["grad_max_rel_error"] == check_gradient(
            p, gt, load_importance_config(config, spec))

    def test_grad_check_fails_when_the_map_changes_between_passes(self, tmp_path, capsys,
                                                                  monkeypatch):
        _, _, config, argv = self._loss_setup(tmp_path, np.float64)
        path = tmp_path / "p.sft"
        opened = []
        real = fileio.prob_map_rows

        def rewritten_before_the_second_pass(probs, spec):
            opened.append(probs)
            if len(opened) == 2:
                write_sft(path, np.full((self.H + 1, self.W, self.C), 1.0 / self.C))
            return real(probs, spec)

        monkeypatch.setattr(fileio, "prob_map_rows", rewritten_before_the_second_pass)
        out = tmp_path / "o.json"
        assert main([*argv, "--loss", "ial", "--config", str(config), "--grad-check",
                     "--out", str(out)]) == 1
        assert len(opened) == 2
        shapes = (self.H, self.W, self.C), (self.H + 1, self.W, self.C)
        assert capsys.readouterr() == (
            "", f"error: {path}: map of shape {shapes[0]} now has shape {shapes[1]}\n")
        assert not out.exists()

    def test_gcn_memory_is_the_labels_and_a_few_blocks(self, tmp_path):
        h, w, c, d = 512, 1024, 19, 16
        _, _, argv = self._gcn_setup(tmp_path, h, w, c, d)
        peak = peak_traced_bytes(main, argv)
        assert read_pgm(tmp_path / "o" / "labels.pgm").shape == (h, w)
        # One byte per label plus four blocks of float64 features and
        # probabilities; the 32 MB features and 80 MB probabilities are never held.
        assert peak <= h * w + 4 * BLOCK_PIXELS * (c + d) * 8

    @pytest.mark.parametrize("loss", ["ce", "wce", "ial"])
    def test_loss_memory_is_the_gathered_pixels_and_a_few_blocks(self, tmp_path, capsys, loss):
        h, w, c = 512, 1024, 19
        _, _, config, argv = self._loss_setup(tmp_path, np.float64, h, w, c)
        groups = [{"classes": [f"c{k}" for k in range(c) if k % 3 == g]} for g in range(3)]
        config.write_text(json.dumps({"groups": groups}))
        extra = ["--config", str(config)] if loss == "ial" else []
        peak = peak_traced_bytes(main, [*argv, "--loss", loss, *extra])
        assert json.loads(capsys.readouterr().out)["value"] > 0
        # The label map and its mask (a few bytes a pixel), a handful of
        # float64 or int64 vectors over the labelled pixels, and a few
        # blocks; the 80 MB map (152 bytes a pixel) is never held.
        assert peak <= h * w * (4 + 8 * 8) + 4 * BLOCK_PIXELS * c * 8

    def _bad_map(self, tmp_path, fault):
        h, w = self.H, self.W
        probs = np.full((h, w, 3), 1.0 / 3)
        if fault == "range":
            probs[h - 1, 400] = [0.75, -0.25, 0.5]  # in the last block
            return probs, (f"probability -0.25 at pixel ({h - 1}, 400) channel 1 "
                           "is outside [0, 1]")
        probs[h - 1, 9] = [1.0, 0.4, 0.0]  # in the last block
        return probs, f"channel sum 1.400000 at pixel ({h - 1}, 9) is outside 1 +/- 0.0001"

    @pytest.mark.parametrize("fault", ["range", "sum"])
    @pytest.mark.parametrize("pair", ["label-7", "maxval-65535", "missing", "resolution"])
    @pytest.mark.parametrize("loss", ["ce", "wce", "ial"])
    def test_map_errors_win_over_label_file_and_pair_errors(self, tmp_path, spec3_file, capsys,
                                                             fault, pair, loss):
        probs, text = self._bad_map(tmp_path, fault)
        write_sft(tmp_path / "p.sft", probs)
        gt = np.zeros(probs.shape[:2], dtype=np.int64)
        if pair == "label-7":
            write_label_map(tmp_path / "g.pgm", LabelMap(np.where(gt == 0, 7, gt)))
        elif pair == "maxval-65535":
            (tmp_path / "g.pgm").write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        elif pair == "resolution":
            write_label_map(tmp_path / "g.pgm", LabelMap(gt[:-1]))
        config = tmp_path / "ial.json"
        config.write_text(json.dumps({"groups": [{"classes": ["road", "building", "rider"]}]}))
        argv = ["loss", "--probs", str(tmp_path / "p.sft"), "--labels", str(tmp_path / "g.pgm"),
                "--classes", str(spec3_file), "--loss", loss, "--config", str(config),
                "--out", str(tmp_path / "o.json")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {tmp_path / 'p.sft'}: {text}\n")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("loss", ["wce", "ial"])
    def test_a_bad_config_wins_over_a_resolution_mismatch(self, tmp_path, spec3_file, capsys,
                                                          loss):
        write_sft(tmp_path / "p.sft", np.full((4, 4, 3), 1.0 / 3))
        write_label_map(tmp_path / "g.pgm", LabelMap(np.zeros((4, 5), dtype=np.int64)))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"groups": []} if loss == "ial" else [0.5, "x"]))
        flag = "--config" if loss == "ial" else "--freqs"
        argv = ["loss", "--probs", str(tmp_path / "p.sft"), "--labels", str(tmp_path / "g.pgm"),
                "--classes", str(spec3_file), "--loss", loss, flag, str(bad)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        bad.unlink()
        if loss == "ial":
            bad.write_text(json.dumps({"groups": [{"classes": ["road", "building", "rider"]}]}))
        else:
            bad.write_text(json.dumps([0.5, 0.25, 0.25]))
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'p.sft'} and {tmp_path / 'g.pgm'}: "
                                           "maps differ in resolution: 4x4 vs 4x5\n")

    # Rank 1 must be checked before the reader sizes a block from the dims.
    @pytest.mark.parametrize("shape", [(H, W), (4,)], ids=["rank-2", "rank-1"])
    def test_gcn_rank_2_features_is_a_dimension_error(self, tmp_path, capsys, shape):
        _, _, argv = self._gcn_setup(tmp_path)
        write_sft(tmp_path / "features.sft", np.zeros(shape, dtype=np.float32))
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {tmp_path / 'features.sft'}: features must be H*W*D, got shape {shape}\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault", ["nan-feature", "inf-feature", "inf-weight", "nan-weight"])
    def test_gcn_non_finite_input_exits_1_naming_it_and_writes_nothing(self, tmp_path, capsys,
                                                                        fault):
        features, layers, argv = self._gcn_setup(tmp_path)
        if fault.endswith("feature"):
            features[self.ROWS + 3, 7, 2] = np.nan if fault == "nan-feature" else -np.inf
            features[self.H - 1, 0, 0] = np.nan  # a later block: the first one is named
            path = tmp_path / "features.sft"
            write_sft(path, features)
            value = "nan" if fault == "nan-feature" else "-inf"
            text = f"feature {value} at pixel ({self.ROWS + 3}, 7) channel 2 is not finite"
        else:
            weights = layers[1].copy()
            weights[2, 1] = np.inf if fault == "inf-weight" else np.nan
            weights[5, 0] = np.nan
            path = tmp_path / "w1.sft"
            write_sft(path, weights)
            text = f"weight entry {weights[2, 1]} at (2, 1) is not finite"
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {text}\n")
        assert list((tmp_path / "o").glob("*")) == []

    def test_features_shortened_after_their_size_check_fail_the_read(self, tmp_path, capsys,
                                                                     monkeypatch):
        _, _, argv = self._gcn_setup(tmp_path)
        assert main(argv) == 0
        out = tmp_path / "o"
        before = (out / "probs.sft").read_bytes()
        path = tmp_path / "features.sft"
        size = path.stat().st_size

        class ShrinkingOs:
            # The real os, except that fstat cuts the features short once it
            # has reported their full size to the size check.
            def __getattr__(self, name):
                return getattr(os, name)

            def fstat(self, fd):
                st = os.fstat(fd)
                if st.st_size == size:
                    os.truncate(path, size - 100)
                return st

        monkeypatch.setattr(fileio, "os", ShrinkingOs())
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: payload ended early while reading\n"
        assert not (out / "run.json").exists()
        assert (out / "probs.sft").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["labels.pgm", "probs.sft"]


class TestAtomicOutputs:
    def test_failed_write_leaves_the_earlier_outputs_whole(self, tmp_path, monkeypatch):
        write_label_map(tmp_path / "a.pgm", LabelMap(np.zeros((4, 4), dtype=np.int64)))
        manifest = write_manifest(tmp_path / "manifest.json", [{"labels": "a.pgm"}])
        out = tmp_path / "out"
        out.mkdir()
        argv = ["priors", "--manifest", str(manifest), "--sigma", "0",
                "--out", str(out / "priors.sft")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"priors.sft", "priors.sft.json"}

        def failing_memoryview(obj):
            # The header is already written; the payload write fails.
            raise OSError("disk full")

        monkeypatch.setattr(fileio, "memoryview", failing_memoryview, raising=False)
        assert main([*argv, "--floor", "1e-3"]) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestEvaluateCommand:
    def _run(self, tmp_path, spec3_file, pred, gt):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        write_label_map(tmp_path / "pred" / "img.pgm", LabelMap(pred))
        write_label_map(tmp_path / "gt" / "img.pgm", LabelMap(gt))
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--classes", str(spec3_file), "--out", str(out)])
        return code, out

    def test_perfect_predictions(self, tmp_path, spec3_file):
        gt = np.array([[0, 1, 2, 0]], dtype=np.int64)
        code, out = self._run(tmp_path, spec3_file, gt, gt)
        assert code == 0
        for line in out.read_text().strip().split("\n")[1:]:
            name, p, r, iou, support = line.split(",")
            assert p == r == iou == "1.0000"

    def test_four_pixel_toy_case(self, tmp_path, spec3_file):
        pred = np.array([[0, 1, 1, 1]], dtype=np.int64)
        gt = np.array([[0, 0, 1, 1]], dtype=np.int64)
        code, out = self._run(tmp_path, spec3_file, pred, gt)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "road,1.0000,0.5000,0.5000,2"
        assert lines[2] == "building,0.6667,1.0000,0.6667,2"

    def test_csv_iou_column_consistent_with_pr(self, tmp_path, spec3_file):
        pred = np.array([[0, 1, 1, 1]], dtype=np.int64)
        gt = np.array([[0, 0, 1, 1]], dtype=np.int64)
        _, out = self._run(tmp_path, spec3_file, pred, gt)
        lines = out.read_text().strip().split("\n")
        for line in lines[1:]:
            name, p, r, iou, _ = line.split(",")
            if name == "mean" or "" in (p, r, iou):
                continue
            p, r, iou = float(p), float(r), float(iou)
            if p > 0 and r > 0:
                assert abs(1.0 / (1.0 / p + 1.0 / r - 1.0) - iou) <= 1e-6

    def test_group_rows_from_json(self, tmp_path, spec3_file):
        (tmp_path / "groups.json").write_text(json.dumps({
            "groups": [{"name": "background", "classes": ["road", "building"]},
                       {"name": "critical", "classes": ["rider"]}],
        }))
        gt = np.array([[0, 1, 2, 0]], dtype=np.int64)
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        write_label_map(tmp_path / "pred" / "img.pgm", LabelMap(gt))
        write_label_map(tmp_path / "gt" / "img.pgm", LabelMap(gt))
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--classes", str(spec3_file), "--groups", str(tmp_path / "groups.json"),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[-2].startswith("background,") and lines[-1].startswith("critical,")

    def _preset_run(self, tmp_path, groups):
        # Cityscapes names in reverse order: a preset must follow the spec, not
        # the shipped class order.
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(class_spec_to_dict(ClassSpec(names=CITYSCAPES_NAMES[::-1]))))
        rng = np.random.default_rng(52)
        gt = rng.integers(0, 19, size=(16, 16))
        pred = np.where(rng.random((16, 16)) < 0.3, rng.integers(0, 19, size=(16, 16)), gt)
        for sub, data in (("pred", pred), ("gt", gt)):
            (tmp_path / sub).mkdir(exist_ok=True)
            write_label_map(tmp_path / sub / "img.pgm", LabelMap(data.astype(np.int64)))
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--classes", str(classes), "--groups", groups, "--out", str(out)])
        return code, out

    def test_preset_resolves_names_against_classes(self, tmp_path):
        code, out = self._preset_run(tmp_path, "cityscapes")
        assert code == 0
        preset_rows = out.read_text().strip().split("\n")[-3:]
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"groups": [
            {"name": f"G{i + 1}", "classes": list(names)}
            for i, names in enumerate(CITYSCAPES_GROUP_NAMES)
        ]}))
        assert self._preset_run(tmp_path, str(groups))[0] == 0
        assert out.read_text().strip().split("\n")[-3:] == preset_rows
        assert [row.split(",")[0] for row in preset_rows] == ["G1", "G2", "G3"]

    def test_preset_class_missing_from_spec_stops_the_run(self, tmp_path, capsys):
        code, out = self._preset_run(tmp_path, "camvid")
        assert code == 1
        err = capsys.readouterr().err
        assert "camvid" in err and "bicyclist" in err
        assert not out.exists()

    @pytest.mark.parametrize("pred, gt, code, text", [
        ([[0, 255]], [[0, 1]], 1, "{pred}: prediction contains invalid class id 255"),
        ([[0, 1, 2], [2, 1, 0]], [[0, 1], [1, 0]], 2,
         "{pred} and {gt}: prediction (2, 3) and ground truth (2, 2) differ"),
    ], ids=["invalid-id-exits-1", "resolution-exits-2"])
    def test_pair_errors_name_the_pair(self, tmp_path, spec3_file, capsys, pred, gt, code, text):
        got, out = self._run(tmp_path, spec3_file, np.array(pred), np.array(gt))
        assert got == code
        paths = {"pred": tmp_path / "pred" / "img.pgm", "gt": tmp_path / "gt" / "img.pgm"}
        assert capsys.readouterr().err == f"error: {text.format(**paths)}\n"
        assert not out.exists()

    def test_two_jobs_write_the_csv_of_one_holding_two_maps_each(self, tmp_path):
        h, w, c = 512, 1024, len(CITYSCAPES_NAMES)
        rng = np.random.default_rng(53)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(class_spec_to_dict(ClassSpec(names=CITYSCAPES_NAMES))))
        for i in range(4):
            gt = rng.integers(0, c, size=(h, w))
            gt[rng.random((h, w)) < 0.1] = 255
            pred = np.where(rng.random((h, w)) < 0.3, rng.integers(0, c, size=(h, w)), gt % 255)
            for sub, data in (("pred", pred), ("gt", gt)):
                (tmp_path / sub).mkdir(exist_ok=True)
                write_label_map(tmp_path / sub / f"m{i}.pgm", LabelMap(data))

        def run(jobs):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                         "--classes", str(classes), "--groups", "cityscapes", "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            return out.read_bytes()

        one = run(1)
        peak = peak_traced_bytes(run, 2)
        assert (tmp_path / "jobs2.csv").read_bytes() == one
        # Each worker holds its pair's two maps, read straight into their
        # arrays, and one row block of counting temporaries (see
        # test_metrics); 512 KiB covers the command's own objects.
        assert peak <= 2 * (2 * h * w + 24 * _LABEL_BLOCK_PIXELS) + 512 * 1024

    def test_empty_pred_dir_is_usage_error(self, tmp_path, spec3_file):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        assert main(["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--classes", str(spec3_file), "--out", str(tmp_path / "o.csv")]) == 2


class TestLossCommand:
    def test_ce_on_perfect_maps_is_zero(self, tmp_path, spec3_file, capsys):
        gt = np.array([[0, 1], [2, 2]], dtype=np.int64)
        write_sft(tmp_path / "p.sft", one_hot_probs(gt, 3))
        write_label_map(tmp_path / "g.pgm", LabelMap(gt))
        assert main(["loss", "--probs", str(tmp_path / "p.sft"),
                     "--labels", str(tmp_path / "g.pgm"),
                     "--classes", str(spec3_file), "--loss", "ce"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def _ial_config(self, tmp_path):
        cfg = tmp_path / "ial.json"
        cfg.write_text(json.dumps({
            "groups": [{"classes": ["road"]}, {"classes": ["building"]},
                       {"classes": ["rider"]}],
            "lambda": 0.5,
            "alpha": 1.0,
        }))
        return cfg

    def test_ial_single_pixel_fixture(self, tmp_path, spec3_file, capsys):
        write_sft(tmp_path / "p.sft", np.array([[[0.2, 0.0, 0.8]]]))
        write_label_map(tmp_path / "g.pgm", LabelMap(np.array([[2]], dtype=np.int64)))
        assert main(["loss", "--probs", str(tmp_path / "p.sft"),
                     "--labels", str(tmp_path / "g.pgm"),
                     "--classes", str(spec3_file), "--loss", "ial",
                     "--config", str(self._ial_config(tmp_path))]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(0.2507, abs=1e-4)

    def test_grad_check_reports_small_error(self, tmp_path, spec3_file, capsys):
        rng = np.random.default_rng(51)
        logits = rng.normal(size=(3, 3, 3))
        probs = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
        write_sft(tmp_path / "p.sft", probs)
        write_label_map(
            tmp_path / "g.pgm",
            LabelMap(rng.integers(0, 3, size=(3, 3)).astype(np.int64)),
        )
        assert main(["loss", "--probs", str(tmp_path / "p.sft"),
                     "--labels", str(tmp_path / "g.pgm"),
                     "--classes", str(spec3_file), "--loss", "ial",
                     "--config", str(self._ial_config(tmp_path)), "--grad-check"]) == 0
        assert json.loads(capsys.readouterr().out)["grad_max_rel_error"] < 1e-5

    def test_wce_uses_label_frequencies_by_default(self, tmp_path, spec3_file, capsys):
        gt = np.array([[0, 0, 0, 1]], dtype=np.int64)
        probs = np.full((1, 4, 3), 0.0)
        probs[0, :, 0] = 0.5
        probs[0, :, 1] = 0.5
        write_sft(tmp_path / "p.sft", probs)
        write_label_map(tmp_path / "g.pgm", LabelMap(gt))
        assert main(["loss", "--probs", str(tmp_path / "p.sft"),
                     "--labels", str(tmp_path / "g.pgm"),
                     "--classes", str(spec3_file), "--loss", "wce"]) == 0
        report = json.loads(capsys.readouterr().out)
        # Rare class 1 carries a larger weight than dominant class 0.
        assert report["weights"][1] > report["weights"][0]
        assert report["value"] > 0

    def test_ial_without_config_is_usage_error(self, tmp_path, spec3_file, capsys):
        assert main(["loss", "--probs", "p.sft", "--labels", "g.pgm",
                     "--classes", str(spec3_file), "--loss", "ial"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_grad_check_requires_ial(self, tmp_path, spec3_file, capsys):
        assert main(["loss", "--probs", "p.sft", "--labels", "g.pgm",
                     "--classes", str(spec3_file), "--loss", "ce", "--grad-check"]) == 2
        assert "--grad-check" in capsys.readouterr().err


class TestGcnCommand:
    def _identity_setup(self, tmp_path, spec3_file):
        features = np.zeros((2, 2, 3))
        features[0, 0, 1] = 5.0
        features[0, 1, 0] = 5.0
        features[1, 0, 2] = 5.0
        features[1, 1, 2] = 5.0
        write_sft(tmp_path / "features.sft", features)
        (tmp_path / "graph.json").write_text(json.dumps({"adjacency": np.eye(3).tolist()}))
        write_sft(tmp_path / "w0.sft", np.eye(3))
        return features

    def test_identity_pipeline_argmaxes_raw_channels(self, tmp_path, spec3_file):
        features = self._identity_setup(tmp_path, spec3_file)
        out = tmp_path / "out"
        assert main(["gcn", "--features", str(tmp_path / "features.sft"),
                     "--graph", str(tmp_path / "graph.json"),
                     "--weights", str(tmp_path / "w0.sft"),
                     "--classes", str(spec3_file), "--out", str(out)]) == 0
        spec = ClassSpec(names=("road", "building", "rider"))
        labels = read_label_map(out / "labels.pgm", spec)
        assert np.array_equal(labels.data, np.argmax(features, axis=2))
        probs = read_sft(out / "probs.sft")
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)

    def test_mismatched_weight_dims_is_usage_error(self, tmp_path, spec3_file, capsys):
        self._identity_setup(tmp_path, spec3_file)
        write_sft(tmp_path / "w0.sft", np.eye(4))  # wrong input dim for 3 nodes
        assert main(["gcn", "--features", str(tmp_path / "features.sft"),
                     "--graph", str(tmp_path / "graph.json"),
                     "--weights", str(tmp_path / "w0.sft"),
                     "--classes", str(spec3_file), "--out", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err

    def test_failed_run_leaves_no_run_record(self, tmp_path, spec3_file, monkeypatch):
        self._identity_setup(tmp_path, spec3_file)
        out = tmp_path / "out"
        argv = ["gcn", "--features", str(tmp_path / "features.sft"),
                "--graph", str(tmp_path / "graph.json"), "--weights", str(tmp_path / "w0.sft"),
                "--classes", str(spec3_file), "--out", str(out)]
        assert main(argv) == 0
        assert (out / "run.json").exists()

        def failing_write_pgm(path, data):
            raise OSError("disk full")

        monkeypatch.setattr(fileio, "write_pgm", failing_write_pgm)
        assert main(argv) == 1
        assert (out / "probs.sft").exists()
        assert not (out / "run.json").exists()


class TestArchCommand:
    def test_erf_rf_column(self, capsys):
        assert main(["arch", "--variant", "erf", "--dilations", "1,2,3",
                     "--input", "768x768"]) == 0
        assert "13x13" in capsys.readouterr().out

    def test_final_shape_matches_input(self, capsys):
        assert main(["arch", "--variant", "basic", "--input", "768x768"]) == 0
        assert "768x768x128" in capsys.readouterr().out

    def test_invalid_variant_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["arch", "--variant", "fourier", "--input", "768x768"])
        assert err.value.code == 2

    def test_bad_input_string(self, capsys):
        assert main(["arch", "--variant", "basic", "--input", "banana"]) == 2

    def test_indivisible_input_is_usage_error(self, capsys):
        assert main(["arch", "--variant", "basic", "--input", "100x96"]) == 2

    def test_json_output(self, tmp_path):
        out = tmp_path / "arch.json"
        assert main(["arch", "--variant", "gcnet-early", "--kernel", "7",
                     "--input", "256x256", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["variant"] == "gcnet-early"
        assert payload["stages"][-1]["output_shape"] == [256, 256, 128]


class TestMalformedInputFiles:
    @pytest.mark.parametrize("command", ["evaluate", "loss", "gcn"])
    def test_exit_1_naming_the_file(self, tmp_path, spec3_file, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"groups": [["road"]]}))
        write_sft(tmp_path / "p.sft", np.full((2, 2, 3), 1.0 / 3))
        write_label_map(tmp_path / "g.pgm", LabelMap(np.zeros((2, 2), dtype=np.int64)))
        argv = {
            "evaluate": ["--pred", str(tmp_path), "--gt", str(tmp_path), "--groups", str(bad),
                         "--out", str(tmp_path / "o.csv")],
            "loss": ["--probs", str(tmp_path / "p.sft"), "--labels", str(tmp_path / "g.pgm"),
                     "--loss", "ial", "--config", str(bad)],
            "gcn": ["--features", str(tmp_path / "p.sft"), "--graph", str(bad),
                    "--weights", str(tmp_path / "p.sft"), "--out", str(tmp_path / "o")],
        }[command]
        assert main([command, "--classes", str(spec3_file), *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("payload", [
        {"names": "road"},
        {"names": ["road", 3, "rider"]},
        {"names": ["road", "building", "rider"], "ignore_id": 254.9},
        {"names": ["road", "building", "rider"], "ignore_id": "x"},
        {"names": ["road", "building", "rider"], "ignore_id": True},
    ], ids=["names-string", "names-int", "ignore-float", "ignore-string", "ignore-bool"])
    @pytest.mark.parametrize("source", ["classes.json", "manifest", "priors sidecar"])
    def test_malformed_class_spec_names_the_file(self, tmp_path, capsys, source, payload):
        gt = np.zeros((2, 2), dtype=np.int64)
        write_label_map(tmp_path / "g.pgm", LabelMap(gt))
        write_sft(tmp_path / "p.sft", one_hot_probs(gt, 3))
        good = write_manifest(tmp_path / "m.json", [{"probs": "p.sft", "labels": "g.pgm"}])
        assert main(["priors", "--manifest", str(good), "--sigma", "0",
                     "--out", str(tmp_path / "priors.sft")]) == 0
        out = tmp_path / "out"
        if source == "classes.json":
            bad = tmp_path / "classes.json"
            bad.write_text(json.dumps(payload))
            argv = ["evaluate", "--pred", str(tmp_path), "--gt", str(tmp_path),
                    "--classes", str(bad), "--out", str(out)]
        elif source == "manifest":
            bad = write_manifest(tmp_path / "bad.json", [{"labels": "g.pgm"}], payload)
            argv = ["priors", "--manifest", str(bad), "--sigma", "0", "--out", str(out)]
        else:
            bad = tmp_path / "priors.sft.json"
            recorded = json.loads(bad.read_text())
            recorded["class_spec"] = payload
            bad.write_text(json.dumps(recorded))
            argv = ["decide", "--probs", str(good), "--rule", "ml",
                    "--priors", str(tmp_path / "priors.sft"), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, payload", [
        ("priors", 5),
        ("priors", {"classes": FIXTURE_CLASSES, "entries": 5}),
        ("priors", {"classes": FIXTURE_CLASSES, "entries": [{"labels": 5}]}),
        ("priors", {"classes": FIXTURE_CLASSES, "entries": [{"probs": "p.sft"}]}),
        ("decide", {"classes": FIXTURE_CLASSES, "entries": [{"labels": "g.pgm"}]}),
        ("loss", "abc"),
        ("loss", {}),
        ("loss", [0.5, "x"]),
        ("sidecar", {"config": 5}),
        ("sidecar", {"resolution": 5}),
        ("sidecar", {"resolution": ["a", 2]}),
        ("sidecar", {"resolution": [2]}),
        ("sidecar", {"resolution": [True, 2]}),
        ("sidecar", {"resolution": [2.0, 2]}),
        ("sidecar", {"class_spec": 5}),
        ("ial", {"groups": []}),
        ("priors-sft", [[0.5] * 5] * 4),
        ("gcn", {"adjacency": [[1, 0, 0], [0, 0, 0], [0, 0, 1]]}),
    ], ids=["manifest-number", "entries-number", "labels-number", "priors-entry-without-labels",
            "decide-entry-without-probs", "freqs-string", "freqs-object", "freqs-string-entry",
            "sidecar-config", "sidecar-resolution", "sidecar-resolution-string",
            "sidecar-resolution-one-entry", "sidecar-resolution-bool", "sidecar-resolution-float",
            "sidecar-class-spec", "ial-no-groups",
            "priors-rank-2", "gcn-isolated-node"])
    def test_malformed_input_exits_1_naming_it(self, tmp_path, spec3_file, capsys, command,
                                               payload):
        gt = np.zeros((2, 2), dtype=np.int64)
        write_label_map(tmp_path / "g.pgm", LabelMap(gt))
        write_sft(tmp_path / "p.sft", one_hot_probs(gt, 3))
        good = write_manifest(tmp_path / "m.json", [{"probs": "p.sft", "labels": "g.pgm"}])
        priors = tmp_path / "priors.sft"
        assert main(["priors", "--manifest", str(good), "--sigma", "0", "--out", str(priors)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = {
            "priors": ["--manifest", str(bad), "--sigma", "0", "--out", str(out)],
            "decide": ["--probs", str(bad), "--rule", "bayes", "--out", str(out)],
            "loss": ["--probs", str(tmp_path / "p.sft"), "--labels", str(tmp_path / "g.pgm"),
                     "--classes", str(spec3_file), "--loss", "wce", "--freqs", str(bad),
                     "--out", str(out)],
            "sidecar": ["--probs", str(good), "--rule", "ml", "--priors", str(priors),
                        "--out", str(out)],
            "ial": ["--probs", str(tmp_path / "p.sft"), "--labels", str(tmp_path / "g.pgm"),
                    "--classes", str(spec3_file), "--loss", "ial", "--config", str(bad),
                    "--out", str(out)],
            "gcn": ["--features", str(tmp_path / "p.sft"), "--graph", str(bad),
                    "--weights", str(tmp_path / "w.sft"), "--classes", str(spec3_file),
                    "--out", str(out)],
        }.get(command)
        if command == "sidecar":
            bad = tmp_path / "priors.sft.json"
            bad.write_text(json.dumps({**json.loads(bad.read_text()), **payload}))
            command = "decide"
        elif command == "priors-sft":
            bad = priors
            write_sft(bad, np.array(payload))
            argv = ["--probs", str(good), "--rule", "ml", "--priors", str(bad), "--out", str(out)]
            command = "decide"
        elif command == "ial":
            command = "loss"
        elif command == "gcn":
            write_sft(tmp_path / "w.sft", np.eye(3))
        assert main([command, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("encoding", ["utf-16", "latin-1"])
    @pytest.mark.parametrize("source", ["manifest", "classes", "ial-config", "graph",
                                        "priors-sidecar"])
    def test_json_that_is_not_utf8_exits_1_naming_it(self, tmp_path, capsys, source, encoding):
        gt = np.zeros((2, 2), dtype=np.int64)
        write_label_map(tmp_path / "g.pgm", LabelMap(gt))
        write_sft(tmp_path / "p.sft", one_hot_probs(gt, 3))
        write_sft(tmp_path / "w.sft", np.eye(3))
        good = write_manifest(tmp_path / "m.json", [{"probs": "p.sft", "labels": "g.pgm"}])
        priors = tmp_path / "priors.sft"
        assert main(["priors", "--manifest", str(good), "--sigma", "0", "--out", str(priors)]) == 0
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(FIXTURE_CLASSES))
        config = tmp_path / "ial.json"
        config.write_text(json.dumps({"groups": [{"classes": ["road", "building"]},
                                                 {"classes": ["rider"]}]}))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"adjacency": np.eye(3).tolist()}))
        out = tmp_path / "out"
        pair = ["--probs", tmp_path / "p.sft", "--labels", tmp_path / "g.pgm", "--classes", classes]
        bad, argv = {
            "manifest": (good, ["priors", "--manifest", good]),
            "classes": (classes, ["loss", *pair, "--loss", "ce"]),
            "ial-config": (config, ["loss", *pair, "--loss", "ial", "--config", config]),
            "graph": (graph, ["gcn", "--features", tmp_path / "p.sft", "--graph", graph,
                              "--weights", tmp_path / "w.sft", "--classes", classes]),
            "priors-sidecar": (tmp_path / "priors.sft.json",
                               ["decide", "--probs", good, "--rule", "ml", "--priors", priors]),
        }[source]
        text = bad.read_text()
        if encoding == "utf-16":  # starts with the bytes ff fe
            bad.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
        else:  # a key holding a Latin-1 e-acute
            bad.write_bytes(text.replace("{", '{"\xe9": 0, ', 1).encode("latin-1"))
        assert main([str(a) for a in [*argv, "--out", out]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: not valid UTF-8 (")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, bad, content", [
        ("priors", "bad.pgm", "label-7"),
        ("evaluate", "pred/x.pgm", "label-7"),
        ("decide", "bad.sft", "sum-1.5"),
        ("loss", "bad.sft", "sum-1.5"),
        ("decide", "bad.sft", "nan"),
        ("loss", "bad.sft", "negative"),
        ("loss", "bad.pgm", "maxval-65535"),
        ("loss", "bad.sft", "bad-magic"),
        ("loss", "bad.sft", "rank-2"),
        ("priors", "bad.pgm", "signed-header"),
    ], ids=["priors-label-7", "evaluate-label-7", "decide-sum", "loss-sum", "decide-nan",
            "loss-negative", "loss-maxval", "loss-magic", "loss-rank", "priors-pgm-header"])
    def test_malformed_map_exits_1_naming_it(self, tmp_path, spec3_file, capsys, command, bad,
                                              content):
        gt = np.zeros((2, 2), dtype=np.int64)
        probs = one_hot_probs(gt, 3)
        for name in ("g.pgm", "gt/x.pgm"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            write_label_map(tmp_path / name, LabelMap(gt))
        write_sft(tmp_path / "p.sft", probs)
        bad = tmp_path / bad
        bad.parent.mkdir(exist_ok=True)
        if content == "label-7":
            write_label_map(bad, LabelMap(np.where(gt == 0, 7, gt)))
        elif content == "maxval-65535":
            bad.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        elif content == "signed-header":
            # int() reads this header as 2 x 10; a PGM header holds digits only.
            bad.write_bytes(b"P5\n+2 1_0\n255\n" + bytes(20))
        elif content == "bad-magic":
            bad.write_bytes(b"XFT1" + bytes(2))
        elif content == "rank-2":
            write_sft(bad, probs[0])
        else:
            probs[0, 0] = {"sum-1.5": [1.0, 0.5, 0.0], "nan": [np.nan, 0.5, 0.5],
                           "negative": [1.5, -0.5, 0.0]}[content]
            write_sft(bad, probs)
        out = tmp_path / "out"
        probs_arg = bad if bad.suffix == ".sft" else tmp_path / "p.sft"
        labels_arg = bad if bad.suffix == ".pgm" else tmp_path / "g.pgm"
        argv = {
            "priors": ["--manifest", str(write_manifest(tmp_path / "labels.json",
                                                        [{"labels": "bad.pgm"}]))],
            "evaluate": ["--pred", str(bad.parent), "--gt", str(tmp_path / "gt"),
                         "--classes", str(spec3_file)],
            "decide": ["--probs", str(write_manifest(tmp_path / "probs.json",
                                                     [{"probs": "bad.sft"}])),
                       "--rule", "bayes"],
            "loss": ["--probs", str(probs_arg), "--labels", str(labels_arg),
                     "--classes", str(spec3_file), "--loss", "ce"],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert captured.out == ""
        assert not out.exists() or not any(out.rglob("*"))


class TestFlagErrors:
    @pytest.mark.parametrize("argv, line", [
        (["decide", "--probs", "{m}", "--rule", "ml", "--out", "{o}"],
         "--rule ml requires --priors"),
        (["decide", "--probs", "{collide}", "--rule", "bayes", "--out", "{o}"],
         "{t}/a/x.sft and {t}/b/x.sft would both write {o}/x.pgm"),
        (["loss", "--probs", "{p}", "--labels", "{g}", "--classes", "{c}", "--loss", "ial"],
         "--loss ial requires --config"),
        (["loss", "--probs", "{p}", "--labels", "{g}", "--classes", "{c}", "--loss", "wce",
          "--grad-check"], "--grad-check applies to --loss ial"),
        (["arch", "--variant", "erf", "--dilations", "1,two"],
         "--dilations expects integers, got '1,two'"),
        (["arch", "--variant", "basic", "--input", "banana"], "--input expects HxW, got 'banana'"),
    ], ids=["ml-without-priors", "name-collision", "ial-without-config", "grad-check-not-ial",
            "dilations", "input"])
    def test_usage_error_keeps_its_line(self, tmp_path, spec3_file, capsys, argv, line):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_sft(tmp_path / sub / "x.sft", np.full((2, 2, 3), 1.0 / 3))
        names = {
            "t": tmp_path, "o": tmp_path / "o", "c": spec3_file,
            "p": tmp_path / "a" / "x.sft", "g": tmp_path / "g.pgm",
            "m": write_manifest(tmp_path / "m.json", [{"probs": "a/x.sft"}]),
            "collide": write_manifest(
                tmp_path / "two.json", [{"probs": "a/x.sft"}, {"probs": "b/x.sft"}]
            ),
        }
        assert main([a.format(**names) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {line.format(**names)}\n"
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, name", [
        (["priors", "--sigma", "nan"], "sigma"),
        (["priors", "--sigma", "inf"], "sigma"),
        (["priors", "--sigma", "-1"], "sigma"),
        (["arch", "--variant", "basic", "--input", "0x0"], "input"),
        (["arch", "--variant", "basic", "--input=-32x64"], "input"),
        (["arch", "--variant", "basic", "--width", "0"], "width"),
        (["priors", "--floor", "2"], "floor"),
        (["priors", "--floor", "inf"], "floor"),
        (["loss", "--smoothing", "inf"], "smoothing"),
        (["gcn", "--slope", "nan"], "slope"),
        (["gcn", "--slope", "inf"], "slope"),
        (["priors", "--jobs", "-3"], "jobs"),
        (["decide", "--jobs", "0"], "jobs"),
        (["evaluate", "--jobs", "0"], "jobs"),
    ], ids=["sigma-nan", "sigma-inf", "sigma-negative", "input-zero", "input-negative",
            "width-zero", "floor-above-one", "floor-inf", "smoothing-inf", "slope-nan",
            "slope-inf", "jobs-negative", "jobs-zero-decide", "jobs-zero-evaluate"])
    def test_bad_numeric_flag_writes_nothing(self, tmp_path, spec3_file, capsys, argv, name):
        write_label_map(tmp_path / "g.pgm", LabelMap(np.zeros((4, 4), dtype=np.int64)))
        write_sft(tmp_path / "p.sft", np.full((4, 4, 3), 1.0 / 3))
        write_sft(tmp_path / "w.sft", np.eye(3))
        (tmp_path / "graph.json").write_text(json.dumps({"adjacency": np.ones((3, 3)).tolist()}))
        manifest = write_manifest(tmp_path / "m.json", [{"labels": "g.pgm"}])
        out = tmp_path / "out"
        value = argv[-1].rpartition("=")[2]
        if argv[0] == "priors":
            argv = [*argv, "--manifest", str(manifest), "--out", str(out)]
        elif argv[0] == "loss":
            argv = [*argv, "--probs", str(tmp_path / "p.sft"), "--labels", str(tmp_path / "g.pgm"),
                    "--classes", str(spec3_file), "--loss", "wce", "--out", str(out)]
        elif argv[0] == "decide":
            argv = [*argv, "--probs", str(manifest), "--rule", "bayes", "--out", str(out)]
        elif argv[0] == "evaluate":
            argv = [*argv, "--pred", str(tmp_path), "--gt", str(tmp_path),
                    "--classes", str(spec3_file), "--out", str(out)]
        elif argv[0] == "gcn":
            argv = [*argv, "--features", str(tmp_path / "p.sft"),
                    "--graph", str(tmp_path / "graph.json"),
                    "--weights", str(tmp_path / "w.sft"), str(tmp_path / "w.sft"),
                    "--classes", str(spec3_file), "--out", str(out)]
        else:
            argv = [*argv, "--json", str(out)]
        # The flag is checked before any map is read: with the maps gone, the
        # error still names the flag and not a missing file.
        for maps in ("present", "absent"):
            if maps == "absent":
                (tmp_path / "p.sft").unlink()
                (tmp_path / "g.pgm").unlink()
            assert main(argv) in (1, 2), maps
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and name in captured.err, maps
            assert value in captured.err, maps
            assert captured.out == ""
            assert not out.exists()


# The exit code of every error class: usage errors (flags, or inputs that do
# not fit together) exit 2, every other error exits 1.
EXIT_CODES = {
    "SegrecallError": 1,
    "FormatError": 1,
    "NotNormalizedError": 1,
    "OutOfRangeError": 1,
    "InvalidClassError": 1,
    "DomainError": 1,
    "UngroupedClassError": 1,
    "UsageError": 2,
    "ShapeMismatchError": 2,
    "PriorsMismatchError": 2,
    "EmptyInputError": 2,
    "DimensionMismatchError": 2,
    "IndivisibleInputError": 2,
}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_class_sets_exit_code(monkeypatch, capsys, name):
    classes = {n for n, v in vars(errors).items()
               if isinstance(v, type) and issubclass(v, errors.SegrecallError)}
    assert classes == set(EXIT_CODES)

    def stub(args):
        raise getattr(errors, name)("stubbed failure")

    monkeypatch.setattr(cli, "cmd_arch", stub)
    assert main(["arch", "--variant", "basic"]) == EXIT_CODES[name]
    captured = capsys.readouterr()
    assert captured.err == "error: stubbed failure\n"
    assert captured.out == ""


# The options of each subcommand. A flag added here must be read by its
# command; every one is recorded in the command's sidecar.
OPTIONS = {
    "priors": {"manifest", "sigma", "floor", "out", "jobs"},
    "decide": {"probs", "rule", "priors", "out", "jobs"},
    "evaluate": {"pred", "gt", "classes", "groups", "out", "jobs"},
    "loss": {"probs", "labels", "classes", "loss", "config", "freqs", "smoothing",
             "grad_check", "out"},
    "gcn": {"features", "graph", "weights", "classes", "slope", "out"},
    "arch": {"variant", "dilations", "kernel", "input", "width", "json"},
}


def _option_dests(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


class TestSidecarConfig:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_records_every_option(self, tmp_path, spec3_file, command):
        gt = np.array([[0, 1], [2, 0]], dtype=np.int64)
        (tmp_path / "gt").mkdir()
        write_label_map(tmp_path / "gt" / "x.pgm", LabelMap(gt))
        write_sft(tmp_path / "x.sft", one_hot_probs(gt, 3))
        write_sft(tmp_path / "w0.sft", np.eye(3))
        (tmp_path / "graph.json").write_text(json.dumps({"adjacency": np.eye(3).tolist()}))
        manifest = write_manifest(tmp_path / "m.json", [{"probs": "x.sft", "labels": "gt/x.pgm"}])
        classes = ["--classes", str(spec3_file)]
        argv, sidecar = {
            "priors": (["--manifest", str(manifest), "--sigma", "0",
                        "--out", str(tmp_path / "p.sft")], tmp_path / "p.sft.json"),
            "decide": (["--probs", str(manifest), "--rule", "bayes",
                        "--out", str(tmp_path / "d")], tmp_path / "d" / "run.json"),
            "evaluate": (["--pred", str(tmp_path / "gt"), "--gt", str(tmp_path / "gt"), *classes,
                          "--out", str(tmp_path / "e.csv")], tmp_path / "e.csv.json"),
            "loss": (["--probs", str(tmp_path / "x.sft"), "--labels", str(tmp_path / "gt/x.pgm"),
                      *classes, "--loss", "ce", "--out", str(tmp_path / "l.json")],
                     tmp_path / "l.json"),
            "gcn": (["--features", str(tmp_path / "x.sft"), "--graph", str(tmp_path / "graph.json"),
                     "--weights", str(tmp_path / "w0.sft"), *classes,
                     "--out", str(tmp_path / "g")], tmp_path / "g" / "run.json"),
            "arch": (["--variant", "basic", "--input", "256x256",
                      "--json", str(tmp_path / "a.json")], tmp_path / "a.json"),
        }[command]
        assert main([command, *argv]) == 0
        recorded = json.loads(sidecar.read_text())["config"]
        assert set(recorded) == _option_dests(command) == OPTIONS[command]
