import io
import json
import os
import re

import numpy as np
import pytest

from segrecall import ClassSpec, LabelMap, fileio
from segrecall.core import _LABEL_BLOCK_PIXELS, BLOCK_PIXELS
from segrecall.errors import EmptyInputError, FormatError, ShapeMismatchError
from segrecall.fileio import (
    class_spec_to_dict,
    load_class_spec,
    load_label_maps,
    load_manifest,
    read_label_map,
    read_pgm,
    read_prob_map,
    read_sft,
    write_label_map,
    write_pgm,
    write_sft,
)

from conftest import peak_traced_bytes, random_labelmap


class ShrinkingOs:
    """The real os, except that fstat cuts the file at ``path`` short by
    ``cut`` bytes once it has reported the full size."""

    def __init__(self, path, cut: int):
        self.path, self.cut = path, cut

    def __getattr__(self, name):
        return getattr(os, name)

    def fstat(self, fd):
        st = os.fstat(fd)
        os.truncate(self.path, st.st_size - self.cut)
        return st


class TestPgm:
    def test_round_trip_is_bit_identical(self, tmp_path, spec3):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 3, size=(5, 9)).astype(np.uint8)
        data[0, 0] = 255
        path = tmp_path / "a.pgm"
        write_label_map(path, LabelMap(data.astype(np.int64)))
        first = path.read_bytes()
        again = read_label_map(path, spec3)
        assert np.array_equal(again.data, data)
        write_label_map(path, again)
        assert path.read_bytes() == first

    def test_header_comments_and_whitespace(self, tmp_path):
        raw = b"P5 # magic\n# a comment line\n  3\t2\n255\n" + bytes(range(6))
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        data = read_pgm(path)
        assert data.shape == (2, 3)
        assert data.ravel().tolist() == list(range(6))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: not a binary PGM (expected magic P5)"

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: unsupported maxval 65535 (only 255)"

    @pytest.mark.parametrize("header", [b"+2 1_0 255", b"2 2 " + b"9" * 5000],
                             ids=["signed-and-underscore", "too-many-digits"])
    def test_header_fields_are_short_digit_runs(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n" + header + b"\n" + bytes(20))
        with pytest.raises(FormatError, match="non-numeric PGM header field"):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x00")
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: expected 4 raster bytes, found 2"

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00\x00")
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: expected 1 raster bytes, found 2"

    @pytest.mark.parametrize("raw, text", [
        (b"P5\n2 # width\n", "truncated PGM header"),
        (b"P5\n0 2\n255\n", "invalid dimensions 0x2"),
        (b"P5\n1 1\n255", "expected 1 raster bytes, found 0"),
    ], ids=["truncated-header", "zero-width", "no-raster-separator"])
    def test_header_errors_name_the_file(self, tmp_path, raw, text):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: {text}"

    def test_comment_longer_than_any_read_ahead(self, tmp_path):
        comment = b"# " + b"x" * 300_000 + b"\n"
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n" + comment + b"3 " + comment + b"2\n255\n" + bytes(range(6)))
        assert read_pgm(path).tolist() == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("at", range(251, 257))
    def test_field_straddling_the_read_ahead(self, tmp_path, at):
        # The width's digits start at byte ``at``, so for some ``at`` they run
        # across the end of the first 256 bytes read.
        comment = b"#" + b"x" * (at - 5) + b"\n"
        raw = b"P5\n" + comment + b"12345 1\n255\n" + bytes(12345)
        assert raw.index(b"12345") == at
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        assert read_pgm(path).shape == (1, 12345)

    def test_comment_running_to_the_end_of_the_file_truncates_the_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2 # no maxval, and no newline")
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: truncated PGM header"

    def test_raster_shortened_after_its_size_check_fails_the_read(self, tmp_path, monkeypatch):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.zeros((200, 300), dtype=np.uint8))  # beyond the read buffer
        monkeypatch.setattr(fileio, "os", ShrinkingOs(path, 100))
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: payload ended early while reading"

    def test_memory_is_the_map_and_one_small_block(self, tmp_path, spec3):
        h, w = 512, 1024
        data = random_labelmap(np.random.default_rng(48), h, w, 3).data.astype(np.uint8)
        path = tmp_path / "a.pgm"
        write_pgm(path, data)
        peak = peak_traced_bytes(read_label_map, path, spec3)
        # The raster read straight into the map, the file's read buffer and
        # one row block's id check; a second copy of the raster breaks it.
        assert peak <= h * w + io.DEFAULT_BUFFER_SIZE + 4 * _LABEL_BLOCK_PIXELS
        np.testing.assert_array_equal(read_label_map(path, spec3).data, data)

    def test_values_must_fit_a_byte(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(tmp_path / "x.pgm", np.array([[300]]))


class TestSft:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(11)
        arr = rng.normal(size=(3, 4, 5)).astype(dtype)
        path = tmp_path / "t.sft"
        write_sft(path, arr)
        back = read_sft(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)
        assert back.tobytes() == arr.tobytes()

    def test_file_bytes_are_stable(self, tmp_path):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        a, b = tmp_path / "a.sft", tmp_path / "b.sft"
        write_sft(a, arr)
        write_sft(b, arr)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()[:6] == b"SFT1" + bytes([1, 2])

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.sft"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(FormatError):
            read_sft(path)

    def test_rejects_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "bad.sft"
        path.write_bytes(b"SFT1" + bytes([9, 1]) + (1).to_bytes(4, "little") + bytes(8))
        with pytest.raises(FormatError):
            read_sft(path)

    def test_rejects_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.sft"
        for payload in (8, 24):  # short, then 8 trailing bytes after the 16 expected
            path.write_bytes(b"SFT1" + bytes([1, 1]) + (2).to_bytes(4, "little") + bytes(payload))
            with pytest.raises(FormatError, match=f"found {payload}"):
                read_sft(path)

    def test_rejects_non_float_arrays(self, tmp_path):
        with pytest.raises(FormatError):
            write_sft(tmp_path / "x.sft", np.zeros((2, 2), dtype=np.int32))


class TestSftWriter:
    @pytest.mark.parametrize("array, text", [
        (np.zeros((2, 2), dtype=np.float16), "SFT stores float32/float64 tensors"),
        (np.float64(1.0), "SFT rank must be 1..255, got 0"),
        (np.zeros((2, 0)), "SFT dimensions must be positive u32 values"),
    ], ids=["float16", "rank-0", "zero-dimension"])
    def test_rejects_what_the_format_cannot_hold(self, tmp_path, array, text):
        with pytest.raises(FormatError, match=re.escape(text)):
            write_sft(tmp_path / "x.sft", array)
        with pytest.raises(FormatError, match=re.escape(text)):
            with fileio.sft_writer(tmp_path / "x.sft", np.asarray(array).dtype,
                                   np.shape(array)):
                pass
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blocks, written", [(1, 96), (3, 288)], ids=["short", "long"])
    def test_a_payload_of_the_wrong_length_keeps_the_earlier_file(self, tmp_path, blocks,
                                                                   written):
        path = tmp_path / "t.sft"
        write_sft(path, np.zeros((4, 3, 2)))
        earlier = path.read_bytes()
        block = np.ones((2, 3, 2))  # half the rows
        with pytest.raises(FormatError) as exc:
            with fileio.sft_writer(path, np.float64, (4, 3, 2)) as write:
                for _ in range(blocks):
                    write(block)
        assert str(exc.value) == f"{path}: {written} payload bytes written, expected 192"
        assert path.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [path]


class TestAtomicWrites:
    @pytest.mark.parametrize("write, first, second", [
        (write_pgm, np.zeros((4, 4), dtype=np.uint8), np.ones((6, 6), dtype=np.uint8)),
        (write_sft, np.zeros((4, 4)), np.ones((6, 6))),
    ], ids=["pgm", "sft"])
    def test_failed_write_keeps_the_earlier_file_whole(self, tmp_path, monkeypatch, write,
                                                        first, second):
        path = tmp_path / "out.bin"
        write(path, first)
        earlier = path.read_bytes()

        def failing_memoryview(obj):
            # The header is already written; the payload write fails.
            raise OSError("disk full")

        monkeypatch.setattr(fileio, "memoryview", failing_memoryview, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(path, second)
        assert path.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [path]  # no temp file left


SPEC3 = ClassSpec(names=("a", "b", "c"))


class TestReadProbMap:
    ROWS = BLOCK_PIXELS // 500

    @pytest.mark.parametrize("bad, text", [(np.nan, "nan"), (-0.25, "-0.25"), (1.5, "1.5")],
                             ids=["nan", "negative", "above-one"])
    def test_out_of_range_in_the_last_block_wins_over_an_earlier_bad_sum(self, tmp_path,
                                                                          bad, text):
        h = 2 * self.ROWS + 7
        data = np.full((h, 500, 3), 1.0 / 3, dtype=np.float32)
        data[1, 2] = [1.0, 0.5, 0.0]  # channel sum 1.5, in block 0
        data[h - 1, 3, 2] = bad  # in the last block
        path = tmp_path / "p.sft"
        write_sft(path, data)
        line = f"{path}: probability {text} at pixel ({h - 1}, 3) channel 2 is outside [0, 1]"
        with pytest.raises(FormatError, match=f"^{re.escape(line)}$"):
            read_prob_map(path, SPEC3)

    def test_map_shortened_after_its_size_check_fails_the_read(self, tmp_path, monkeypatch):
        path = tmp_path / "p.sft"
        write_sft(path, np.full((2 * self.ROWS + 7, 500, 3), 1.0 / 3))

        monkeypatch.setattr(fileio, "os", ShrinkingOs(path, 100))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: payload ended early"):
            read_prob_map(path, SPEC3)

    def test_memory_is_the_map_and_one_block(self, tmp_path):
        h, w, c = 512, 1024, 19
        data = np.random.default_rng(47).random((h, w, c), dtype=np.float32)
        data /= data.sum(axis=2, keepdims=True)
        path = tmp_path / "p.sft"
        write_sft(path, data)
        spec = ClassSpec(names=tuple(f"c{k}" for k in range(c)))
        peak = peak_traced_bytes(read_prob_map, path, spec)
        # No H×W temporary of any float type beside the map.
        assert peak <= data.nbytes + BLOCK_PIXELS * c * 4
        np.testing.assert_array_equal(read_prob_map(path, spec).data, data)


class TestClassSpecJson:
    def test_round_trip(self, tmp_path):
        spec = ClassSpec(names=("sky", "road"), ignore_id=9)
        path = tmp_path / "classes.json"
        path.write_text(json.dumps(class_spec_to_dict(spec)))
        assert load_class_spec(path) == spec

    def test_missing_names(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text(json.dumps({"ignore_id": 255}))
        with pytest.raises(FormatError):
            load_class_spec(path)


def _write_manifest(tmp_path, entries):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"classes": {"names": ["a", "b"], "ignore_id": 255}, "entries": entries})
    )
    return manifest


class TestManifest:
    def test_paths_resolve_relative_to_manifest(self, tmp_path):
        spec = ClassSpec(names=("a", "b"))
        (tmp_path / "maps").mkdir()
        write_label_map(tmp_path / "maps" / "x.pgm", LabelMap(np.zeros((2, 2), dtype=np.int64)))
        manifest = _write_manifest(tmp_path, [{"labels": "maps/x.pgm"}])
        loaded = load_manifest(manifest)
        assert loaded.class_spec == spec
        maps = list(load_label_maps(loaded))
        assert len(maps) == 1

    def test_empty_manifest(self, tmp_path):
        manifest = _write_manifest(tmp_path, [])
        with pytest.raises(EmptyInputError):
            load_label_maps(load_manifest(manifest))

    def test_entry_without_any_path(self, tmp_path):
        manifest = _write_manifest(tmp_path, [{}])
        with pytest.raises(FormatError):
            load_manifest(manifest)

    def test_mixed_resolutions_fail(self, tmp_path):
        write_label_map(tmp_path / "a.pgm", LabelMap(np.zeros((2, 2), dtype=np.int64)))
        write_label_map(tmp_path / "b.pgm", LabelMap(np.zeros((3, 3), dtype=np.int64)))
        manifest = _write_manifest(tmp_path, [{"labels": "a.pgm"}, {"labels": "b.pgm"}])
        with pytest.raises(ShapeMismatchError):
            list(load_label_maps(load_manifest(manifest)))
