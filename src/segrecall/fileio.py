"""On-disk formats: binary PGM label maps, SFT tensors, and JSON sidecars.

Formats
-------
* Label maps: binary PGM ("P5", maxval 255), one byte per pixel holding the
  class id; 255 is the ignore id.
* Tensors: "SFT" — magic ``SFT1``, then little-endian u8 dtype code
  (0 = float32, 1 = float64), u8 rank, rank u32 dimensions, row-major payload.
  Round-trips are bit-exact.
* Class specs and dataset manifests: JSON (schemas documented in the README).
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import struct
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import replacing
from .core import (
    DEFAULT_IGNORE_ID,
    ClassSpec,
    LabelMap,
    ProbMap,
    _block_rows,
    _ProbCheck,
    _row_blocks,
    _row_slices,
)
from .errors import EmptyInputError, FormatError, ShapeMismatchError, naming

SFT_MAGIC = b"SFT1"
_SFT_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_SFT_FOR_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_SFT_MAX_HEADER = 6 + 4 * 255  # magic, dtype code, rank, 255 u32 dimensions


# ---------------------------------------------------------------------------
# PGM


def write_pgm(path, data) -> None:
    data = np.asarray(data)
    if data.ndim != 2:
        raise FormatError(f"PGM payload must be 2-D, got shape {data.shape}")
    if not np.issubdtype(data.dtype, np.integer):
        raise FormatError(f"PGM payload must be integer, got dtype {data.dtype}")
    if data.size and (data.min() < 0 or data.max() > 255):
        raise FormatError("PGM values must fit in one byte (0..255)")
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    with replacing(path) as f:
        f.write(header)
        f.write(memoryview(np.ascontiguousarray(data, dtype=np.uint8)))


_PGM_READ_AHEAD = 256  # header bytes read first; a longer header doubles the read


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into an H×W uint8 array (maxval must be 255).

    The header is parsed from a few hundred bytes read ahead, and more while
    it runs on (a long comment); the raster, once its size is checked
    against the file's, is read straight into the array. A file that got
    shorter since that check raises FormatError naming it.
    """
    with open(path, "rb") as f:
        blob = f.read(_PGM_READ_AHEAD)
        pos = 0

        def byte_at(i: int) -> bytes:
            # The header byte at ``i``, reading further ahead as needed; b"" at the end.
            nonlocal blob
            while i >= len(blob):
                more = f.read(len(blob))
                if not more:
                    return b""
                blob += more
            return blob[i : i + 1]

        def next_token() -> bytes:
            nonlocal pos
            while byte := byte_at(pos):
                if byte.isspace():
                    pos += 1
                elif byte == b"#":
                    while byte_at(pos) not in (b"", b"\n"):
                        pos += 1
                else:
                    break
            start = pos
            while (byte := byte_at(pos)) and not byte.isspace():
                pos += 1
            if start == pos:
                raise FormatError(f"{path}: truncated PGM header")
            return blob[start:pos]

        if next_token() != b"P5":
            raise FormatError(f"{path}: not a binary PGM (expected magic P5)")
        fields = [next_token() for _ in range(3)]
        # ASCII digits only (int() also takes "+2" and "1_0"); nine digits are far
        # beyond any label map and keep int() clear of its digit-count limit.
        if not all(field.isdigit() and len(field) <= 9 for field in fields):
            raise FormatError(f"{path}: non-numeric PGM header field")
        width, height, maxval = (int(field) for field in fields)
        if maxval != 255:
            raise FormatError(f"{path}: unsupported maxval {maxval} (only 255)")
        if width <= 0 or height <= 0:
            raise FormatError(f"{path}: invalid dimensions {width}x{height}")
        pos += 1  # single whitespace byte separates header and raster
        found = max(os.fstat(f.fileno()).st_size - pos, 0)
        if found != width * height:
            raise FormatError(f"{path}: expected {width * height} raster bytes, found {found}")
        f.seek(pos)
        data = np.empty((height, width), dtype=np.uint8)
        _read_into(f, path, data)
    return data


def read_label_map(path, spec: ClassSpec) -> LabelMap:
    data = read_pgm(path)
    data.setflags(write=False)  # handed over: LabelMap adopts it without a copy
    with naming(path):
        return LabelMap.from_array(data, spec)


def write_label_map(path, label_map: LabelMap) -> None:
    write_pgm(path, label_map.data)


# ---------------------------------------------------------------------------
# SFT tensors


@contextmanager
def sft_writer(path, dtype, dims):
    """Write an SFT tensor of ``dtype`` and ``dims`` block by block, through
    :func:`replacing`: yields a function that appends the next block of the
    row-major payload, converted to ``dtype``. The header is written on
    entry; a payload that is short or long at the end raises FormatError and
    leaves an earlier ``path`` as it was.
    """
    dtype, dims = np.dtype(dtype), tuple(dims)
    code = _SFT_FOR_DTYPE.get(dtype)
    if code is None:
        raise FormatError(f"SFT stores float32/float64 tensors, got dtype {dtype}")
    if len(dims) == 0 or len(dims) > 255:
        raise FormatError(f"SFT rank must be 1..255, got {len(dims)}")
    if any(d <= 0 or d >= 2**32 for d in dims):
        raise FormatError(f"SFT dimensions must be positive u32 values, got {dims}")
    header = SFT_MAGIC + bytes([code, len(dims)]) + struct.pack(f"<{len(dims)}I", *dims)
    stored = dtype.newbyteorder("<")
    written = 0

    def write(block) -> None:
        nonlocal written
        # A view unless the block is strided, big-endian or of another dtype;
        # the payload is written from the block's own buffer.
        payload = np.ascontiguousarray(block, dtype=stored)
        f.write(memoryview(payload).cast("B"))
        written += payload.nbytes

    with replacing(path) as f:
        f.write(header)
        yield write
        expected = math.prod(dims) * dtype.itemsize
        if written != expected:
            raise FormatError(f"{path}: {written} payload bytes written, expected {expected}")


def write_sft(path, array) -> None:
    array = np.asarray(array)
    with sft_writer(path, array.dtype, array.shape) as write:
        write(array)


def _sft_header(path, blob: bytes) -> tuple[np.dtype, tuple[int, ...], int]:
    # Returns (dtype, dims, payload offset) of an SFT blob that holds at least the header.
    if len(blob) < 6 or blob[:4] != SFT_MAGIC:
        raise FormatError(f"{path}: missing SFT1 magic")
    code, rank = blob[4], blob[5]
    dtype = _SFT_CODES.get(code)
    if dtype is None:
        raise FormatError(f"{path}: unknown SFT dtype code {code}")
    if rank == 0:
        raise FormatError(f"{path}: SFT rank must be at least 1")
    header_end = 6 + 4 * rank
    if len(blob) < header_end:
        raise FormatError(f"{path}: truncated SFT dimension table")
    dims = struct.unpack(f"<{rank}I", blob[6:header_end])
    if any(d == 0 for d in dims):
        raise FormatError(f"{path}: zero-sized SFT dimension in {dims}")
    return dtype, dims, header_end


@contextmanager
def _sft_payload(path, spec: ClassSpec | None = None):
    """The open SFT file at ``path``, positioned at its payload, with its dtype and dims.

    The header and the exact payload size (trailing bytes included) are
    checked first; with ``spec``, so are a probability map's rank (else
    FormatError) and its one channel per class (else ShapeMismatchError).
    Every message names the file.
    """
    with open(path, "rb") as f:
        dtype, dims, header_end = _sft_header(path, f.read(_SFT_MAX_HEADER))
        if spec is not None and len(dims) != 3:
            raise FormatError(
                f"{path}: probability maps are rank-3 SFT tensors, got rank {len(dims)}"
            )
        if spec is not None and dims[2] != spec.num_classes:
            raise ShapeMismatchError(
                f"{path}: {dims[2]} channels but the class spec declares {spec.num_classes}"
            )
        expected = math.prod(dims) * dtype.itemsize
        found = os.fstat(f.fileno()).st_size - header_end
        if found != expected:
            raise FormatError(f"{path}: expected {expected} payload bytes, found {found}")
        f.seek(header_end)
        yield f, dtype, dims


def _read_into(f, path, view: np.ndarray) -> None:
    # Fills a contiguous array with the next payload bytes; a file that got
    # shorter since its size was checked stops here.
    if f.readinto(memoryview(view).cast("B")) != view.nbytes:
        raise FormatError(f"{path}: payload ended early while reading")


def read_sft(path) -> np.ndarray:
    """Read an SFT tensor into a new writeable array that owns its memory."""
    with _sft_payload(path) as (f, dtype, dims):
        arr = np.empty(dims, dtype=dtype)
        _read_into(f, path, arr)
    return arr


def _read_rows(f, path, views) -> Iterator[tuple[slice, np.ndarray]]:
    """Read the payload into each (rows, view) pair of ``views`` in turn and yield the pair."""
    for rows, view in views:
        _read_into(f, path, view)
        yield rows, view


def _payload_rows(f, path, dtype, dims) -> Iterator[tuple[slice, np.ndarray]]:
    """The payload of an H×W×… tensor of ``dims``, read a row block of about
    ``core.BLOCK_PIXELS`` pixels at a time into one reused buffer: a
    ``(rows, block)`` pair per block, top to bottom, each valid only until
    the next is read. Nothing runs, not even ``h, w = dims[:2]``, until one is drawn."""
    h, w = dims[:2]
    buf = np.empty((min(_block_rows(w), h), *dims[1:]), dtype=dtype)
    views = ((rows, buf[: rows.stop - rows.start]) for rows in _row_slices(h, w))
    yield from _read_rows(f, path, views)


@contextmanager
def sft_rows(path, spec: ClassSpec | None = None):
    """Stream an SFT tensor: ``(dims, blocks)``, checked on entry as
    :func:`_sft_payload` checks it; ``blocks`` yields :func:`_payload_rows`'
    pairs, for a rank of 2 or more. Entering and drawing none reads no payload."""
    with _sft_payload(path, spec) as (f, dtype, dims):
        yield dims, _payload_rows(f, path, dtype, dims)


def _validated_rows(path, blocks) -> Iterator[tuple[slice, np.ndarray]]:
    """Validate each (rows, block) pair of a probability map read from
    ``path`` and yield it, straight after it was read and still in cache.

    Errors name the file. An entry outside [0, 1] raises at its block; a bad
    channel sum raises after the last block, so that an out-of-range entry
    anywhere wins (see ``core.validate_probmap``).
    """
    check = _ProbCheck()
    for rows, block in blocks:
        with naming(path):
            check.block(rows, block)
        yield rows, block
    with naming(path):
        check.finish()


def read_prob_map(path, spec: ClassSpec) -> ProbMap:
    """Read a probability map, validating each row block straight after reading it."""
    with _sft_payload(path, spec) as (f, dtype, dims):
        arr = np.empty(dims, dtype=dtype)
        for _ in _validated_rows(path, _read_rows(f, path, _row_blocks(arr))):
            pass
    arr.setflags(write=False)  # handed over: ProbMap adopts it without a copy
    return ProbMap(arr)


@contextmanager
def prob_map_rows(path, spec: ClassSpec):
    """Stream a probability map: ``(shape, blocks)``, its (H, W, C) and its row blocks.

    The header, payload size, rank and channels are checked on entry.
    ``blocks`` yields the map's ``(rows, block)`` pairs as :func:`sft_rows`
    reads them, each validated as :func:`read_prob_map` validates it; the
    whole map is never held. An entry out of range raises at its block, a
    bad channel sum after the last pair.
    """
    with sft_rows(path, spec) as (dims, blocks):
        yield dims, _validated_rows(path, blocks)


# ---------------------------------------------------------------------------
# JSON: one typed reader, class specs and manifests


def load_json(path, kind: type = dict):
    """Parse a UTF-8 JSON file, whatever the locale, whose top level must be
    of ``kind``; errors name the file."""
    try:
        payload = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    return json_value(payload, kind, f"{path}: the top level")


# What each kind of a JSON field is called in error messages; ``float`` stands
# for a finite number, int or float. A boolean is none of these kinds.
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a finite number"}
_REQUIRED = object()


def json_value(value, kind: type, what: str):
    """``value`` if it is of ``kind`` (a float for ``float``), else FormatError naming ``what``."""
    ok = isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)
    if not ok or kind is float and not abs(value) <= sys.float_info.max:  # NaN and inf fail
        raise FormatError(f"{what} must be {_KIND_NAMES[kind]}, got {reprlib.repr(value)}")
    return float(value) if kind is float else value


def json_field(payload: dict, key: str, kind: type, source, default=_REQUIRED):
    """``payload[key]`` read by :func:`json_value`; absent, it is ``default`` or an error."""
    if key not in payload:
        if default is _REQUIRED:
            raise FormatError(f"{source}: {key!r} is missing")
        return default
    return json_value(payload[key], kind, f"{source}: {key!r}")


def class_spec_to_dict(spec: ClassSpec) -> dict:
    return {"names": list(spec.names), "ignore_id": spec.ignore_id}


def class_spec_from_dict(payload: dict, source) -> ClassSpec:
    """Build a ClassSpec from {"names": [str, ...], "ignore_id": int}.

    Every malformed part raises FormatError with a message that starts with
    ``source``, the file the payload came from.
    """
    names = json_field(payload, "names", list, source)
    names = tuple(json_value(n, str, f"{source}: a class name") for n in names)
    ignore_id = json_field(payload, "ignore_id", int, source, DEFAULT_IGNORE_ID)
    with naming(source):
        return ClassSpec(names=names, ignore_id=ignore_id)


def load_class_spec(path) -> ClassSpec:
    return class_spec_from_dict(load_json(path), path)


@dataclass(frozen=True)
class ManifestEntry:
    probs: Path | None
    labels: Path | None


@dataclass(frozen=True)
class DatasetManifest:
    """Paired probability/label map paths plus the class spec they share."""

    entries: tuple[ManifestEntry, ...]
    class_spec: ClassSpec
    source: Path  # the manifest file, named by every error about its entries

    def paths(self, field: str) -> list[Path]:
        """Every entry's ``field`` path ("probs" or "labels"); a gap or no entries raises."""
        paths = [getattr(entry, field) for entry in self.entries]
        if None in paths:
            raise FormatError(f"{self.source}: entry {paths.index(None)} has no {field!r} path")
        if not paths:
            raise EmptyInputError(f"{self.source}: manifest lists no entries")
        return paths


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    payload = load_json(path)
    spec = class_spec_from_dict(json_field(payload, "classes", dict, path), path)
    entries = []
    for i, item in enumerate(json_field(payload, "entries", list, path)):
        where = f"{path}: entry {i}"
        item = json_value(item, dict, where)
        probs, labels = (json_field(item, key, str, where, "") for key in ("probs", "labels"))
        if not probs and not labels:
            raise FormatError(f"{where} lists neither probs nor labels")
        entries.append(ManifestEntry(*(path.parent / p if p else None for p in (probs, labels))))
    return DatasetManifest(entries=tuple(entries), class_spec=spec, source=path)


def load_label_maps(manifest: DatasetManifest) -> Iterator[LabelMap]:
    """Stream the manifest's label maps, one in memory at a time.

    Missing label paths and an empty manifest raise here, before any map is
    read; a map whose resolution differs from the first raises
    ShapeMismatchError naming it when the iteration reaches it.
    """
    return _stream_label_maps(manifest.paths("labels"), manifest.class_spec)


def _stream_label_maps(paths, spec: ClassSpec) -> Iterator[LabelMap]:
    first = None
    for p in paths:
        lm = read_label_map(p, spec)
        first = first or lm.data.shape
        if lm.data.shape != first:
            raise ShapeMismatchError(f"{p}: resolution {lm.data.shape} differs from {first}")
        yield lm


def sha256_file(path) -> str:
    import hashlib  # loads OpenSSL's libcrypto (3.5 MB), so only commands that hash pay for it

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
