"""Readers and writers for the two on-disk formats the CLI exchanges.

The benchmark writes its inputs and reads the program's outputs with this
code rather than with ``segrecall.fileio``, so a change to the library's own
readers or writers cannot hide a change in the files it produces.

* PGM: ``P5``, width, height, maxval 255, one byte per pixel.
* SFT: ``SFT1``, u8 dtype code (0 = float32, 1 = float64), u8 rank,
  rank little-endian u32 dimensions, row-major little-endian payload.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

# The raster starts after exactly one whitespace byte following maxval.
_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")
_SFT_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_pgm(path, labels: np.ndarray) -> None:
    h, w = labels.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode() + labels.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ValueError(f"{path}: not a binary PGM with maxval 255")
    w, h = int(header[1]), int(header[2])
    if len(blob) - header.end() != w * h:
        raise ValueError(f"{path}: expected {w * h} raster bytes")
    return np.frombuffer(blob, dtype=np.uint8, offset=header.end()).reshape(h, w)


def write_sft(path, array: np.ndarray) -> None:
    code = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}[array.dtype]
    header = b"SFT1" + bytes([code, array.ndim]) + struct.pack(f"<{array.ndim}I", *array.shape)
    Path(path).write_bytes(header + np.ascontiguousarray(array).tobytes())


def read_sft(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != b"SFT1":
        raise ValueError(f"{path}: missing SFT1 magic")
    dtype, rank = _SFT_DTYPES[blob[4]], blob[5]
    dims = struct.unpack(f"<{rank}I", blob[6 : 6 + 4 * rank])
    return np.frombuffer(blob, dtype=dtype, offset=6 + 4 * rank).reshape(dims)
