"""Min/max depth surfaces over the xy plane and their lossless coding.

The projection keeps, per occupied (x, y) pixel, the lowest and highest z of
the cloud, in one pass over its sorted points in the native kernel. An
explicit occupancy mask travels with the surfaces so a real point at z = 0 is
never confused with an empty pixel.

Coding scheme (self-contained, fully adaptive):
  * the occupancy mask is coded pixel by pixel under a 10-pixel causal
    template spanning the two previous rows (1024 contexts);
  * the low surface is coded at occupied pixels as a residual against the
    median of the west/north/northwest occupied neighbors, falling back to
    the last coded value and then to nz/2;
  * the high surface is coded as the nonnegative thickness (high - low),
    predicted by the last coded thickness (the west neighbor's whenever that
    pixel is occupied, since pixels are coded in row order).
Residuals are zigzag-mapped and binarized as order-0 exp-Golomb, one adaptive
context per bin position (32 contexts per surface).

The stream's contexts are int slots of one CountTables, one table of
c0 | c1 << 16 entries: the mask contexts first, then the low-surface bins,
then the thickness bins.

Both sides run the same two loops of the native kernel: the mask pixel by
pixel, then the surfaces at the occupied pixels. The encoder reads each bit
from the maps and codes it; the decoder decodes it and stores it. The loops
run through rangecoder.run, where an encoding loop stops whenever its bits
run short and resumes once they have doubled, so the encoder's memory
follows its output, not the map. tests/oracles.py holds a pixel-by-pixel
Python encoder of the same stream.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .rangecoder import (
    BAD_LAYOUT,
    CodedStream,
    RangeDecoder,
    RangeEncoder,
    check_status,
    count_tables,
    native,
    run,
)

# The mask's causal template has 10 pixels, one context bit each.
MASK_CONTEXTS = 1024
RESIDUAL_CONTEXTS = 32
_CONTEXTS = MASK_CONTEXTS + 2 * RESIDUAL_CONTEXTS
# The deepest z that the int32 maps hold, plus one.
_MAX_DEPTH = 1 << 31


class _Cursor(ctypes.Structure):
    """Cursor in _kernel.c: where an encoding loop stopped for room."""

    _fields_ = [(name, ctypes.c_int64) for name in ("pixel", "prev_low", "prev_thick")]


@dataclass(eq=False)
class DepthmapPair:
    """Occupancy mask plus low/high z surfaces, all shaped (Nx, Ny)."""

    occ: np.ndarray
    zmin: np.ndarray
    zmax: np.ndarray


def project_array(points: np.ndarray, dims) -> DepthmapPair:
    """Exact per-pixel z extrema of (N, 3) points strictly increasing in (x, y, z).

    Each occupied pixel's points form one run of the sorted array: zmin is
    the z of its first point, zmax the z of its last. The kernel's
    project_rows does it in one pass over the rows. A point outside the dims,
    one not above the point before, or an nz above 2^31, whose depths the
    int32 maps cannot hold, raises ValueError.
    """
    nx, ny, nz = dims
    if nz > _MAX_DEPTH:
        raise ValueError(f"nz = {nz} is deeper than the int32 depth maps hold")
    points = _rows(points)
    occ = np.empty((nx, ny), dtype=np.uint8)
    zmin = np.empty((nx, ny), dtype=np.int32)
    zmax = np.empty((nx, ny), dtype=np.int32)
    check_status(native().project_rows(points.ctypes.data, len(points), nx, ny, nz, occ.ctypes.data,
                                       zmin.ctypes.data, zmax.ctypes.data))
    return DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)


def _rows(points) -> np.ndarray:
    """points as C-contiguous (N, 3) int64 rows, the layout the kernel's row passes read."""
    rows = _exact(points, np.int64)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), not {rows.shape}")
    return rows


def _code(coder, grid: bytearray, low: np.ndarray, high: np.ndarray, nx: int, ny: int, nz: int) -> np.ndarray:
    """Code the mask in grid, then the surfaces in low and high, on either side; returns the mask.

    grid is the mask padded as the loops read it (nx + 2 rows of ny + 4
    bytes, the map at rows 2.., columns 2..ny + 1): the encoder's map, or
    zeros that the decoder fills. low and high are C-contiguous int32 (nx,
    ny) arrays: the encoder's maps, or zeros that the decoder fills.
    """
    encoding = isinstance(coder, RangeEncoder)
    lib = native()
    rows = np.frombuffer(grid, dtype=np.uint8).reshape(nx + 2, ny + 4)
    cursor = _Cursor(0, nz // 2, 0)
    run(lib.code_mask, coder, ctypes.byref(cursor), rows.ctypes.data, nx, ny, encoding)
    occ = rows[2:, 2 : ny + 2].copy()
    cursor.pixel = 0
    run(lib.code_surfaces, coder, ctypes.byref(cursor), occ.ctypes.data, low.ctypes.data, high.ctypes.data,
        nx, ny, nz, encoding)
    return occ


def encode_depthmaps(pair: DepthmapPair, nz: int) -> CodedStream:
    """Losslessly code a surface pair; decode_depthmaps inverts exactly.

    Maps of different shapes, values that the coded types (uint8 occ, int32
    zmin and zmax) cannot hold, an occ byte above 1, or an occupied pixel
    outside 0 <= zmin <= zmax < nz raise ValueError.
    """
    occ = pair.occ
    if occ.ndim != 2 or not occ.shape == pair.zmin.shape == pair.zmax.shape:
        raise ValueError("depth maps differ in shape")
    nx, ny = occ.shape
    grid = bytearray((nx + 2) * (ny + 4))
    np.frombuffer(grid, dtype=np.uint8).reshape(nx + 2, ny + 4)[2:, 2 : ny + 2] = _exact(occ, np.uint8)
    enc = RangeEncoder(count_tables(_CONTEXTS))
    _code(enc, grid, _exact(pair.zmin, np.int32), _exact(pair.zmax, np.int32), nx, ny, nz)
    return enc.finish()


def _exact(a: np.ndarray, dtype) -> np.ndarray:
    """a as a C-contiguous array of dtype; a value that dtype cannot hold breaks the layout."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.dtype != a.dtype and not np.array_equal(out, a):
        check_status(BAD_LAYOUT)
    return out


def decode_depthmaps(data: bytes, nx: int, ny: int, nz: int) -> DepthmapPair:
    dec = RangeDecoder(data, count_tables(_CONTEXTS))
    low = np.zeros((nx, ny), dtype=np.int32)
    high = np.zeros((nx, ny), dtype=np.int32)
    occ = _code(dec, bytearray((nx + 2) * (ny + 4)), low, high, nx, ny, nz)
    return DepthmapPair(occ=occ, zmin=low, zmax=high)
