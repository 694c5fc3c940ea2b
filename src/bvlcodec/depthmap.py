"""Min/max depth surfaces over the xy plane and their lossless coding.

The projection keeps, per occupied (x, y) pixel, the lowest and highest z of
the cloud, in one pass over its sorted points in the native kernel (numpy
without it). An explicit occupancy mask travels with the surfaces so a real
point at z = 0 is never confused with an empty pixel.

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

Both sides run the same two loops: the mask pixel by pixel, then the surfaces
at the occupied pixels. The encoder reads each bit from the maps and codes
it; the decoder decodes it and stores it. The loops run in the native kernel
through rangecoder.run, where an encoding loop stops whenever its bits run
short and resumes once they have doubled, so the encoder's memory follows its
output, not the map. Without the kernel the same loops run in Python: the
mask by rows, with numpy building the template terms from the two rows above
once per row and the two same-row terms riding in a shift register, and the
surfaces by rows; the encoder codes each row's bits in one call.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import BitstreamError
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

# Causal template around pixel (x, y); rows are x (scan order), columns y.
# The last two terms lie on the current row: the Python loop carries them in
# a shift register, so they stay (0, -2) then (0, -1).
_TEMPLATE = (
    (-2, -1), (-2, 0), (-2, 1),
    (-1, -2), (-1, -1), (-1, 0), (-1, 1), (-1, 2),
    (0, -2), (0, -1),
)
_ROW_TERMS = 8  # template terms on the two rows above the pixel
MASK_CONTEXTS = 1 << len(_TEMPLATE)
RESIDUAL_CONTEXTS = 32
_CONTEXTS = MASK_CONTEXTS + 2 * RESIDUAL_CONTEXTS
_MAX_PREFIX = 48


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
    project_rows does it in one pass over the rows, numpy without it. A
    point outside the dims, or one not above the point before, raises
    ValueError.
    """
    return _project(points, dims, native())


def _rows(points) -> np.ndarray:
    """points as C-contiguous (N, 3) int64 rows, the layout the kernel's row passes read."""
    rows = _exact(points, np.int64)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), not {rows.shape}")
    return rows


def _check_inside(rows: np.ndarray, dims) -> None:
    """The numpy paths' refusal of a row outside the dims, which the kernel's passes make as they go."""
    if len(rows) and ((rows < 0).any() or (rows >= np.asarray(dims)).any()):
        check_status(BAD_LAYOUT)


def _project(points, dims, lib) -> DepthmapPair:
    """project_array in the kernel, or in numpy when lib is None."""
    nx, ny, nz = dims
    points = _rows(points)
    if lib is not None:
        occ = np.empty((nx, ny), dtype=np.uint8)
        zmin = np.empty((nx, ny), dtype=np.int32)
        zmax = np.empty((nx, ny), dtype=np.int32)
        check_status(lib.project_rows(points.ctypes.data, len(points), nx, ny, nz, occ.ctypes.data,
                                      zmin.ctypes.data, zmax.ctypes.data))
        return DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)
    _check_inside(points, dims)
    occ = np.zeros((nx, ny), dtype=np.uint8)
    zmin = np.zeros((nx, ny), dtype=np.int32)
    zmax = np.zeros((nx, ny), dtype=np.int32)
    pixels = points[:, 0] * ny + points[:, 1]
    step = np.diff(pixels)
    if (step < 0).any() or ((step == 0) & (np.diff(points[:, 2]) <= 0)).any():
        check_status(BAD_LAYOUT)
    first = np.flatnonzero(np.diff(pixels, prepend=-1))
    last = np.flatnonzero(np.diff(pixels, append=-1))
    occ.ravel()[pixels[first]] = 1
    zmin.ravel()[pixels[first]] = points[first, 2]
    zmax.ravel()[pixels[first]] = points[last, 2]
    return DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)


def _template_field(padded: np.ndarray) -> np.ndarray:
    """Mask contexts made of the template terms on the two rows above, per pixel.

    padded holds two rows of history, then the rows to cover, each row with
    two zero columns on either side; the field covers padded[2:, 2:-2].
    """
    nx = padded.shape[0] - 2
    ny = padded.shape[1] - 4
    ctx = np.zeros((nx, ny), dtype=np.int32)
    for k, (dx, dy) in enumerate(_TEMPLATE[:_ROW_TERMS]):
        ctx |= padded[2 + dx : 2 + dx + nx, 2 + dy : 2 + dy + ny].astype(np.int32) << k
    return ctx


def _bit_coder(coder, encoding: bool):
    """code(context, bit) -> bit and flush() for the Python loops.

    An encoder buffers each (context, bit) and codes the buffer in one call at
    each flush; a decoder decodes the bit under the context, ignoring the one
    given, and has nothing to flush.
    """
    if not encoding:
        decode = coder.decode
        return (lambda ctx, bit: decode(ctx)), (lambda: None)
    contexts: list[int] = []
    bits: list[int] = []

    def code(ctx: int, bit: int) -> int:
        contexts.append(ctx)
        bits.append(bit)
        return bit

    def flush() -> None:
        coder.encode_many(contexts, bits)
        contexts.clear()
        bits.clear()

    return code, flush


def _code_signed(code, base: int, value: int | None) -> int:
    """One zigzag order-0 exp-Golomb residual under the 32 contexts at base.

    The encoder passes the value, the decoder None; both get the value back.
    A value whose zigzag code plus one has n + 1 bits gives n prefix zeros, a
    one, then its n low bits from the top. Prefix bin k uses context
    min(k, 15) and suffix bit i context 16 + min(i, 15).
    """
    w = top = -1
    if value is not None:
        w = (2 * value if value >= 0 else -2 * value - 1) + 1
        top = w.bit_length() - 1
        if top > _MAX_PREFIX:
            check_status(BAD_LAYOUT)
    n = 0
    while not code(base + (n if n < 16 else 15), n == top):
        n += 1
        if n > _MAX_PREFIX:
            raise BitstreamError("runaway residual prefix")
    v = 1
    for i in range(n - 1, -1, -1):
        v = (v << 1) | code(base + 16 + (i if i < 16 else 15), (w >> i) & 1)
    u = v - 1
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)


def _predict_low(occ, low, y: int, previous: int) -> int:
    """The low surface's prediction at column y of a row.

    occ and low hold the row above (zeros above the first row), then the row
    itself: the median of the west, north and northwest low values where all
    three are occupied, the floor of the mean of two, the one, or else
    previous.
    """
    (occ_n, occ_row), (low_n, low_row) = occ, low
    cands = []
    if y and occ_row[y - 1]:
        cands.append(low_row[y - 1])
    if occ_n[y]:
        cands.append(low_n[y])
    if y and occ_n[y - 1]:
        cands.append(low_n[y - 1])
    k = len(cands)
    if k == 3:
        return sorted(cands)[1]
    if k == 2:
        return (cands[0] + cands[1]) // 2
    if k == 1:
        return cands[0]
    return previous


def _code_mask_python(code, flush, grid: bytearray, nx: int, ny: int) -> None:
    """The kernel's code_mask in Python, on the same padded grid."""
    stride = ny + 4
    rows = np.frombuffer(grid, dtype=np.uint8).reshape(nx + 2, stride)
    for x in range(nx):
        base = (x + 2) * stride + 2
        # The same-row terms (0, -2) and (0, -1) are context bits 8 and 9.
        run = 0
        for y, upper in enumerate(_template_field(rows[x : x + 3]).ravel().tolist()):
            if grid[base + y] > 1:
                check_status(BAD_LAYOUT)
            bit = grid[base + y] = code(upper | run, grid[base + y])
            run = ((run >> 1) & 256) | (bit << 9)
        flush()


def _code_surfaces_python(code, flush, occ: np.ndarray, low: np.ndarray, high: np.ndarray, nz: int,
                          encoding: bool) -> None:
    """The kernel's code_surfaces in Python, row by row."""
    thick_base = MASK_CONTEXTS + RESIDUAL_CONTEXTS
    prev_low = nz // 2
    prev_thick = 0
    occ_n = low_n = [0] * occ.shape[1]
    for x in range(occ.shape[0]):
        occ_row = occ[x].tolist()
        low_row = low[x].tolist()
        high_row = high[x].tolist()
        for y in np.flatnonzero(occ[x]).tolist():
            if encoding and not (occ_row[y] == 1 and 0 <= low_row[y] <= high_row[y] < nz):
                check_status(BAD_LAYOUT)
            pred = _predict_low((occ_n, occ_row), (low_n, low_row), y, prev_low)
            v = pred + _code_signed(code, MASK_CONTEXTS, low_row[y] - pred if encoding else None)
            if not 0 <= v < nz:
                raise BitstreamError("decoded low surface out of range")
            t = prev_thick + _code_signed(code, thick_base, high_row[y] - v - prev_thick if encoding else None)
            if t < 0 or v + t >= nz:
                raise BitstreamError("decoded thickness out of range")
            low_row[y] = v
            high_row[y] = v + t
            prev_low = v
            prev_thick = t
        flush()
        if not encoding:
            low[x] = low_row
            high[x] = high_row
        occ_n, low_n = occ_row, low_row


def _code(coder, grid: bytearray, low: np.ndarray, high: np.ndarray, nx: int, ny: int, nz: int,
          lib) -> np.ndarray:
    """Code the mask in grid, then the surfaces in low and high, on either side; returns the mask.

    grid is the mask padded as the loops read it (nx + 2 rows of ny + 4
    bytes, the map at rows 2.., columns 2..ny + 1): the encoder's map, or
    zeros that the decoder fills. low and high are C-contiguous int32 (nx,
    ny) arrays: the encoder's maps, or zeros that the decoder fills. The
    kernel's loops run when lib is the kernel, the Python ones when it is
    None.
    """
    encoding = isinstance(coder, RangeEncoder)
    rows = np.frombuffer(grid, dtype=np.uint8).reshape(nx + 2, ny + 4)
    if lib is None:
        code, flush = _bit_coder(coder, encoding)
        _code_mask_python(code, flush, grid, nx, ny)
        occ = rows[2:, 2 : ny + 2].copy()
        _code_surfaces_python(code, flush, occ, low, high, nz, encoding)
        return occ
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
    return _encode(pair, nz, native())


def _exact(a: np.ndarray, dtype) -> np.ndarray:
    """a as a C-contiguous array of dtype; a value that dtype cannot hold breaks the layout."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.dtype != a.dtype and not np.array_equal(out, a):
        check_status(BAD_LAYOUT)
    return out


def _encode(pair: DepthmapPair, nz: int, lib) -> CodedStream:
    """encode_depthmaps on the kernel's loops, or on the Python ones when lib is None."""
    occ = pair.occ
    if occ.ndim != 2 or not occ.shape == pair.zmin.shape == pair.zmax.shape:
        raise ValueError("depth maps differ in shape")
    nx, ny = occ.shape
    grid = bytearray((nx + 2) * (ny + 4))
    np.frombuffer(grid, dtype=np.uint8).reshape(nx + 2, ny + 4)[2:, 2 : ny + 2] = _exact(occ, np.uint8)
    enc = RangeEncoder(count_tables(_CONTEXTS))
    _code(enc, grid, _exact(pair.zmin, np.int32), _exact(pair.zmax, np.int32), nx, ny, nz, lib)
    return enc.finish()


def decode_depthmaps(data: bytes, nx: int, ny: int, nz: int) -> DepthmapPair:
    dec = RangeDecoder(data, count_tables(_CONTEXTS))
    low = np.zeros((nx, ny), dtype=np.int32)
    high = np.zeros((nx, ny), dtype=np.int32)
    occ = _code(dec, bytearray((nx + 2) * (ny + 4)), low, high, nx, ny, nz, native())
    return DepthmapPair(occ=occ, zmin=low, zmax=high)
