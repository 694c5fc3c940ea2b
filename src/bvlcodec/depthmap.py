"""Min/max depth surfaces over the xy plane and their lossless coding.

The projection keeps, per occupied (x, y) pixel, the lowest and highest z of
the cloud. An explicit occupancy mask travels with the surfaces so a real
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

The stream's contexts are int slots of one count table: the mask contexts
first, then the low-surface bins, then the thickness bins.

The encoder knows every pixel up front, so it works in blocks of whole rows:
numpy builds a block's mask contexts, predictors and exp-Golomb bins, and
the range coder codes the block's contexts and bits in one call. The
decoder runs two loops in the native kernel (rangecoder.py): the mask pixel
by pixel, then the surfaces at the occupied pixels. Without the kernel the
same loops run in Python: the mask by rows, with numpy building the
template terms from the two rows above once per row and the two same-row
terms riding in a shift register.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import BitstreamError
from .rangecoder import CodedStream, RangeDecoder, RangeEncoder, check_status, count_tables, native

# Causal template around pixel (x, y); rows are x (scan order), columns y.
# The last two terms lie on the current row: the decoder carries them in a
# shift register, so they stay (0, -2) then (0, -1).
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
# The encoder works on blocks of whole rows of about this many pixels, so
# its temporaries follow the block, not the map.
_BLOCK_PIXELS = 1 << 12


@dataclass(eq=False)
class DepthmapPair:
    """Occupancy mask plus low/high z surfaces, all shaped (Nx, Ny)."""

    occ: np.ndarray
    zmin: np.ndarray
    zmax: np.ndarray


def project_array(points: np.ndarray, dims) -> DepthmapPair:
    """Exact per-pixel z extrema of (N, 3) points sorted by (x, y, z).

    Each occupied pixel's points form one run of the sorted array: zmin is
    the z of its first point, zmax the z of its last.
    """
    nx, ny, nz = dims
    occ = np.zeros((nx, ny), dtype=np.uint8)
    zmin = np.zeros((nx, ny), dtype=np.int32)
    zmax = np.zeros((nx, ny), dtype=np.int32)
    pixels = points[:, 0] * ny + points[:, 1]
    first = np.flatnonzero(np.diff(pixels, prepend=-1))
    last = np.flatnonzero(np.diff(pixels, append=-1))
    occ.ravel()[pixels[first]] = 1
    zmin.ravel()[pixels[first]] = points[first, 2]
    zmax.ravel()[pixels[first]] = points[last, 2]
    return DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)


def _template_field(padded: np.ndarray, terms: int) -> np.ndarray:
    """Mask contexts made of the first `terms` template terms, per pixel.

    padded holds two rows of history, then the rows to cover, each row with
    two zero columns on either side; the field covers padded[2:, 2:-2].
    """
    nx = padded.shape[0] - 2
    ny = padded.shape[1] - 4
    ctx = np.zeros((nx, ny), dtype=np.int32)
    for k, (dx, dy) in enumerate(_TEMPLATE[:terms]):
        ctx |= padded[2 + dx : 2 + dx + nx, 2 + dy : 2 + dy + ny].astype(np.int32) << k
    return ctx


def _residuals(pair: DepthmapPair, a: int, b: int, prev_low: int, prev_thick: int):
    """Low and thickness residuals, interleaved, of the occupied pixels in rows a..b-1.

    prev_low and prev_thick are the last low and thickness coded before row
    a; returns the residuals and the last low and thickness up to row b.
    """
    occ, low, high = pair.occ, pair.zmin, pair.zmax
    xs, ys = np.nonzero(occ[a:b])
    if not xs.size:
        return np.empty(0, dtype=np.int64), prev_low, prev_thick
    xs += a
    v = low[xs, ys].astype(np.int64)
    t = high[xs, ys] - v
    # West, north and northwest neighbours; an index of -1 wraps around, but
    # the masks drop it.
    has_w = (ys > 0) & (occ[xs, ys - 1] != 0)
    has_n = (xs > 0) & (occ[xs - 1, ys] != 0)
    has_nw = (xs > 0) & (ys > 0) & (occ[xs - 1, ys - 1] != 0)
    w = low[xs, ys - 1] * has_w
    n = low[xs - 1, ys] * has_n
    nw = low[xs - 1, ys - 1] * has_nw
    count = has_w.astype(np.int8) + has_n + has_nw
    total = w.astype(np.int64) + n + nw
    median = np.maximum(np.minimum(w, n), np.minimum(np.maximum(w, n), nw))
    previous = np.concatenate(([prev_low], v[:-1]))
    pred_low = np.select([count == 3, count == 2, count == 1], [median, total // 2, total], previous)
    residuals = np.empty(2 * v.size, dtype=np.int64)
    residuals[0::2] = v - pred_low
    residuals[1::2] = np.diff(t, prepend=prev_thick)
    return residuals, int(v[-1]), int(t[-1])


def _exp_golomb_bins(values: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zigzag order-0 exp-Golomb bins of each value: (context, bit) arrays.

    A value whose zigzag code plus one has n + 1 bits gives n prefix zeros, a
    one, then its n low bits from the top. Prefix bin k uses context
    min(k, 15) and suffix bit i context 16 + min(i, 15), both offset by the
    value's entry in base.
    """
    w = np.where(values >= 0, 2 * values, -2 * values - 1) + 1
    n = np.frexp(w)[1] - 1  # exact while w < 2^53
    lengths = 2 * n + 1
    n = np.repeat(n, lengths)
    position = np.arange(n.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # Bin `position` reads bit 2n - position of w: above the top bit (zeros)
    # in the prefix, the top bit itself as the terminating one, then the
    # suffix bits.
    shift = 2 * n - position
    bits = (np.repeat(w, lengths) >> np.minimum(shift, 63)) & 1
    contexts = (
        np.repeat(base, lengths)
        + 16 * (position > n)
        + np.minimum(np.minimum(position, shift), 15)
    )
    return contexts, bits


def _decode_signed(dec: RangeDecoder, base: int) -> int:
    n = 0
    while dec.decode(base + (n if n < 16 else 15)) == 0:
        n += 1
        if n > _MAX_PREFIX:
            raise BitstreamError("runaway residual prefix")
    value = 1
    for i in range(n - 1, -1, -1):
        value = (value << 1) | dec.decode(base + 16 + (i if i < 16 else 15))
    u = value - 1
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)


def _predict_low(occ, low, x: int, y: int, previous: int) -> int:
    cands = []
    if y and occ[x, y - 1]:
        cands.append(int(low[x, y - 1]))
    if x:
        if occ[x - 1, y]:
            cands.append(int(low[x - 1, y]))
        if y and occ[x - 1, y - 1]:
            cands.append(int(low[x - 1, y - 1]))
    k = len(cands)
    if k == 3:
        return sorted(cands)[1]
    if k == 2:
        return (cands[0] + cands[1]) // 2
    if k == 1:
        return cands[0]
    return previous


def encode_depthmaps(pair: DepthmapPair, nz: int) -> CodedStream:
    """Losslessly code a surface pair; decode_depthmaps inverts exactly."""
    occ = pair.occ
    nx, ny = occ.shape
    step = max(1, _BLOCK_PIXELS // ny)
    enc = RangeEncoder(*count_tables(_CONTEXTS))
    padded = np.zeros((nx + 2, ny + 4), dtype=np.uint8)
    padded[2:, 2 : ny + 2] = occ
    for a in range(0, nx, step):
        ctx = _template_field(padded[a : a + step + 2], len(_TEMPLATE))
        enc.encode_many(ctx.ravel(), occ[a : a + step].ravel())
    prev_low = nz // 2
    prev_thick = 0
    for a in range(0, nx, step):
        residuals, prev_low, prev_thick = _residuals(pair, a, a + step, prev_low, prev_thick)
        # Low residuals and thickness residuals alternate.
        base = MASK_CONTEXTS + RESIDUAL_CONTEXTS * (np.arange(residuals.size) & 1)
        contexts, bits = _exp_golomb_bins(residuals, base)
        enc.encode_many(contexts, bits)
    return enc.finish()


def decode_depthmaps(data: bytes, nx: int, ny: int, nz: int) -> DepthmapPair:
    dec = RangeDecoder(data, *count_tables(_CONTEXTS))
    lib = native()
    stride = ny + 4
    grid = bytearray((nx + 2) * stride)
    rows = np.frombuffer(grid, dtype=np.uint8).reshape(nx + 2, stride)
    if lib is not None:
        with dec.native_state() as state:
            check_status(lib.decode_mask(ctypes.byref(state), rows.ctypes.data, nx, ny))
    else:
        decode = dec.decode
        for x in range(nx):
            base = (x + 2) * stride + 2
            # The same-row terms (0, -2) and (0, -1) are context bits 8 and 9.
            run = 0
            for y, upper in enumerate(_template_field(rows[x : x + 3], _ROW_TERMS).ravel().tolist()):
                if decode(upper | run):
                    grid[base + y] = 1
                    run = ((run >> 1) & 256) | 512
                else:
                    run = (run >> 1) & 256
    occ = rows[2:, 2 : ny + 2].copy()
    low = np.zeros((nx, ny), dtype=np.int32)
    high = np.zeros((nx, ny), dtype=np.int32)
    if lib is not None:
        with dec.native_state() as state:
            check_status(lib.decode_surfaces(ctypes.byref(state), occ.ctypes.data, low.ctypes.data,
                                             high.ctypes.data, nx, ny, nz))
        return DepthmapPair(occ=occ, zmin=low, zmax=high)
    xs, ys = np.nonzero(occ)
    thick_base = MASK_CONTEXTS + RESIDUAL_CONTEXTS
    prev_low = nz // 2
    prev_thick = 0
    for x, y in zip(xs.tolist(), ys.tolist()):
        v = _predict_low(occ, low, x, y, prev_low) + _decode_signed(dec, MASK_CONTEXTS)
        if not 0 <= v < nz:
            raise BitstreamError("decoded low surface out of range")
        t = prev_thick + _decode_signed(dec, thick_base)
        if t < 0 or v + t >= nz:
            raise BitstreamError("decoded thickness out of range")
        low[x, y] = v
        high[x, y] = v + t
        prev_low = v
        prev_thick = t
    return DepthmapPair(occ=occ, zmin=low, zmax=high)
