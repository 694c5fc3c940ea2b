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
    predicted from the west neighbor's thickness, falling back to the last
    coded thickness.
Residuals are zigzag-mapped and binarized as order-0 exp-Golomb, one adaptive
context per bin position (32 contexts per surface).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BitstreamError, EmptyCloudError
from .rangecoder import BinaryModel, CodedStream, RangeDecoder, RangeEncoder

# Causal template around pixel (x, y); rows are x (scan order), columns y.
_TEMPLATE = (
    (-2, -1), (-2, 0), (-2, 1),
    (-1, -2), (-1, -1), (-1, 0), (-1, 1), (-1, 2),
    (0, -2), (0, -1),
)
MASK_CONTEXTS = 1 << len(_TEMPLATE)
RESIDUAL_CONTEXTS = 32
_MAX_PREFIX = 48


@dataclass(eq=False)
class DepthmapPair:
    """Occupancy mask plus low/high z surfaces, all shaped (Nx, Ny)."""

    occ: np.ndarray
    zmin: np.ndarray
    zmax: np.ndarray


def project(cloud) -> DepthmapPair:
    """Exact per-pixel z extrema of the cloud; raises on an empty cloud."""
    points = cloud.to_array()
    if not len(points):
        raise EmptyCloudError("cannot project an empty cloud")
    return project_array(points, cloud.dims)


def project_array(points: np.ndarray, dims) -> DepthmapPair:
    nx, ny, nz = dims
    occ = np.zeros((nx, ny), dtype=np.uint8)
    zmin = np.full((nx, ny), nz, dtype=np.int32)
    zmax = np.full((nx, ny), -1, dtype=np.int32)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    occ[x, y] = 1
    np.minimum.at(zmin, (x, y), z)
    np.maximum.at(zmax, (x, y), z)
    empty = occ == 0
    zmin[empty] = 0
    zmax[empty] = 0
    return DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)


def _mask_context_field(occ: np.ndarray) -> np.ndarray:
    nx, ny = occ.shape
    padded = np.zeros((nx + 2, ny + 4), dtype=np.uint8)
    padded[2:, 2 : ny + 2] = occ
    ctx = np.zeros((nx, ny), dtype=np.int32)
    for k, (dx, dy) in enumerate(_TEMPLATE):
        ctx |= padded[2 + dx : 2 + dx + nx, 2 + dy : 2 + dy + ny].astype(np.int32) << k
    return ctx


def _encode_signed(enc: RangeEncoder, models: list[BinaryModel], value: int) -> None:
    u = (value << 1) if value >= 0 else ((-value) << 1) - 1
    n = (u + 1).bit_length() - 1
    for k in range(n):
        enc.encode(models[k if k < 16 else 15], 0)
    enc.encode(models[n if n < 16 else 15], 1)
    for i in range(n - 1, -1, -1):
        enc.encode(models[16 + (i if i < 16 else 15)], ((u + 1) >> i) & 1)


def _decode_signed(dec: RangeDecoder, models: list[BinaryModel]) -> int:
    n = 0
    while dec.decode(models[n if n < 16 else 15]) == 0:
        n += 1
        if n > _MAX_PREFIX:
            raise BitstreamError("runaway residual prefix")
    value = 1
    for i in range(n - 1, -1, -1):
        value = (value << 1) | dec.decode(models[16 + (i if i < 16 else 15)])
    u = value - 1
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)


def _predict_low(occ, low, x: int, y: int, previous, nz: int) -> int:
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
    return previous if previous is not None else nz // 2


def _predict_thickness(occ, low, high, x: int, y: int, previous: int) -> int:
    if y and occ[x, y - 1]:
        return int(high[x, y - 1]) - int(low[x, y - 1])
    return previous


def encode_depthmaps(pair: DepthmapPair, nz: int) -> CodedStream:
    """Losslessly code a surface pair; decode_depthmaps inverts exactly."""
    occ = pair.occ
    enc = RangeEncoder()
    mask_models = [BinaryModel() for _ in range(MASK_CONTEXTS)]
    encode = enc.encode
    for ctx, bit in zip(_mask_context_field(occ).ravel().tolist(), occ.ravel().tolist()):
        encode(mask_models[ctx], bit)
    low_models = [BinaryModel() for _ in range(RESIDUAL_CONTEXTS)]
    thick_models = [BinaryModel() for _ in range(RESIDUAL_CONTEXTS)]
    low, high = pair.zmin, pair.zmax
    xs, ys = np.nonzero(occ)
    prev_low = None
    prev_thick = 0
    for x, y in zip(xs.tolist(), ys.tolist()):
        v = int(low[x, y])
        _encode_signed(enc, low_models, v - _predict_low(occ, low, x, y, prev_low, nz))
        t = int(high[x, y]) - v
        _encode_signed(enc, thick_models, t - _predict_thickness(occ, low, high, x, y, prev_thick))
        prev_low = v
        prev_thick = t
    return enc.finish()


def decode_depthmaps(data: bytes, nx: int, ny: int, nz: int) -> DepthmapPair:
    dec = RangeDecoder(data)
    mask_models = [BinaryModel() for _ in range(MASK_CONTEXTS)]
    stride = ny + 4
    grid = bytearray((nx + 2) * stride)
    offs = [dx * stride + dy for dx, dy in _TEMPLATE]
    o0, o1, o2, o3, o4, o5, o6, o7, o8, o9 = offs
    decode = dec.decode
    for x in range(nx):
        base = (x + 2) * stride + 2
        for y in range(ny):
            b = base + y
            ctx = (
                grid[b + o0]
                | grid[b + o1] << 1
                | grid[b + o2] << 2
                | grid[b + o3] << 3
                | grid[b + o4] << 4
                | grid[b + o5] << 5
                | grid[b + o6] << 6
                | grid[b + o7] << 7
                | grid[b + o8] << 8
                | grid[b + o9] << 9
            )
            if decode(mask_models[ctx]):
                grid[b] = 1
    occ = np.frombuffer(bytes(grid), dtype=np.uint8).reshape(nx + 2, stride)[2:, 2 : ny + 2].copy()
    low = np.zeros((nx, ny), dtype=np.int32)
    high = np.zeros((nx, ny), dtype=np.int32)
    low_models = [BinaryModel() for _ in range(RESIDUAL_CONTEXTS)]
    thick_models = [BinaryModel() for _ in range(RESIDUAL_CONTEXTS)]
    xs, ys = np.nonzero(occ)
    prev_low = None
    prev_thick = 0
    for x, y in zip(xs.tolist(), ys.tolist()):
        v = _predict_low(occ, low, x, y, prev_low, nz) + _decode_signed(dec, low_models)
        if not 0 <= v < nz:
            raise BitstreamError("decoded low surface out of range")
        t = _predict_thickness(occ, low, high, x, y, prev_thick) + _decode_signed(dec, thick_models)
        if t < 0 or v + t >= nz:
            raise BitstreamError("decoded thickness out of range")
        low[x, y] = v
        high[x, y] = v + t
        prev_low = v
        prev_thick = t
    return DepthmapPair(occ=occ, zmin=low, zmax=high)
