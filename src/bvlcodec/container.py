"""Container framing, top-level encode/decode, and rate reporting.

Layout (little endian): magic "BVL1", u16 format version, u8 permutation id,
u8 shell count, u32 dims x3, then one u32 byte length per payload
(2 per shell plus the raw residual), then the payloads back to back. The
header carries the dims seen by the coder (after axis permutation); decode
applies the inverse permutation at the end.

The coder's buffers are planes spanned by two dims with a small border, so
every pair of dims must satisfy (a + 2) * (b + 2) <= MAX_PLANE_CELLS. Both
sides check this before allocating anything: the encoder never writes a
container the decoder refuses, and a header with outsized dims fails closed.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np

from .cloud import PERMUTATION_COUNT, AxisPermutation, VoxelCloud
from .errors import BitstreamError, ContainerError, EmptyCloudError, TruncatedStreamError
from .sections import decode_residual, decode_shells, encode_residual, encode_shells

MAGIC = b"BVL1"
FORMAT_VERSION = 1
_FIXED = struct.Struct("<4sHBB3I")
# The shell count is one byte of the fixed header.
MAX_SHELLS = 255
MAX_PLANE_CELLS = 1 << 26

CSV_COLUMNS = (
    "file", "points", "permutation", "shells", "stage1_bits", "stage2_bits",
    "residual_bits", "total_bits", "bpv", "encode_ms", "decode_ms",
)


@dataclass
class RateReport:
    """Rate split for one encoded cloud; bit counts exclude the fixed header."""

    points: int
    permutation: int
    shells: int
    stage1_bits: int
    stage2_bits: int
    residual_bits: int
    total_bits: int
    bpv: float
    encode_ms: float = 0.0
    decode_ms: float = 0.0
    stage1_bits_per_shell: tuple[int, ...] = ()
    stage2_bits_per_shell: tuple[int, ...] = ()
    permutation_totals: tuple[int, ...] = ()
    container_bytes: int = 0
    quantize_noop: bool = False

    def csv_row(self, name: str) -> list:
        return [
            name, self.points, self.permutation, self.shells, self.stage1_bits,
            self.stage2_bits, self.residual_bits, self.total_bits,
            f"{self.bpv:.6f}", f"{self.encode_ms:.2f}", f"{self.decode_ms:.2f}",
        ]

    def text(self) -> str:
        lines = [
            f"points:         {self.points}",
            f"permutation:    {self.permutation}",
            f"shells:         {self.shells}",
            f"stage 1 bits:   {self.stage1_bits} {list(self.stage1_bits_per_shell)}",
            f"stage 2 bits:   {self.stage2_bits} {list(self.stage2_bits_per_shell)}",
            f"residual bits:  {self.residual_bits}",
            f"total bits:     {self.total_bits} ({self.container_bytes} container bytes)",
            f"bpv:            {self.bpv:.4f}",
            f"encode:         {self.encode_ms:.1f} ms",
        ]
        if self.decode_ms:
            lines.append(f"decode:         {self.decode_ms:.1f} ms")
        if self.permutation_totals:
            lines.append(
                "per-permutation bits: "
                + " ".join(str(t) for t in self.permutation_totals)
            )
        if self.quantize_noop:
            lines.append("note: requested bit depth not below source depth; quantization was a no-op")
        return "\n".join(lines)


def _check_dims(dims) -> None:
    a, b, c = dims
    if max((a + 2) * (b + 2), (a + 2) * (c + 2), (b + 2) * (c + 2)) > MAX_PLANE_CELLS:
        raise ContainerError(f"dims {tuple(dims)} exceed {MAX_PLANE_CELLS} cells per plane")


def _assemble(permutation_id: int, dims, shells, residual_stream) -> bytes:
    payloads = [s for pair in shells for s in pair] + [residual_stream]
    header = _FIXED.pack(MAGIC, FORMAT_VERSION, permutation_id, len(shells), *dims)
    lengths = struct.pack(f"<{len(payloads)}I", *(len(p.data) for p in payloads))
    return header + lengths + b"".join(p.data for p in payloads)


def encode_cloud(cloud: VoxelCloud, permutation: int | str = "auto",
                 max_shells: int = 2) -> tuple[bytes, RateReport]:
    """Encode a cloud into container bytes plus its rate report.

    permutation "auto" encodes all 6 axis orderings and keeps the smallest
    total payload (ties to the smallest id); an integer pins the ordering.
    At most max_shells passes run, and at most 255 whatever it says; the
    points no pass reaches go to the raw residual.
    """
    start = time.perf_counter()
    count = len(cloud.to_array())
    if not count:
        raise EmptyCloudError("refusing to encode an empty cloud")
    cloud.validate()
    # Also keeps every dim within its 32-bit header field.
    _check_dims(cloud.dims)
    if max_shells < 1:
        raise ValueError("max_shells must be >= 1")
    if permutation == "auto":
        perm_ids = range(PERMUTATION_COUNT)
    else:
        perm_ids = [AxisPermutation(int(permutation)).id]
    best = None
    totals = []
    for pid in perm_ids:
        permuted = AxisPermutation(pid).apply(cloud)
        shells, residual = encode_shells(permuted, min(max_shells, MAX_SHELLS))
        residual_stream = encode_residual(residual, permuted.dims)
        total_bits = (
            sum(p.bit_length for pair in shells for p in pair)
            + residual_stream.bit_length
        )
        totals.append(total_bits)
        if best is None or total_bits < best[0]:
            best = (total_bits, pid, shells, residual_stream, permuted.dims)
    total_bits, pid, shells, residual_stream, dims = best
    blob = _assemble(pid, dims, shells, residual_stream)
    stage1 = tuple(pair[0].bit_length for pair in shells)
    stage2 = tuple(pair[1].bit_length for pair in shells)
    report = RateReport(
        points=count,
        permutation=pid,
        shells=len(shells),
        stage1_bits=sum(stage1),
        stage2_bits=sum(stage2),
        residual_bits=residual_stream.bit_length,
        total_bits=total_bits,
        bpv=total_bits / count,
        encode_ms=(time.perf_counter() - start) * 1000.0,
        stage1_bits_per_shell=stage1,
        stage2_bits_per_shell=stage2,
        permutation_totals=tuple(totals) if permutation == "auto" else (),
        container_bytes=len(blob),
    )
    return blob, report


def decode_cloud(data: bytes) -> VoxelCloud:
    """Invert encode_cloud exactly, including the axis permutation."""
    if len(data) < _FIXED.size:
        raise TruncatedStreamError("container shorter than its fixed header")
    magic, version, pid, shell_count, nx, ny, nz = _FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise ContainerError("bad magic")
    if version != FORMAT_VERSION:
        raise ContainerError(f"unsupported format version {version}")
    if pid >= PERMUTATION_COUNT:
        raise ContainerError(f"invalid permutation id {pid}")
    if min(nx, ny, nz) < 1:
        raise ContainerError("invalid dims")
    _check_dims((nx, ny, nz))
    payload_count = 2 * shell_count + 1
    offset = _FIXED.size
    table_end = offset + 4 * payload_count
    if len(data) < table_end:
        raise TruncatedStreamError("container shorter than its payload table")
    lengths = struct.unpack_from(f"<{payload_count}I", data, offset)
    offset = table_end
    expected = offset + sum(lengths)
    if len(data) < expected:
        raise TruncatedStreamError("truncated payload")
    if len(data) > expected:
        raise ContainerError("trailing bytes after payloads")
    blobs = []
    for length in lengths:
        blobs.append(data[offset : offset + length])
        offset += length
    dims = (int(nx), int(ny), int(nz))
    shell_blobs = [(blobs[2 * i], blobs[2 * i + 1]) for i in range(shell_count)]
    points = np.concatenate([*decode_shells(shell_blobs, dims), decode_residual(blobs[-1], dims)])
    permuted = VoxelCloud(dims, points)
    # Shells peel disjoint points and the residual holds the rest, so a
    # valid container never decodes a point twice.
    if len(permuted.to_array()) != len(points):
        raise BitstreamError("decoded points repeat")
    return AxisPermutation(pid).inverse().apply(permuted)
