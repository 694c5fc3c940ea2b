"""Section-by-section occupancy coding between the depth surfaces.

The volume is swept along y as a sequence of zOx sections. Within a section,
only cells between a column's low and high depth values (the feasible band)
can hold points; the band's two extreme cells are known occupied from the
surfaces and everything outside the band is known empty. The remaining
unknown cells are coded one bit at a time, driven by a FIFO work list:

  * the list starts as the 3x3 dilation of the surface seed cells, traversed
    in row-major order (z outer, x inner);
  * popping a known cell is a no-op; popping an unknown cell codes its
    occupancy under a rotation-normalized context built from the fused
    known/occupancy state of the current section and the reconstruction of
    the previous section;
  * a cell coded occupied enqueues its unknown, not yet enqueued 8-neighbors.

Both sides run the identical control flow, so the decoder recovers exactly
the cells the encoder coded: the points 8-connected, section by section, to
the surface seeds. Points no shell reaches are written raw, fixed width.
The encoder buffers a section's decisions as (model, bit) pairs and codes
them together once the section's loop ends; the decoder needs each bit
before it can go on.

Buffers are flat bytearrays with a one-cell border ring so the 3x3 crops
never bounds-check; border cells read as known empty and never enter the
list. Beyond filling the buffers (known empty by default), section set-up
touches only the band cells of the occupied columns and the seeds' 3x3
neighbours, and the reconstruction is read back from the band alone, so the
per-section array work follows the band, not the section's area.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .contexts import BINARY_WEIGHTS_BY_TURN, get_norm_lists
from .depthmap import DepthmapPair, decode_depthmaps, encode_depthmaps, project_array
from .errors import BitstreamError
from .rangecoder import (
    BinaryModel,
    BitReader,
    BitWriter,
    CodedStream,
    RangeDecoder,
    RangeEncoder,
)

_STEPS = np.array([-1, 0, 1], dtype=np.int64)


@dataclass
class SectionBuffers:
    """Mutable per-section coding state (padded, row per z, stride nx + 2)."""

    nz: int
    nx: int
    stride: int
    state: bytearray    # 0 unknown, 1 known empty, 2 known occupied
    marked: bytearray   # 1 once a cell has entered the work list
    prev: bytes         # previous section reconstruction, 0/1
    queue: deque
    band: np.ndarray    # flat indices of every feasible cell, seeds included


def build_section(pair: DepthmapPair, y0: int, nz: int, prev: bytes | None = None) -> SectionBuffers:
    """Initialize state, seeds, and the dilated work list for section y0."""
    occ_col = pair.occ[:, y0]
    nx = occ_col.shape[0]
    st = nx + 2
    size = (nz + 2) * st
    state = bytearray(b"\x01") * size
    marked = bytearray(size)
    xs = np.flatnonzero(occ_col)
    lo = pair.zmin[xs, y0].astype(np.int64)
    hi = pair.zmax[xs, y0].astype(np.int64)
    low_seeds = (lo + 1) * st + xs + 1
    high_seeds = (hi + 1) * st + xs + 1
    # Column j's band: its low seed, then one row further per cell.
    lengths = hi - lo + 1
    starts = np.cumsum(lengths) - lengths
    band = np.repeat(low_seeds - st * starts, lengths) + st * np.arange(int(lengths.sum()))
    view = np.frombuffer(state, dtype=np.uint8)
    view[band] = 0
    view[low_seeds] = 2
    view[high_seeds] = 2
    # Work list: the seeds' 3x3 neighbours inside the border ring, sorted
    # (row-major) and deduplicated.
    seeds = np.concatenate((low_seeds, high_seeds[hi > lo]))
    cells = (seeds[:, None] + (st * _STEPS[:, None] + _STEPS).ravel()).ravel()
    rows, cols = np.divmod(cells, st)
    cells = cells[(rows >= 1) & (rows <= nz) & (cols >= 1) & (cols <= nx)]
    cells.sort()
    cells = cells[np.diff(cells, prepend=-1) != 0]
    np.frombuffer(marked, dtype=np.uint8)[cells] = 1
    if prev is None:
        prev = bytes(size)
    return SectionBuffers(
        nz=nz,
        nx=nx,
        stride=st,
        state=state,
        marked=marked,
        prev=prev,
        queue=deque(cells.tolist()),
        band=band,
    )


def code_section(
    buf: SectionBuffers,
    models: dict,
    *,
    encoder: RangeEncoder | None = None,
    decoder: RangeDecoder | None = None,
    true_section: bytes | None = None,
    coded_cells: list | None = None,
) -> int:
    """Run the list-driven coding loop; returns the number of coded bits.

    Pass exactly one of encoder/decoder; encoding needs the section's true
    occupancy in the same padded layout as buf.state. Afterwards buf.state
    holds the reconstructed section. The encoder codes the section's
    decisions together, after the loop: no context depends on the coder.
    """
    if (encoder is None) == (decoder is None):
        raise ValueError("pass exactly one of encoder or decoder")
    if encoder is not None and true_section is None:
        raise ValueError("encoding requires the true section")
    turn_by_patch, canonical_by_patch = get_norm_lists()
    weights_by_turn = BINARY_WEIGHTS_BY_TURN
    state = buf.state
    marked = buf.marked
    prev = buf.prev
    queue = buf.queue
    st = buf.stride
    pop = queue.popleft
    push = queue.append
    get_model = models.get
    decode = decoder.decode if decoder is not None else None
    coded_models = []
    coded_bits = []
    coded = 0
    while queue:
        idx = pop()
        if state[idx]:
            continue
        nw = idx - st - 1
        n = nw + 1
        ne = n + 1
        w = idx - 1
        e = idx + 1
        sw = idx + st - 1
        s = sw + 1
        se = s + 1
        # Base-3 column-scan patch index; the center cell is unknown (0).
        patch = (
            state[nw] + 3 * state[w] + 9 * state[sw]
            + 27 * state[n] + 243 * state[s]
            + 729 * state[ne] + 2187 * state[e] + 6561 * state[se]
        )
        wt = weights_by_turn[turn_by_patch[patch]]
        label = canonical_by_patch[patch] * 512 + (
            prev[nw] * wt[0] + prev[w] * wt[1] + prev[sw] * wt[2]
            + prev[n] * wt[3] + prev[idx] * wt[4] + prev[s] * wt[5]
            + prev[ne] * wt[6] + prev[e] * wt[7] + prev[se] * wt[8]
        )
        model = get_model(label)
        if model is None:
            model = BinaryModel()
            models[label] = model
        if decode is None:
            bit = true_section[idx]
            coded_models.append(model)
            coded_bits.append(bit)
        else:
            bit = decode(model)
        coded += 1
        if coded_cells is not None:
            coded_cells.append(idx)
        state[idx] = 1 + bit
        if bit:
            if state[nw] == 0 and marked[nw] == 0:
                marked[nw] = 1
                push(nw)
            if state[n] == 0 and marked[n] == 0:
                marked[n] = 1
                push(n)
            if state[ne] == 0 and marked[ne] == 0:
                marked[ne] = 1
                push(ne)
            if state[w] == 0 and marked[w] == 0:
                marked[w] = 1
                push(w)
            if state[e] == 0 and marked[e] == 0:
                marked[e] = 1
                push(e)
            if state[sw] == 0 and marked[sw] == 0:
                marked[sw] = 1
                push(sw)
            if state[s] == 0 and marked[s] == 0:
                marked[s] = 1
                push(s)
            if state[se] == 0 and marked[se] == 0:
                marked[se] = 1
                push(se)
    if encoder is not None:
        encoder.encode_many(coded_models, coded_bits)
    return coded


def _section_bytes(points: np.ndarray, nz: int, stride: int) -> bytearray:
    t = bytearray((nz + 2) * stride)
    np.frombuffer(t, dtype=np.uint8)[(points[:, 2] + 1) * stride + points[:, 0] + 1] = 1
    return t


def _group_by_y(points: np.ndarray) -> dict[int, np.ndarray]:
    order = np.argsort(points[:, 1], kind="stable")
    sorted_pts = points[order]
    ys, starts = np.unique(sorted_pts[:, 1], return_index=True)
    bounds = np.append(starts, len(sorted_pts))
    return {
        int(y): sorted_pts[a:b]
        for y, a, b in zip(ys.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    }


def _sweep(pair, dims, models, encoder=None, decoder=None, true_by_y=None):
    nx, ny, nz = dims
    st = nx + 2
    size = (nz + 2) * st
    empty_prev = bytes(size)
    prev = empty_prev
    chunks = []
    decisions = 0
    has_any = pair.occ.any(axis=0)
    for y0 in range(ny):
        if not has_any[y0]:
            prev = empty_prev
            continue
        buf = build_section(pair, y0, nz, prev)
        section = None
        if encoder is not None:
            section = _section_bytes(true_by_y[y0], nz, st)
        decisions += code_section(
            buf, models, encoder=encoder, decoder=decoder, true_section=section
        )
        band = buf.band
        occupied = band[np.frombuffer(buf.state, dtype=np.uint8)[band] == 2]
        zs, xs = np.divmod(occupied, st)
        chunks.append(np.column_stack((xs - 1, np.full(xs.size, y0, dtype=np.int64), zs - 1)))
        prev = bytearray(size)
        np.frombuffer(prev, dtype=np.uint8)[occupied] = 1
    recon = np.concatenate(chunks) if chunks else np.empty((0, 3), dtype=np.int64)
    return recon, decisions


def sweep_encode(points: np.ndarray, pair: DepthmapPair, dims, models: dict,
                 encoder: RangeEncoder) -> tuple[np.ndarray, int]:
    """Encode all sections; returns (reconstructed points, decision count)."""
    return _sweep(pair, dims, models, encoder=encoder, true_by_y=_group_by_y(points))


def sweep_decode(pair: DepthmapPair, dims, models: dict,
                 decoder: RangeDecoder) -> tuple[np.ndarray, int]:
    """Decode all sections; mirrors sweep_encode decision for decision."""
    return _sweep(pair, dims, models, decoder=decoder)


def encode_shells(cloud, max_shells: int) -> tuple[list[tuple[CodedStream, CodedStream]], np.ndarray]:
    """Encode up to max_shells surface+section passes over the cloud.

    Each pass reconstructs the points reachable from its own depth surfaces;
    the next pass runs on whatever is left. Returns the per-shell payload
    pairs and the sorted points no shell reached. Section context models
    persist across shells.
    """
    dims = cloud.dims
    nz = dims[2]
    models: dict = {}
    remaining = cloud.to_array()
    shells: list[tuple[CodedStream, CodedStream]] = []
    while len(remaining) and len(shells) < max_shells:
        pair = project_array(remaining, dims)
        surface_stream = encode_depthmaps(pair, nz)
        encoder = RangeEncoder()
        recon, _ = sweep_encode(remaining, pair, dims, models, encoder)
        shells.append((surface_stream, encoder.finish()))
        keys = np.ravel_multi_index(remaining.T, dims)
        remaining = remaining[~np.isin(keys, np.ravel_multi_index(recon.T, dims))]
    return shells, remaining


def decode_shells(shell_blobs: list[tuple[bytes, bytes]], dims) -> np.ndarray:
    """Decode every shell's payload pair; returns their points, shell after shell."""
    nx, ny, nz = dims
    models: dict = {}
    chunks = [np.empty((0, 3), dtype=np.int64)]
    for surface_blob, section_blob in shell_blobs:
        pair = decode_depthmaps(surface_blob, nx, ny, nz)
        recon, _ = sweep_decode(pair, dims, models, RangeDecoder(section_blob))
        chunks.append(recon)
    return np.concatenate(chunks)


def encode_residual(points, dims) -> CodedStream:
    """Raw-code leftover (N, 3) points: a count then fixed-width x, y, z fields."""
    writer = BitWriter()
    widths = [(d - 1).bit_length() for d in dims]
    writer.write_uint(len(points), 32)
    for x, y, z in np.asarray(points, dtype=np.int64).tolist():
        writer.write_uint(x, widths[0])
        writer.write_uint(y, widths[1])
        writer.write_uint(z, widths[2])
    data = writer.finish()
    return CodedStream(data, writer.bit_count)


def decode_residual(data: bytes, dims) -> np.ndarray:
    reader = BitReader(data)
    widths = [(d - 1).bit_length() for d in dims]
    count = reader.read_uint(32)
    if count > dims[0] * dims[1] * dims[2]:
        raise BitstreamError("residual count exceeds the volume")
    out = []
    for _ in range(count):
        x = reader.read_uint(widths[0])
        y = reader.read_uint(widths[1])
        z = reader.read_uint(widths[2])
        if x >= dims[0] or y >= dims[1] or z >= dims[2]:
            raise BitstreamError("residual point outside the volume")
        out.append((x, y, z))
    return np.array(out, dtype=np.int64).reshape(-1, 3)
