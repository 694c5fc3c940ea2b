"""Section-by-section occupancy coding between the depth surfaces.

The volume is swept along y as a sequence of zOx sections. Within a section,
only cells between a column's low and high depth values (the feasible band)
can hold points; the band's two extreme cells are known occupied from the
surfaces and everything outside the band is known empty. The remaining
unknown cells are coded one bit at a time, driven by a FIFO work list:

  * the list starts as the unknown cells of the 3x3 dilation of the surface
    seed cells, in row-major order (z outer, x inner);
  * every popped cell is unknown: it is coded under a rotation-normalized
    context built from the fused known/occupancy state of the current
    section and the reconstruction of the previous section;
  * a cell coded occupied enqueues its unknown, not yet enqueued 8-neighbors.

A cell is marked once it is listed, on both sides; every listed cell is
coded, so no pop is a no-op.

Both sides code the same cells in the same order, so the decoder recovers
exactly the cells the encoder coded: the points 8-connected, section by
section, to the surface seeds. Points no shell reaches are written raw,
fixed width.

A context label (canonical ternary patch * 512 + rotated binary patch) is
mapped to an int slot of the coder's count tables by a dict shared across
shells; a label's first touch gives it the next slot and appends a count of
1 to each table.

Both sides code runs: consecutive occupied sections, about _RUN_CELLS cells
at most (at least one section); an empty section ends a run. A run's
sections lie one padded slab after another in every buffer. Slab k of prev
holds the 0/1 reconstruction of the section before section k (for slab 0,
the last section of the run before, or zero after an empty section), so a
cell reads its previous-section patch around its own index in prev.

The decoder runs the loop above cell by cell, section after section, and
writes each section's reconstruction into the next slab of prev. The
encoder knows every section's true occupancy up front, so it fills prev at
once and derives the loop's order by breadth-first levels instead.
Level 0 is the start list; level L + 1 is the unknown, not yet listed
8-neighbours of level L's occupied cells, in push order, first occurrence
kept. Every cell a level-L cell pushes goes behind all of level L, so the
FIFO pops the levels one after another, each in push order: their
concatenation is the decoder's order. A cell's place in it is its position;
in its context, a neighbour unknown at set-up reads as coded (1 + bit) if
its position is smaller and as unknown otherwise. With the order and the
positions in arrays, numpy builds the contexts of the whole run at once, and
the range coder codes them in blocks.

Buffers are flat bytearrays with a one-cell border ring so the 3x3 crops
never bounds-check; border cells read as known empty and never enter the
list. Beyond filling the buffers (known empty by default), set-up touches
only the band cells of the occupied columns and the seeds' 3x3 neighbours,
and the reconstruction is read back from the band alone, so the array work
follows the band, not the section's area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contexts import get_norm_lists, get_norm_tables
from .depthmap import DepthmapPair, decode_depthmaps, encode_depthmaps, project_array
from .errors import BitstreamError, TruncatedStreamError
from .rangecoder import CodedStream, RangeDecoder, RangeEncoder

_STEPS = np.array([-1, 0, 1], dtype=np.int64)
# Both sides set up and code consecutive sections in runs of about this many
# cells (at least one section), and the encoder builds contexts for this many
# coded cells at a time, so its temporaries follow the run and the block.
_RUN_CELLS = 1 << 18
_BLOCK_CELLS = 1 << 14
# (z, x) steps to the 8 neighbours in push order: nw, n, ne, w, e, sw, s, se.
_PUSH_DZ = np.array([-1, -1, -1, 0, 0, 1, 1, 1])
_PUSH_DX = np.array([-1, 0, 1, -1, 1, -1, 0, 1])
# (z, x) steps to the 3x3 patch cells in digit order, and the weights of the
# digits: digit i + 3 * j is the cell at z step i - 1 and x step j - 1.
_PATCH_DZ = np.tile(_STEPS, 3)
_PATCH_DX = np.repeat(_STEPS, 3)
_TERNARY_WEIGHTS = 3 ** np.arange(9, dtype=np.int64)
_BINARY_WEIGHTS = 1 << np.arange(9, dtype=np.int64)


@dataclass
class SectionBuffers:
    """Mutable coding state of a run of sections, one padded slab per section.

    A slab has a row per z of stride nx + 2 cells. Slab k of prev holds the
    0/1 reconstruction of the section before section k.
    """

    nz: int
    stride: int
    state: bytearray    # 0 unknown, 1 known empty, 2 known occupied
    marked: bytearray   # 1 once a cell has entered the work list
    prev: bytearray     # slab k: the section before section k, 0/1
    queue: np.ndarray   # the start of the work list: unknown cells, section by section, row-major
    band: np.ndarray    # flat indices of every feasible cell, seeds included


def build_section(pair: DepthmapPair, y0: int, nz: int, prev: bytes | None = None,
                  count: int = 1) -> SectionBuffers:
    """Initialize state, seeds and the start of the work list of sections y0 .. y0 + count - 1.

    The sections lie one padded slab after another. prev, one slab, is the
    reconstruction of the section before y0: it fills slab 0 of the buffers'
    prev, which stays zero when it is None; coding fills the other slabs.
    """
    occ = pair.occ[:, y0 : y0 + count]
    nx = occ.shape[0]
    st = nx + 2
    slab = (nz + 2) * st
    size = count * slab
    state = bytearray(b"\x01") * size
    marked = bytearray(size)
    ks, xs = np.nonzero(occ.T)
    lo = pair.zmin[xs, y0 + ks].astype(np.int64)
    hi = pair.zmax[xs, y0 + ks].astype(np.int64)
    columns = ks * slab + xs + 1
    low_seeds = columns + (lo + 1) * st
    high_seeds = columns + (hi + 1) * st
    # Column j's band: its low seed, then one row further per cell.
    lengths = hi - lo + 1
    starts = np.cumsum(lengths) - lengths
    band = np.repeat(low_seeds - st * starts, lengths) + st * np.arange(int(lengths.sum()))
    view = np.frombuffer(state, dtype=np.uint8)
    view[band] = 0
    view[low_seeds] = 2
    view[high_seeds] = 2
    # Work list: the unknown cells among the seeds' 3x3 neighbours, sorted
    # (section by section, row-major) and deduplicated. Seeds and the border
    # ring are known, so each seed's neighbours stay inside its padded slab.
    cells = (np.concatenate((low_seeds, high_seeds))[:, None] + (st * _PATCH_DZ + _PATCH_DX)).ravel()
    cells = cells[view[cells] == 0]
    cells.sort()
    cells = cells[np.diff(cells, prepend=-1) != 0]
    np.frombuffer(marked, dtype=np.uint8)[cells] = 1
    run_prev = bytearray(size)
    if prev is not None:
        run_prev[:slab] = prev
    return SectionBuffers(
        nz=nz,
        stride=st,
        state=state,
        marked=marked,
        prev=run_prev,
        queue=cells,
        band=band,
    )


def code_section(
    buf: SectionBuffers,
    models: dict,
    *,
    encoder: RangeEncoder | None = None,
    decoder: RangeDecoder | None = None,
    true_section: bytes | None = None,
) -> int:
    """Code the unknown cells the work list reaches in every section of the run.

    Returns the number of coded bits. models maps each context label seen so
    far to its slot in the coder's count tables. Pass exactly one of
    encoder/decoder. The decoder runs the list-driven loop over one section
    after another, each reading the slab of buf.prev that the section before
    filled. The encoder codes the run by levels and needs its true occupancy
    in the same padded layout as buf.state. Afterwards buf.state holds the
    reconstruction.
    """
    if (encoder is None) == (decoder is None):
        raise ValueError("pass exactly one of encoder or decoder")
    if encoder is not None:
        if true_section is None:
            raise ValueError("encoding requires the true section")
        return _encode_run(buf, models, encoder, true_section)
    turn_by_patch, canonical_by_patch, rotated = get_norm_lists()
    state = buf.state
    marked = buf.marked
    prev = buf.prev
    st = buf.stride
    slab = (buf.nz + 2) * st
    get_slot = models.get
    c0 = decoder.c0
    c1 = decoder.c1
    decode = decoder.decode
    coded = 0
    reconstruction = np.frombuffer(state, dtype=np.uint8)
    previous = np.frombuffer(prev, dtype=np.uint8)
    # The start list is sorted, so each section's part of it lies between
    # two slab boundaries.
    starts = range(0, len(state), slab)
    parts = np.split(buf.queue, np.searchsorted(buf.queue, starts[1:]))
    for a, part in zip(starts, parts):
        # Every listed cell is unknown until it is coded, so the FIFO is a
        # list that the loop walks while it grows.
        queue = part.tolist()
        push = queue.append
        for idx in queue:
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
            label = canonical_by_patch[patch] * 512 + rotated[turn_by_patch[patch]][
                prev[nw] + 2 * prev[w] + 4 * prev[sw]
                + 8 * prev[n] + 16 * prev[idx] + 32 * prev[s]
                + 64 * prev[ne] + 128 * prev[e] + 256 * prev[se]
            ]
            slot = get_slot(label)
            if slot is None:
                slot = models[label] = len(c0)
                c0.append(1)
                c1.append(1)
            bit = decode(slot)
            coded += 1
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
        if a + slab < len(state):
            previous[a + slab : a + 2 * slab] = reconstruction[a : a + slab] == 2
    return coded


def _encode_run(buf: SectionBuffers, models: dict, encoder: RangeEncoder, true_section: bytes) -> int:
    """Code a run of sections by breadth-first levels (see the module docstring)."""
    st = buf.stride
    slab = (buf.nz + 2) * st
    state = np.frombuffer(buf.state, dtype=np.uint8)
    marked = np.frombuffer(buf.marked, dtype=np.uint8)
    truth = np.frombuffer(true_section, dtype=np.uint8)
    level = buf.queue
    push = st * _PUSH_DZ + _PUSH_DX
    levels = []
    while level.size:
        levels.append(level)
        marked[level] = 1
        pushed = (level[truth[level] == 1][:, None] + push).ravel()
        pushed = pushed[(state[pushed] == 0) & (marked[pushed] == 0)]
        _, first = np.unique(pushed, return_index=True)
        level = pushed[np.sort(first)]
    if not levels:
        return 0
    order = np.concatenate(levels)
    position = np.empty(state.size, dtype=np.int32)
    position[order] = np.arange(order.size, dtype=np.int32)
    # Levels interleave the run's sections; the coder takes one section
    # after another, each in its own order.
    cells = order[np.argsort(order // slab, kind="stable")]
    bits = truth[cells]
    # Every listed cell is coded, so from here a mark means coded, and the
    # state is the reconstruction.
    state[cells] = 1 + bits
    prev = np.frombuffer(buf.prev, dtype=np.uint8)
    prev[slab:] = state[:-slab] == 2
    tables = get_norm_tables()
    c0 = encoder.c0
    c1 = encoder.c1
    patch_offsets = st * _PATCH_DZ + _PATCH_DX
    for a in range(0, cells.size, _BLOCK_CELLS):
        block = cells[a : a + _BLOCK_CELLS]
        around = block[:, None] + patch_offsets
        # The patch as it stood when the cell was coded: a cell coded at or
        # after it, the cell itself included, was still unknown.
        current = state[around]
        current[(marked[around] == 1) & (position[around] >= position[block][:, None])] = 0
        patch = current @ _TERNARY_WEIGHTS
        binary = tables.rotated_binary[tables.alpha_star[patch], prev[around] @ _BINARY_WEIGHTS]
        labels, inverse = np.unique(tables.i_star[patch] * 512 + binary, return_inverse=True)
        slots = []
        for label in labels.tolist():
            slot = models.get(label)
            if slot is None:
                slot = models[label] = len(c0)
                c0.append(1)
                c1.append(1)
            slots.append(slot)
        encoder.encode_many(np.array(slots)[inverse].tolist(), bits[a : a + _BLOCK_CELLS].tolist())
    return int(cells.size)


def _reconstruction(buf: SectionBuffers, y0: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupied band cells of a coded run, and the same cells as (x, y, z) points."""
    band = buf.band
    occupied = band[np.frombuffer(buf.state, dtype=np.uint8)[band] == 2]
    ks, cells = np.divmod(occupied, (buf.nz + 2) * buf.stride)
    zs, xs = np.divmod(cells, buf.stride)
    return occupied, np.column_stack((xs - 1, ks + y0, zs - 1))


def _sweep(pair: DepthmapPair, dims, models: dict, points: np.ndarray | None = None,
           encoder: RangeEncoder | None = None,
           decoder: RangeDecoder | None = None) -> tuple[np.ndarray, int]:
    """Code all sections, run by run; returns (reconstructed points, decision count).

    The encoder also passes the points, which give each run's true occupancy.
    """
    nx, ny, nz = dims
    st = nx + 2
    slab = (nz + 2) * st
    per_run = max(1, _RUN_CELLS // slab)
    runs: list[list[int]] = []
    for y in np.flatnonzero(pair.occ.any(axis=0)).tolist():
        if runs and runs[-1][0] + runs[-1][1] == y and runs[-1][1] < per_run:
            runs[-1][1] += 1
        else:
            runs.append([y, 1])
    if points is not None:
        by_y = points[np.argsort(points[:, 1], kind="stable")]
        y_starts = np.searchsorted(by_y[:, 1], np.arange(ny + 1)).tolist()
    chunks = [np.empty((0, 3), dtype=np.int64)]
    decisions = 0
    carry = None
    end = -1
    for y0, count in runs:
        buf = build_section(pair, y0, nz, carry if y0 == end else None, count)
        truth = None
        if points is not None:
            pts = by_y[y_starts[y0] : y_starts[y0 + count]]
            truth = bytearray(count * slab)
            np.frombuffer(truth, dtype=np.uint8)[
                (pts[:, 1] - y0) * slab + (pts[:, 2] + 1) * st + pts[:, 0] + 1
            ] = 1
        decisions += code_section(buf, models, encoder=encoder, decoder=decoder, true_section=truth)
        occupied, recon = _reconstruction(buf, y0)
        chunks.append(recon)
        carry = bytearray(slab)
        np.frombuffer(carry, dtype=np.uint8)[occupied[occupied >= (count - 1) * slab] % slab] = 1
        end = y0 + count
    return np.concatenate(chunks), decisions


def sweep_encode(points: np.ndarray, pair: DepthmapPair, dims, models: dict,
                 encoder: RangeEncoder) -> tuple[np.ndarray, int]:
    """Encode all sections; returns (reconstructed points, decision count)."""
    return _sweep(pair, dims, models, points, encoder=encoder)


def sweep_decode(pair: DepthmapPair, dims, models: dict,
                 decoder: RangeDecoder) -> tuple[np.ndarray, int]:
    """Decode all sections; mirrors sweep_encode decision for decision."""
    return _sweep(pair, dims, models, decoder=decoder)


def encode_shells(cloud, max_shells: int) -> tuple[list[tuple[CodedStream, CodedStream]], np.ndarray]:
    """Encode up to max_shells surface+section passes over the cloud.

    Each pass reconstructs the points reachable from its own depth surfaces;
    the next pass runs on whatever is left. Returns the per-shell payload
    pairs and the sorted points no shell reached. Section context labels and
    their counts persist across shells.
    """
    dims = cloud.dims
    nz = dims[2]
    models: dict = {}
    c0, c1 = [], []
    remaining = cloud.to_array()
    shells: list[tuple[CodedStream, CodedStream]] = []
    while len(remaining) and len(shells) < max_shells:
        pair = project_array(remaining, dims)
        surface_stream = encode_depthmaps(pair, nz)
        encoder = RangeEncoder(c0, c1)
        recon, _ = sweep_encode(remaining, pair, dims, models, encoder)
        shells.append((surface_stream, encoder.finish()))
        keys = np.ravel_multi_index(remaining.T, dims)
        remaining = remaining[~np.isin(keys, np.ravel_multi_index(recon.T, dims))]
    return shells, remaining


def decode_shells(shell_blobs: list[tuple[bytes, bytes]], dims) -> np.ndarray:
    """Decode every shell's payload pair; returns their points, shell after shell."""
    nx, ny, nz = dims
    models: dict = {}
    c0, c1 = [], []
    chunks = [np.empty((0, 3), dtype=np.int64)]
    for surface_blob, section_blob in shell_blobs:
        pair = decode_depthmaps(surface_blob, nx, ny, nz)
        recon, _ = sweep_decode(pair, dims, models, RangeDecoder(section_blob, c0, c1))
        chunks.append(recon)
    return np.concatenate(chunks)


def encode_residual(points, dims) -> CodedStream:
    """Raw-code leftover (N, 3) points: a 32-bit count then fixed-width x, y, z fields.

    Everything is written MSB first, back to back; the last byte is zero padded.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 3)
    widths = [(d - 1).bit_length() for d in dims]
    fields = np.hstack([(pts[:, [i]] >> np.arange(w - 1, -1, -1)) & 1 for i, w in enumerate(widths)])
    packed = np.packbits(fields.astype(np.uint8).ravel()).tobytes()
    return CodedStream(len(pts).to_bytes(4, "big") + packed, 32 + fields.size)


def decode_residual(data: bytes, dims) -> np.ndarray:
    """Invert encode_residual; a short payload or a point outside the volume raises."""
    if len(data) < 4:
        raise TruncatedStreamError("residual payload shorter than its count")
    count = int.from_bytes(data[:4], "big")
    if count > dims[0] * dims[1] * dims[2]:
        raise BitstreamError("residual count exceeds the volume")
    widths = [(d - 1).bit_length() for d in dims]
    size = count * sum(widths)
    if 32 + size > 8 * len(data):
        raise TruncatedStreamError("residual payload shorter than its points")
    fields = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=4))[:size]
    columns = np.split(fields.reshape(count, sum(widths)).astype(np.int64), np.cumsum(widths)[:2], axis=1)
    pts = np.column_stack([c @ (1 << np.arange(c.shape[1] - 1, -1, -1)) for c in columns])
    if (pts >= np.asarray(dims)).any():
        raise BitstreamError("residual point outside the volume")
    return pts
