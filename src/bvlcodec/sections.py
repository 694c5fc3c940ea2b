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

One loop codes a run on either side: it takes each bit from the decoder, or
from the true occupancy and hands it to the encoder, and after each section
writes its reconstruction into the next slab of prev. The loop runs in the
native kernel (rangecoder.py), which keeps the dict's labels in a hash table
of its own; without the kernel it runs in Python, and the encoder codes the
run's contexts and bits in one call at the end.

Buffers are flat bytearrays with a one-cell border ring so the 3x3 crops
never bounds-check; border cells read as known empty and never enter the
list. Beyond filling the buffers (known empty by default), set-up touches
only the band cells of the occupied columns and the seeds' 3x3 neighbours,
and the reconstruction is read back from the band alone, so the array work
follows the band, not the section's area.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .contexts import get_norm_lists, get_norm_tables
from .depthmap import DepthmapPair, decode_depthmaps, encode_depthmaps, project_array
from .errors import BitstreamError, TruncatedStreamError
from .rangecoder import (
    NEED_ROOM,
    CodedStream,
    RangeDecoder,
    RangeEncoder,
    address,
    check_status,
    count_tables,
    native,
)

_STEPS = np.array([-1, 0, 1], dtype=np.int64)
# Both sides set up and code consecutive sections in runs of about this many
# cells (at least one section), so the buffers follow the run.
_RUN_CELLS = 1 << 18
# The room each call into the kernel's section loop starts with: coded bits,
# and count-table slots (at least twice the slots in use).
_BITS_ROOM = 1 << 16
_SLOTS_ROOM = 1 << 10


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
    cells = (np.concatenate((low_seeds, high_seeds))[:, None] + (st * _STEPS[:, None] + _STEPS).ravel()).ravel()
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
    encoder/decoder; the encoder also needs the run's true occupancy in the
    same padded layout as buf.state. The list-driven loop runs over one
    section after another, each reading the slab of buf.prev that the
    section before filled. Afterwards buf.state holds the reconstruction.
    """
    if (encoder is None) == (decoder is None):
        raise ValueError("pass exactly one of encoder or decoder")
    if encoder is not None and true_section is None:
        raise ValueError("encoding requires the true section")
    lib = native()
    if lib is not None:
        return _code_native(lib, buf, models, encoder or decoder, true_section)
    turn_by_patch, canonical_by_patch, rotated = get_norm_lists()
    state = buf.state
    marked = buf.marked
    prev = buf.prev
    st = buf.stride
    slab = (buf.nz + 2) * st
    get_slot = models.get
    coder = encoder or decoder
    c0 = coder.c0
    c1 = coder.c1
    decode = None if decoder is None else decoder.decode
    slots: list[int] = []
    bits: list[int] = []
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
            if decode is None:
                bit = true_section[idx]
                slots.append(slot)
                bits.append(bit)
            else:
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
    if encoder is not None:
        encoder.encode_many(slots, bits)
    return coded


class _LabelMap(ctypes.Structure):
    """LabelMap in _kernel.c."""

    _fields_ = [("keys", ctypes.c_void_p), ("slots", ctypes.c_void_p), ("mask", ctypes.c_int64),
                ("labels", ctypes.c_void_p), ("count", ctypes.c_int64)]


class _Run(ctypes.Structure):
    """Run in _kernel.c."""

    _fields_ = [(name, ctypes.c_void_p) for name in ("state", "marked", "prev", "truth")] + [
        (name, ctypes.c_int64) for name in ("stride", "slab", "count")
    ] + [("start", ctypes.c_void_p), ("starts", ctypes.c_int64)] + [
        (name, ctypes.c_void_p) for name in ("fifo", "turn", "canonical", "rotated")
    ] + [(name, ctypes.c_int64) for name in ("section", "next", "head", "tail", "loaded", "coded")]


class _SlotMap:
    """A models dict as the kernel's LabelMap, with room for `capacity` slots.

    labels[slot] is the label that owns each of the first `slots` slots of
    the coder's count tables (-1 for none); the hash table is twice the
    capacity or more, so it never fills.
    """

    def __init__(self, lib, models: dict, slots: int, capacity: int) -> None:
        self.models = models
        self.labels = np.full(capacity, -1, dtype=np.int32)
        self.labels[np.fromiter(models.values(), np.int64, len(models))] = np.fromiter(
            models.keys(), np.int64, len(models))
        size = 1 << (2 * capacity - 1).bit_length()
        self.keys = np.full(size, -1, dtype=np.int32)
        self.slots = np.empty(size, dtype=np.int32)
        self.struct = _LabelMap(self.keys.ctypes.data, self.slots.ctypes.data, size - 1,
                                self.labels.ctypes.data, slots)
        lib.map_fill(ctypes.byref(self.struct))


def _code_native(lib, buf: SectionBuffers, models: dict, coder, truth) -> int:
    """code_section's loop in the kernel; the coder's slot_map keeps models' labels across calls."""
    st = buf.stride
    slab = (buf.nz + 2) * st
    size = len(buf.state)
    queue = np.ascontiguousarray(buf.queue, dtype=np.int64)
    if (size % slab or len(buf.marked) != size or len(buf.prev) != size
            or (truth is not None and len(truth) != size)):
        raise ValueError("section buffers do not match their layout")
    tables = get_norm_tables()
    fifo = np.empty(slab, dtype=np.int32)
    run = _Run(address(buf.state), address(buf.marked), address(buf.prev),
               None if truth is None else np.frombuffer(truth, dtype=np.uint8).ctypes.data,
               st, slab, size // slab, queue.ctypes.data, queue.size, fifo.ctypes.data,
               tables.alpha_star.ctypes.data, tables.i_star.ctypes.data, tables.rotated_binary.ctypes.data)
    c0 = coder.c0
    c1 = coder.c1
    status = NEED_ROOM
    while status == NEED_ROOM:
        slots = len(c0)
        slot_map = coder.slot_map
        # A new dict or new tables, or a full map: rebuild it from models.
        if (slot_map is None or slot_map.models is not models or slot_map.struct.count != slots
                or slots == len(slot_map.labels)):
            slot_map = coder.slot_map = _SlotMap(lib, models, slots, max(_SLOTS_ROOM, 2 * slots))
        spare = len(slot_map.labels) - slots
        c0.frombytes(bytes(2 * spare))
        c1.frombytes(bytes(2 * spare))
        with coder.native_state(_BITS_ROOM) as state:
            status = lib.code_run(ctypes.byref(state), ctypes.byref(slot_map.struct), ctypes.byref(run))
        count = slot_map.struct.count
        models.update(zip(slot_map.labels[slots:count].tolist(), range(slots, count)))
        del c0[count:]
        del c1[count:]
    check_status(status)
    return run.coded


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
    c0, c1 = count_tables(0)
    remaining = cloud.to_array()
    shells: list[tuple[CodedStream, CodedStream]] = []
    while len(remaining) and len(shells) < max_shells:
        pair = project_array(remaining, dims)
        surface_stream = encode_depthmaps(pair, nz)
        encoder = RangeEncoder(c0, c1)
        recon, _ = sweep_encode(remaining, pair, dims, models, encoder)
        shells.append((surface_stream, encoder.finish()))
        # The points are sorted, so their keys are; every reconstructed point
        # is one of them.
        keep = np.ones(len(remaining), dtype=bool)
        keep[np.searchsorted(np.ravel_multi_index(remaining.T, dims), np.ravel_multi_index(recon.T, dims))] = False
        remaining = remaining[keep]
    return shells, remaining


def decode_shells(shell_blobs: list[tuple[bytes, bytes]], dims) -> np.ndarray:
    """Decode every shell's payload pair; returns their points, shell after shell."""
    nx, ny, nz = dims
    models: dict = {}
    c0, c1 = count_tables(0)
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
