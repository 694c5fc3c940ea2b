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
section, to the surface seeds. The encoder flags which of its points the
sweep reached, and the next shell codes the rest, copied in their sorted
order. Points no shell reaches are written raw, fixed width.

A cell's context is its label, class * 512 + rotated binary patch, where
class numbers the canonical class of its ternary patch among the 1,665 whose
center is unknown (contexts.py). The label indexes the coder's CountTables
directly: count_tables(SECTION_CONTEXTS), one table of c0 | c1 << 16
entries, 852,480 uint32 entries that each hold both counts of a label. Both
sides share one table across shells. It is a zeroed anonymous mapping, so
only the pages of coded labels become resident.

Both sides code a whole shell in one call. build_section prepares it once:
the depth maps, read in place; the slab cells of the encoder's points,
grouped by section by a stable counting sort on y whose order it keeps; and
the coding buffers. code_section then walks the sections in y order. Section
y codes in state slab y % 2 and reads the reconstruction of section y - 1
(state 2) from the other slab, which an empty section leaves blank. Loading
a section first clears the bands that section y - 2 left in its slab, then
writes its own bands and seeds, lists the unknown cells around the seeds
(sorted row-major, deduplicated) and marks the encoder's true cells.
Afterwards the encoder flags each true cell that the section's state holds
occupied as reached, one byte per point in sorted order, and the marks and
true cells are cleared again. So the set-up follows the occupied columns and
the coded cells, never a slab's area. The encoder emits no points; the decoder's reconstructed
points, each section's seeds then its cells coded occupied, go to an output
array as they are found.

The loop runs in the native kernel (rangecoder.run), and so do the
encoder's passes over a shell's rows, one pass each: their projection
(depthmap.project_array), their grouping by section (_group) and the copy
of the rows the sweep left (_leftovers). Without the kernel the loop runs in Python,
section by section, on buffers that numpy sets up per section
(_section_buffers), the encoder codes each section's contexts and bits in
one call, and numpy does the row passes.

Slabs are flat byte buffers with a one-cell border ring so the 3x3 crops
never bounds-check; border cells read as known empty and never enter the
list. The kernel and the Python loop share one slab layout, column-major:
cell (z, x) sits at (x + 1) * (nz + 2) + z + 1, and Shell.cells indexes it.
Each band is contiguous, so the kernel writes or clears it with one memset.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .contexts import UNKNOWN_CENTER_CLASSES, get_norm_lists, get_norm_tables
from .depthmap import (
    DepthmapPair,
    _check_inside,
    _exact,
    _rows,
    decode_depthmaps,
    encode_depthmaps,
    project_array,
)
from .errors import BitstreamError, TruncatedStreamError
from .rangecoder import (
    BAD_LAYOUT,
    CodedStream,
    CountTables,
    RangeDecoder,
    RangeEncoder,
    check_status,
    count_tables,
    native,
    run,
)

# The z and x offsets of a 3x3 crop's cells.
_DZ = np.repeat(np.array([-1, 0, 1], dtype=np.int64), 3)
_DX = np.tile(np.array([-1, 0, 1], dtype=np.int64), 3)
# Every context label: class * 512 + rotated binary patch.
SECTION_CONTEXTS = UNKNOWN_CENTER_CLASSES * 512


@dataclass
class SectionBuffers:
    """Mutable coding state of one section in the Python loop.

    A padded slab has a column per x of stride nz + 2 cells, the kernel's layout.
    """

    stride: int
    state: bytearray    # 0 unknown, 1 known empty, 2 known occupied
    marked: bytearray   # 1 once a cell has entered the work list
    prev: bytearray     # the reconstruction of the section before, 0/1
    queue: np.ndarray   # the start of the work list: unknown cells, sorted row-major


def _section_buffers(pair: DepthmapPair, y: int, nz: int, prev: bytes | None = None) -> SectionBuffers:
    """Initialize state, seeds and the start of the work list of section y.

    prev, one slab, is the reconstruction of the section before y; None
    stands for an empty one. A column whose occ byte is above 1 or whose
    band leaves 0 .. nz - 1 raises ValueError.
    """
    occ = pair.occ[:, y]
    nx = occ.shape[0]
    st = nz + 2
    size = (nx + 2) * st
    state = bytearray(b"\x01") * size
    marked = bytearray(size)
    xs = np.flatnonzero(occ)
    lo = pair.zmin[xs, y].astype(np.int64)
    hi = pair.zmax[xs, y].astype(np.int64)
    if (occ[xs] != 1).any() or (lo < 0).any() or (lo > hi).any() or (hi >= nz).any():
        check_status(BAD_LAYOUT)
    low_seeds = (xs + 1) * st + lo + 1
    high_seeds = (xs + 1) * st + hi + 1
    # Column j's band: the contiguous cells from its low seed to its high seed.
    lengths = hi - lo + 1
    starts = np.cumsum(lengths) - lengths
    band = np.repeat(low_seeds - starts, lengths) + np.arange(int(lengths.sum()))
    view = np.frombuffer(state, dtype=np.uint8)
    view[band] = 0
    view[low_seeds] = 2
    view[high_seeds] = 2
    # Work list: the unknown cells among the seeds' 3x3 neighbours, sorted
    # row-major (z, then x) and deduplicated. Seeds and the border ring are
    # known, so each seed's neighbours stay inside the padded slab.
    rows = np.concatenate((lo, hi))[:, None] + 1 + _DZ
    cols = np.tile(xs, 2)[:, None] + 1 + _DX
    cells = (cols * st + rows).ravel()
    unknown = view[cells] == 0
    _, first = np.unique((rows * (nx + 2) + cols).ravel()[unknown], return_index=True)
    cells = cells[unknown][first]
    np.frombuffer(marked, dtype=np.uint8)[cells] = 1
    return SectionBuffers(
        stride=st,
        state=state,
        marked=marked,
        prev=bytearray(size) if prev is None else bytearray(prev),
        queue=cells,
    )


def _code_buffers(buf: SectionBuffers, coder, truth: bytes | None = None) -> int:
    """Code the unknown cells the work list reaches in one section, in Python.

    The coder's count table is indexed by label. Returns the number of coded
    bits. With truth, the section's true occupancy in the layout of
    buf.state, each bit is read from it and the coder encodes the section's
    contexts and bits in one call at the end; without, each bit is decoded.
    Afterwards buf.state holds the reconstruction.
    """
    turn_by_patch, class_by_patch, rotated = get_norm_lists()
    state = buf.state
    marked = buf.marked
    prev = buf.prev
    st = buf.stride
    decode = None if truth is not None else coder.decode
    labels: list[int] = []
    bits: list[int] = []
    # Every listed cell is unknown until it is coded, so the FIFO is a list
    # that the loop walks while it grows.
    queue = buf.queue.tolist()
    push = queue.append
    for idx in queue:
        nw = idx - st - 1
        w = nw + 1
        sw = w + 1
        n = idx - 1
        s = idx + 1
        ne = idx + st - 1
        e = ne + 1
        se = e + 1
        # Base-3 column-scan patch index; the center cell is unknown (0).
        patch = (
            state[nw] + 3 * state[w] + 9 * state[sw]
            + 27 * state[n] + 243 * state[s]
            + 729 * state[ne] + 2187 * state[e] + 6561 * state[se]
        )
        label = class_by_patch[patch] * 512 + rotated[turn_by_patch[patch]][
            prev[nw] + 2 * prev[w] + 4 * prev[sw]
            + 8 * prev[n] + 16 * prev[idx] + 32 * prev[s]
            + 64 * prev[ne] + 128 * prev[e] + 256 * prev[se]
        ]
        if decode is None:
            bit = truth[idx]
            labels.append(label)
            bits.append(bit)
        else:
            bit = decode(label)
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
    if decode is None:
        coder.encode_many(labels, bits)
    return len(queue)


class _Shell(ctypes.Structure):
    """Shell in _kernel.c."""

    _fields_ = [(name, ctypes.c_void_p) for name in ("occ", "zmin", "zmax")] + [
        (name, ctypes.c_int64) for name in ("nx", "ny", "nz")
    ] + [(name, ctypes.c_void_p) for name in (
        "cells", "offsets", "reached", "state", "marked", "truth", "fifo", "columns", "rows", "out")] + [
        ("room", ctypes.c_int64)
    ] + [(name, ctypes.c_void_p) for name in ("turn", "classes", "rotated")] + [
        (name, ctypes.c_int64) for name in ("section", "loaded", "head", "tail", "coded", "emitted")
    ]


@dataclass(eq=False)
class Shell:
    """One shell's sweep, prepared by build_section and coded by code_section.

    The maps are C-contiguous (nx, ny) arrays: occ as uint8, zmin and zmax
    as int32. When encoding, cells holds the kernel's (column-major) slab
    index of each true point, grouped by section: section y's are
    cells[offsets[y] : offsets[y + 1]]. Entry i of cells is row order[i] of
    the points, and reached[i], uint8, becomes 1 once the sweep reconstructs
    it. buffers holds what the kernel codes in, or None when the Python loop
    runs.
    """

    pair: DepthmapPair
    dims: tuple[int, int, int]
    cells: np.ndarray | None
    offsets: np.ndarray | None
    order: np.ndarray | None
    reached: np.ndarray | None
    buffers: _ShellBuffers | None


class _ShellBuffers:
    """The kernel's Shell struct over buffers this object keeps alive.

    Two state slabs (known empty), one slab each of marks and true cells
    (zero), all column-major with stride nz + 2; a slab of work-list room, a
    section's occupied columns, the per-row counts of its start list, and
    room for the reconstructed points. The encoder emits no points, only the
    shell's reached flags, so it gets no room; the decoder's room starts at
    two seeds per occupied column and grow() doubles it as needed.
    """

    def __init__(self, shell: Shell) -> None:
        nx, ny, nz = shell.dims
        slab = (nz + 2) * (nx + 2)
        pair = shell.pair
        self.state = np.ones(2 * slab, dtype=np.uint8)
        self.marked = np.zeros(slab, dtype=np.uint8)
        self.truth = None if shell.cells is None else np.zeros(slab, dtype=np.uint8)
        self.fifo = np.empty(slab, dtype=np.int32)
        self.columns = np.empty(nx, dtype=np.int32)
        self.rows = np.zeros(nz + 2, dtype=np.int64)
        room = 0 if shell.cells is not None else 2 * np.count_nonzero(pair.occ) + 2 * nx + 1
        self.out = np.empty((room, 3), dtype=np.int64)
        self.tables = tables = get_norm_tables()
        cells = offsets = reached = None
        if shell.cells is not None:
            cells = shell.cells.ctypes.data
            offsets = shell.offsets.ctypes.data
            reached = shell.reached.ctypes.data
        self.struct = _Shell(
            pair.occ.ctypes.data, pair.zmin.ctypes.data, pair.zmax.ctypes.data, nx, ny, nz,
            cells, offsets, reached, self.state.ctypes.data, self.marked.ctypes.data,
            None if self.truth is None else self.truth.ctypes.data, self.fifo.ctypes.data,
            self.columns.ctypes.data, self.rows.ctypes.data, self.out.ctypes.data, len(self.out),
            tables.alpha_star.ctypes.data, tables.class_index.ctypes.data, tables.rotated_binary.ctypes.data)

    def grow(self) -> None:
        """Make sure the decoder's out has room for a section's seeds, two per column, keeping the points emitted."""
        sweep = self.struct
        emitted = sweep.emitted
        if sweep.room - emitted > 2 * sweep.nx:
            return
        room = max(2 * sweep.room, emitted + 2 * sweep.nx + 1)
        out = np.empty((room, 3), dtype=np.int64)
        out[:emitted] = self.out[:emitted]
        self.out = out
        sweep.out = out.ctypes.data
        sweep.room = room


def build_section(pair: DepthmapPair, dims, points: np.ndarray | None = None) -> Shell:
    """Prepare the sweep of one shell; code_section codes it.

    The maps are used in place when they already have the layout of Shell;
    a value that the coded types (uint8 occ, int32 zmin and zmax) cannot hold
    raises ValueError. The encoder passes the shell's (N, 3) points, which
    give each section's true occupancy: _group sorts them by section, stably,
    and the shell keeps that order to name the rows the sweep reached. A
    point outside the dims raises ValueError.
    """
    nx, ny, nz = dims
    pair = DepthmapPair(_exact(pair.occ, np.uint8), _exact(pair.zmin, np.int32), _exact(pair.zmax, np.int32))
    if not pair.occ.shape == pair.zmin.shape == pair.zmax.shape == (nx, ny):
        raise ValueError("depth maps do not match the dims")
    lib = native()
    cells = offsets = order = reached = None
    if points is not None:
        cells, offsets, order = _group(points, (nx, ny, nz), lib)
        reached = np.zeros(len(cells), dtype=np.uint8)
    shell = Shell(pair, (nx, ny, nz), cells, offsets, order, reached, None)
    if lib is not None:
        shell.buffers = _ShellBuffers(shell)
    return shell


def _group(points, dims, lib) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slab cells of (N, 3) points grouped by section; returns (cells, offsets, order).

    Section y's cells are cells[offsets[y] : offsets[y + 1]], and cells[j]
    is row order[j] of the points, in the stable order by y: the kernel's
    group_rows by a counting sort, numpy without it (lib None) by argsort. A
    point outside the dims raises ValueError.
    """
    nx, ny, nz = dims
    points = _rows(points)
    if lib is not None:
        n = len(points)
        cells = np.empty(n, dtype=np.int64)
        offsets = np.empty(ny + 1, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        check_status(lib.group_rows(points.ctypes.data, n, nx, ny, nz, offsets.ctypes.data, cells.ctypes.data,
                                    order.ctypes.data))
        return cells, offsets, order
    _check_inside(points, dims)
    # numpy sorts integers of 16 bits or fewer by radix when asked for a
    # stable sort.
    keys = points[:, 1].astype(np.min_scalar_type(ny))
    order = np.argsort(keys, kind="stable")
    cells = ((points[:, 0] + 1) * (nz + 2) + points[:, 2] + 1)[order]
    return cells, np.searchsorted(keys[order], np.arange(ny + 1)), order


def _leftovers(points, reached, lib) -> np.ndarray:
    """The rows of (N, 3) points that reached does not list, in their order.

    The kernel's leftover_rows copies them in one pass, numpy without it
    (lib None). A row index outside 0 .. N - 1 or listed twice raises
    ValueError.
    """
    points = _rows(points)
    reached = _exact(reached, np.int64)
    n, k = len(points), len(reached)
    if lib is not None:
        # More indices than rows must repeat one, which the kernel refuses
        # before it writes out.
        out = np.empty((max(n - k, 0), 3), dtype=np.int64)
        dropped = np.empty(n, dtype=np.uint8)
        check_status(lib.leftover_rows(points.ctypes.data, n, reached.ctypes.data, k, dropped.ctypes.data,
                                       out.ctypes.data))
        return out
    keep = np.ones(n, dtype=bool)
    if k and (reached.min() < 0 or reached.max() >= n):
        check_status(BAD_LAYOUT)
    keep[reached] = False
    if np.count_nonzero(keep) != n - k:
        check_status(BAD_LAYOUT)
    return points[keep]


def code_section(
    shell: Shell,
    tables: CountTables,
    *,
    encoder: RangeEncoder | None = None,
    decoder: RangeDecoder | None = None,
) -> tuple[np.ndarray, int]:
    """Code every section of a shell, in y order; returns (reached, decision count).

    Pass exactly one of encoder/decoder, built on tables; encoding needs a
    shell built with its points. Decoding, reached is the (N, 3)
    reconstructed points; encoding, it is the row indices of the points the
    sweep reconstructed, grouped by section. Tables of fewer than
    SECTION_CONTEXTS entries, or a coder on other tables, raise ValueError
    before anything is coded. A shell is coded once.
    """
    if (encoder is None) == (decoder is None):
        raise ValueError("pass exactly one of encoder or decoder")
    if encoder is not None and shell.cells is None:
        raise ValueError("encoding requires the shell's points")
    coder = encoder or decoder
    if coder.tables is not tables or len(tables.counts) < SECTION_CONTEXTS:
        raise ValueError("the coder must be built on tables that span every section context")
    buffers = shell.buffers
    if buffers is not None:
        sweep = buffers.struct
        if encoder is None:
            sweep.cells = None
            run(native().code_shell, coder, ctypes.byref(sweep), grow=buffers.grow)
            return buffers.out[: sweep.emitted], sweep.coded
        run(native().code_shell, coder, ctypes.byref(sweep))
        return shell.order[shell.reached.view(bool)], sweep.coded
    nx, ny, nz = shell.dims
    chunks = [np.empty((0, 3), dtype=np.int64)]
    coded = 0
    prev = None
    last = None
    for y in np.flatnonzero(shell.pair.occ.any(axis=0)).tolist():
        buf = _section_buffers(shell.pair, y, nz, prev if last == y - 1 else None)
        truth = None
        if encoder is not None:
            section = shell.cells[shell.offsets[y] : shell.offsets[y + 1]]
            truth = bytearray(len(buf.state))
            np.frombuffer(truth, dtype=np.uint8)[section] = 1
        coded += _code_buffers(buf, coder, truth)
        occupied = np.frombuffer(buf.state, dtype=np.uint8) == 2
        if encoder is not None:
            shell.reached[shell.offsets[y] : shell.offsets[y + 1]] = occupied[section]
        else:
            xs, zs = np.nonzero(occupied.reshape(nx + 2, nz + 2))
            chunks.append(np.column_stack((xs - 1, np.full(xs.size, y), zs - 1)))
        prev = occupied.tobytes()
        last = y
    if encoder is not None:
        return shell.order[shell.reached.view(bool)], coded
    return np.concatenate(chunks), coded


def sweep_encode(points: np.ndarray, pair: DepthmapPair, dims, tables: CountTables,
                 encoder: RangeEncoder) -> tuple[np.ndarray, int]:
    """Encode all sections with an encoder built on tables; returns (rows of points reached, decision count).

    The rows index points; the decoder reconstructs exactly those points.
    """
    return code_section(build_section(pair, dims, points), tables, encoder=encoder)


def sweep_decode(pair: DepthmapPair, dims, tables: CountTables,
                 decoder: RangeDecoder) -> tuple[np.ndarray, int]:
    """Decode all sections; mirrors sweep_encode decision for decision.

    Returns (reconstructed points, decision count).
    """
    return code_section(build_section(pair, dims), tables, decoder=decoder)


def encode_shells(cloud, max_shells: int) -> tuple[list[tuple[CodedStream, CodedStream]], np.ndarray]:
    """Encode up to max_shells surface+section passes over the cloud.

    Each pass reconstructs the points reachable from its own depth surfaces;
    the next pass runs on the rows its sweep did not reach, copied in their
    sorted order (_leftovers). Returns the per-shell payload pairs and the
    sorted points no shell reached. The section count table persists across
    shells.
    """
    dims = cloud.dims
    nz = dims[2]
    tables = count_tables(SECTION_CONTEXTS)
    remaining = cloud.to_array()
    shells: list[tuple[CodedStream, CodedStream]] = []
    while len(remaining) and len(shells) < max_shells:
        pair = project_array(remaining, dims)
        surface_stream = encode_depthmaps(pair, nz)
        encoder = RangeEncoder(tables)
        reached, _ = sweep_encode(remaining, pair, dims, tables, encoder)
        shells.append((surface_stream, encoder.finish()))
        remaining = _leftovers(remaining, reached, native())
    return shells, remaining


def decode_shells(shell_blobs: list[tuple[bytes, bytes]], dims) -> np.ndarray:
    """Decode every shell's payload pair; returns their points, shell after shell."""
    nx, ny, nz = dims
    tables = count_tables(SECTION_CONTEXTS)
    chunks = [np.empty((0, 3), dtype=np.int64)]
    for surface_blob, section_blob in shell_blobs:
        pair = decode_depthmaps(surface_blob, nx, ny, nz)
        recon, _ = sweep_decode(pair, dims, tables, RangeDecoder(section_blob, tables))
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
