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
the depth maps, read in place; the encoder's points, read in place in their
(x, y, z) order, with a cursor per column at its first point; and the
coding buffers. code_section then walks the sections in y order. Section y
codes in state slab y % 2 and reads the reconstruction of section y - 1
(state 2) from the other slab, which an empty section leaves blank. Loading
a section first clears the bands that section y - 2 left in its slab, then
writes its own bands and seeds, marks the encoder's true cells (the points
at each occupied column's cursor whose y is the section's) and lists the
unknown cells around the seeds (sorted row-major, deduplicated). Afterwards
the encoder flags each of those points whose cell the section's state holds
occupied as reached, one byte per point, clears the marks and true cells
and moves each cursor past its section's points. So the set-up follows the
occupied columns, their points and the coded cells, never a slab's area.
The encoder emits no points; the decoder's reconstructed points, each
section's seeds then its cells coded occupied, go to an output array as
they are found.

The loop runs in the native kernel (rangecoder.run), and so do the
encoder's two passes over a shell's rows: their projection
(depthmap.project_array) and the pass that checks them and sets the
cursors (_column_starts). The rows the sweep left go to the next shell in
one numpy compress. tests/oracles.py holds a set-based Python reference of
the same sweep.

Slabs are flat byte buffers with a one-cell border ring so the 3x3 crops
never bounds-check; border cells read as known empty and never enter the
list. The layout is column-major: cell (z, x) sits at
(x + 1) * (nz + 2) + z + 1. Each band is contiguous, so the kernel writes
or clears it with one memset.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .contexts import UNKNOWN_CENTER_CLASSES, get_norm_tables
from .depthmap import (
    DepthmapPair,
    _exact,
    _rows,
    decode_depthmaps,
    encode_depthmaps,
    project_array,
)
from .errors import BitstreamError, TruncatedStreamError
from .rangecoder import (
    CodedStream,
    CountTables,
    RangeDecoder,
    RangeEncoder,
    check_status,
    count_tables,
    native,
    run,
)

# Every context label: class * 512 + rotated binary patch.
SECTION_CONTEXTS = UNKNOWN_CENTER_CLASSES * 512


class _Shell(ctypes.Structure):
    """Shell in _kernel.c."""

    _fields_ = [(name, ctypes.c_void_p) for name in ("occ", "zmin", "zmax")] + [
        (name, ctypes.c_int64) for name in ("nx", "ny", "nz")
    ] + [("points", ctypes.c_void_p), ("n", ctypes.c_int64)] + [(name, ctypes.c_void_p) for name in (
        "next", "reached", "state", "marked", "truth", "fifo", "columns", "rows", "out")] + [
        ("room", ctypes.c_int64)
    ] + [(name, ctypes.c_void_p) for name in ("turn", "classes", "rotated")] + [
        (name, ctypes.c_int64) for name in ("section", "loaded", "head", "tail", "coded", "emitted", "open")
    ]


def _address(a: np.ndarray | None) -> int | None:
    return None if a is None else a.ctypes.data


class Shell:
    """One shell's sweep, prepared by build_section and coded by code_section.

    The maps of pair are C-contiguous (nx, ny) arrays: occ as uint8, zmin
    and zmax as int32. When encoding, points holds the shell's (N, 3) rows
    and next[x] the cursor of column x, which starts at the column's first
    row (_column_starts) and passes each section's rows once the sweep has
    flagged them: reached[i], uint8, becomes 1 once it reconstructs row i.

    struct is the kernel's Shell over buffers the shell keeps alive: two
    state slabs (known empty), one slab each of marks and true cells (zero),
    all column-major with stride nz + 2; a slab of work-list room, a
    section's occupied columns, the per-row counts of its start list, and
    room for the reconstructed points. The encoder emits no points, only
    reached flags, so it gets no room; the decoder's room starts at two seeds
    per occupied column and grow() doubles it as needed.
    """

    def __init__(self, pair: DepthmapPair, dims, points: np.ndarray | None = None,
                 starts: np.ndarray | None = None) -> None:
        nx, ny, nz = dims
        slab = (nz + 2) * (nx + 2)
        encoding = points is not None
        self.pair, self.points, self.next = pair, points, starts
        self.reached = np.zeros(len(points), dtype=np.uint8) if encoding else None
        self.state = np.ones(2 * slab, dtype=np.uint8)
        self.marked = np.zeros(slab, dtype=np.uint8)
        self.truth = np.zeros(slab, dtype=np.uint8) if encoding else None
        self.fifo = np.empty(slab, dtype=np.int32)
        self.columns = np.empty(nx, dtype=np.int32)
        self.rows = np.zeros(nz + 2, dtype=np.int64)
        room = 0 if encoding else 2 * np.count_nonzero(pair.occ) + 2 * nx + 1
        self.out = np.empty((room, 3), dtype=np.int64)
        self.tables = tables = get_norm_tables()
        self.struct = _Shell(
            pair.occ.ctypes.data, pair.zmin.ctypes.data, pair.zmax.ctypes.data, nx, ny, nz,
            _address(points), len(points) if encoding else 0, _address(starts), _address(self.reached),
            self.state.ctypes.data, self.marked.ctypes.data, _address(self.truth), self.fifo.ctypes.data,
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
    give each section's true occupancy, strictly increasing in (x, y, z) and
    each in the band of an occupied pixel, as are the points that the maps
    were projected from; any other point raises ValueError (_column_starts).
    """
    nx, ny, nz = dims
    pair = DepthmapPair(_exact(pair.occ, np.uint8), _exact(pair.zmin, np.int32), _exact(pair.zmax, np.int32))
    if not pair.occ.shape == pair.zmin.shape == pair.zmax.shape == (nx, ny):
        raise ValueError("depth maps do not match the dims")
    if points is None:
        return Shell(pair, (nx, ny, nz))
    points = _rows(points)
    return Shell(pair, (nx, ny, nz), points, _column_starts(points, pair, (nx, ny, nz)))


def _column_starts(points, pair: DepthmapPair, dims) -> np.ndarray:
    """The first row of each column of (N, 3) points: entry x is the first row whose x is x or more.

    The kernel's column_starts takes them in one pass over the rows, which
    refuses, with ValueError, a point outside the dims, one not above the
    point before, or one outside the band of an occupied pixel of pair,
    whose maps must have the layout of Shell.
    """
    nx, ny, nz = dims
    points = _rows(points)
    starts = np.empty(nx, dtype=np.int64)
    check_status(native().column_starts(points.ctypes.data, len(points), nx, ny, nz, pair.occ.ctypes.data,
                                        pair.zmin.ctypes.data, pair.zmax.ctypes.data, starts.ctypes.data))
    return starts


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
    sweep reconstructed, in increasing order. Tables of fewer than
    SECTION_CONTEXTS entries, or a coder on other tables, raise ValueError
    before anything is coded. A shell is coded once.
    """
    if (encoder is None) == (decoder is None):
        raise ValueError("pass exactly one of encoder or decoder")
    if encoder is not None and shell.points is None:
        raise ValueError("encoding requires the shell's points")
    coder = encoder or decoder
    if coder.tables is not tables or len(tables.counts) < SECTION_CONTEXTS:
        raise ValueError("the coder must be built on tables that span every section context")
    sweep = shell.struct
    if encoder is None:
        sweep.points = None
        run(native().code_shell, coder, ctypes.byref(sweep), grow=shell.grow)
        return shell.out[: sweep.emitted], sweep.coded
    run(native().code_shell, coder, ctypes.byref(sweep))
    return np.flatnonzero(shell.reached), sweep.coded


def sweep_encode(points: np.ndarray, pair: DepthmapPair, dims, tables: CountTables,
                 encoder: RangeEncoder) -> tuple[np.ndarray, int]:
    """Encode all sections with an encoder built on tables; returns (rows of points reached, decision count).

    The rows index points, in increasing order; the decoder reconstructs
    exactly those points.
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
    sorted order. Returns the per-shell payload pairs and the sorted points
    no shell reached. The section count table persists across shells.
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
        keep = np.ones(len(remaining), dtype=bool)
        keep[reached] = False
        remaining = remaining.compress(keep, axis=0)
    return shells, remaining


def decode_shells(shell_blobs: list[tuple[bytes, bytes]], dims) -> list[np.ndarray]:
    """Decode every shell's payload pair; returns each shell's (N, 3) points, shell after shell."""
    nx, ny, nz = dims
    tables = count_tables(SECTION_CONTEXTS)
    shells = []
    for surface_blob, section_blob in shell_blobs:
        pair = decode_depthmaps(surface_blob, nx, ny, nz)
        shells.append(sweep_decode(pair, dims, tables, RangeDecoder(section_blob, tables))[0])
    return shells


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
