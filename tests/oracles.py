"""Independent reference implementations used as test oracles."""

from __future__ import annotations

import functools
import math
from collections import deque

import numpy as np

from bvlcodec.contexts import get_norm_tables
from bvlcodec.depthmap import project_array
from bvlcodec.rangecoder import FIRST_USE, RESCALE_LIMIT, CodedStream, RangeDecoder, RangeEncoder, count_tables
from bvlcodec.sections import SECTION_CONTEXTS, sweep_decode, sweep_encode

_FULL = 1 << 32
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_THREE_QUARTER = _HALF + _QUARTER
_POW2 = 2 ** np.arange(9, dtype=np.int64)
_POW3 = 3 ** np.arange(9, dtype=np.int64)
# Anti-diagonal scan used by the rotation score: cells near (0, 0) first.
_SCORE_CELLS = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2))
_SCORE_DIGITS = np.array([i + 3 * j for i, j in _SCORE_CELLS])


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def reference_encode(contexts, bits, tables) -> CodedStream:
    """The range coder in plain Python: each bit coded under its context, in order, then the stream finished.

    The reference for the kernel's coder, written apart from it: 32-bit
    interval registers, pending-bit carry resolution, and the count update of
    rangecoder (FIRST_USE for a zero entry, halving at RESCALE_LIMIT) on the
    tables' counts, in place. A nonzero bit codes a 1.
    """
    low, high, pending = 0, _FULL - 1, 0
    out = bytearray()
    append = out.append
    counts = tables.counts
    for ctx, bit in zip(contexts, bits, strict=True):
        entry = counts[ctx] or FIRST_USE
        c0, c1 = entry & 0xFFFF, entry >> 16
        total = c0 + c1
        split = low + c0 * (high - low + 1) // total
        if bit:
            low = split
            c1 += 1
        else:
            high = split - 1
            c0 += 1
        while True:
            if high < _HALF:
                append(0)
                if pending:
                    out += b"\x01" * pending
                    pending = 0
            elif low >= _HALF:
                append(1)
                if pending:
                    out += bytes(pending)
                    pending = 0
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTER:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
        if total >= RESCALE_LIMIT:
            c0 = (c0 + 1) >> 1
            c1 = (c1 + 1) >> 1
        counts[ctx] = c0 | c1 << 16
    # One more bit, followed by its pending inversions, pins a value inside
    # the final interval; the byte padding after it is zeros.
    bit = 0 if low < _QUARTER else 1
    out.append(bit)
    out += bytes([bit ^ 1]) * (pending + 1)
    return CodedStream(np.packbits(np.frombuffer(out, dtype=np.uint8)).tobytes(), len(out))


def brute_force_depthmaps(points, dims):
    """Per-pixel z extrema via a plain dict scan over the point list."""
    lo: dict = {}
    hi: dict = {}
    for x, y, z in points:
        key = (x, y)
        if key not in lo or z < lo[key]:
            lo[key] = z
        if key not in hi or z > hi[key]:
            hi[key] = z
    return lo, hi


def section_flood_fill(nz, nx, columns, true_cells):
    """Reference coding-front for one section, as plain set arithmetic.

    columns maps x to that column's (low, high) depth pair; true_cells is the
    set of occupied (z, x) cells. Returns (coded cells in coding order,
    reconstructed occupied cells). A cell gets coded when it is feasible, not
    a seed, and either belongs to the dilation of the seed set or 8-neighbors
    a coded occupied cell. Cells are coded first in, first out: the dilation
    in row-major order, then each cell coded occupied appends its neighbours
    z-major, from (z - 1, x - 1) to (z + 1, x + 1).
    """
    seeds = set()
    for x, (lo, hi) in columns.items():
        seeds.add((lo, x))
        seeds.add((hi, x))

    def unknown(cell):
        # Feasible and not a seed: strictly inside its column's band.
        z, x = cell
        return x in columns and columns[x][0] < z < columns[x][1]

    neighborhood = [(dz, dx) for dz in (-1, 0, 1) for dx in (-1, 0, 1)]
    start = set()
    for z, x in seeds:
        for dz, dx in neighborhood:
            c = (z + dz, x + dx)
            if 0 <= c[0] < nz and 0 <= c[1] < nx:
                start.add(c)
    queue = deque(sorted(start))
    enqueued = set(queue)
    coded = set()
    order = []
    occupied = set(seeds)
    while queue:
        cell = queue.popleft()
        if cell in coded or not unknown(cell):
            continue
        coded.add(cell)
        order.append(cell)
        if cell in true_cells:
            occupied.add(cell)
            z, x = cell
            for dz, dx in neighborhood:
                if dz == 0 and dx == 0:
                    continue
                c = (z + dz, x + dx)
                if (
                    0 <= c[0] < nz
                    and 0 <= c[1] < nx
                    and unknown(c)
                    and c not in coded
                    and c not in enqueued
                ):
                    enqueued.add(c)
                    queue.append(c)
    return order, occupied


def flood_fill_labels(columns, true_cells, order, previous) -> list[int]:
    """The context label of each cell of order, coded in that order.

    order is section_flood_fill's; previous is the set of (z, x) cells
    occupied in the section before. A cell's ternary patch reads the section
    as it stands when the cell is coded: seeds occupied, cells coded before
    it as coded, the rest of the bands unknown and everything else known
    empty. The label is class * 512 + the co-rotated binary patch of previous.
    """
    state = {}
    for x, (lo, hi) in columns.items():
        state.update({(z, x): 0 for z in range(lo + 1, hi)})
        state[lo, x] = state[hi, x] = 2
    steps = (-1, 0, 1)
    labels = []
    for z, x in order:
        current = tuple(tuple(state.get((z + dz, x + dx), 1) for dx in steps) for dz in steps)
        before = tuple(tuple(int((z + dz, x + dx) in previous) for dx in steps) for dz in steps)
        labels.append(_label(current, before))
        state[z, x] = 2 if (z, x) in true_cells else 1
    return labels


@functools.cache
def _label(current, before) -> int:
    """The label of a ternary patch and the binary patch of the section before, as nested tuples."""
    tables = get_norm_tables()
    canonical, binary = normalized_context(current, before, tables)
    return int(tables.class_index[canonical]) * 512 + binary


def encode_section_decisions(labels, bits):
    """(stream, tables): the (label, bit) decisions coded on fresh section tables."""
    tables = count_tables(SECTION_CONTEXTS)
    return reference_encode(labels, bits, tables), tables


def rotation_orbit_count() -> int:
    """Burnside count of ternary 3x3 patches modulo quarter turns."""
    # identity fixes 3^9; the half turn fixes 3^5 (center + 4 cell pairs);
    # each quarter turn fixes 3^3 (center + 2 cell 4-cycles).
    return (3**9 + 3**5 + 2 * 3**3) // 4


def raw_octree_bits(points, depth: int) -> int:
    """Bits for a plain breadth-first octree occupancy coding.

    Every occupied node above the leaf level emits 8 child-occupancy bits,
    uncompressed. Serves as an independent reference rate.
    """
    total = 0
    for shift in range(depth, 0, -1):
        nodes = {(x >> shift, y >> shift, z >> shift) for x, y, z in points}
        total += 8 * len(nodes)
    return total


def ternary_index(patch) -> int:
    """Bijective base-3 column-scan index of a {0,1,2} 3x3 patch."""
    a = np.asarray(patch, dtype=np.int64)
    return int(a.ravel(order="F") @ _POW3)


def binary_index(patch) -> int:
    """Bijective base-2 column-scan index of a {0,1} 3x3 patch."""
    a = np.asarray(patch, dtype=np.int64)
    return int(a.ravel(order="F") @ _POW2)


def rotation_score(patch) -> int:
    """Injective score ranking the four rotations of a ternary patch.

    Base-3 expansion over a fixed anti-diagonal cell order; distinct patches
    always get distinct scores, so ties only happen between identical
    rotations.
    """
    a = np.asarray(patch, dtype=np.int64)
    return int(a.ravel(order="F")[_SCORE_DIGITS] @ _POW3)


def rot90(patch, turns: int) -> np.ndarray:
    """Rotate a 3x3 patch by quarter turns, counterclockwise in (z, x)."""
    return np.rot90(np.asarray(patch), turns % 4)


def normalized_context(current_patch, previous_patch, tables) -> tuple[int, int]:
    """Context label: canonical ternary index plus co-rotated binary index."""
    ia = ternary_index(current_patch)
    turns = int(tables.alpha_star[ia])
    return int(tables.i_star[ia]), binary_index(rot90(previous_patch, turns))


def flood_fill_shell(nz, nx, sections):
    """The flood-fill oracle over sections y = 0, 1, ... of a shell: (labels, bits, reconstructed points).

    sections lists each section's (columns, true_cells) as section_flood_fill
    takes them. Each section's previous is the reconstruction of the section
    before, which is empty when that section has no column. The
    reconstruction is a set of (x, y, z) points.
    """
    labels, bits, reconstructed = [], [], set()
    previous = set()
    for y, (columns, true_cells) in enumerate(sections):
        order, occupied = section_flood_fill(nz, nx, columns, true_cells)
        labels += flood_fill_labels(columns, true_cells, order, previous)
        bits += [int(cell in true_cells) for cell in order]
        reconstructed.update((x, y, z) for z, x in occupied)
        previous = occupied
    return labels, bits, reconstructed


def reference_sweep(points, pair, dims, tables):
    """One shell's sweep by flood_fill_shell: (stream, decisions, reconstructed points).

    The sections come from the maps and the (N, 3) points; every (label,
    bit) pair is coded on tables, which carry their counts from shell to
    shell as the codec's do.
    """
    nx, ny, nz = dims
    true_cells = [set() for _ in range(ny)]
    for x, y, z in np.asarray(points).tolist():
        true_cells[y].add((z, x))
    sections = [({x: (int(pair.zmin[x, y]), int(pair.zmax[x, y])) for x in np.flatnonzero(pair.occ[:, y]).tolist()},
                 true_cells[y]) for y in range(ny)]
    labels, bits, reconstructed = flood_fill_shell(nz, nx, sections)
    return reference_encode(labels, bits, tables), len(labels), reconstructed


def drop_by_key(points, dropped, dims) -> np.ndarray:
    """The rows of sorted, distinct (N, 3) points whose keys the (M, 3) dropped points do not hold.

    The points are sorted, so their keys are, and sorted needles make
    searchsorted walk forward.
    """
    keep = np.ones(len(points), dtype=bool)
    keys = np.ravel_multi_index(np.asarray(points).T, dims)
    keep[np.searchsorted(keys, np.sort(np.ravel_multi_index(np.asarray(dropped).reshape(-1, 3).T, dims)))] = False
    return points[keep]


def reference_leftovers(cloud, max_shells: int) -> np.ndarray:
    """The sorted points that up to max_shells shells leave to the residual, found by key.

    Each shell decodes its own section stream, and the points whose keys
    its reconstruction holds are dropped (drop_by_key).
    """
    dims = cloud.dims
    enc_tables = count_tables(SECTION_CONTEXTS)
    dec_tables = count_tables(SECTION_CONTEXTS)
    remaining = cloud.to_array()
    for _ in range(max_shells):
        if not len(remaining):
            break
        pair = project_array(remaining, dims)
        encoder = RangeEncoder(enc_tables)
        sweep_encode(remaining, pair, dims, enc_tables, encoder)
        recon, _ = sweep_decode(pair, dims, dec_tables, RangeDecoder(encoder.finish().data, dec_tables))
        remaining = drop_by_key(remaining, recon, dims)
    return remaining


def reference_build_section(pair, y0: int, nz: int):
    """Full-array section set-up: (state, marked, queue) for section y0.

    Fills the whole padded (nz + 2) x (nx + 2) section, indexed (z, x),
    dilates the seed bitmap with a 9-way OR and keeps its unknown cells as
    the work list, in row-major order; marked holds exactly the listed cells.
    The slabs and the list's cell indices are column-major: cell (z, x) at
    (x + 1) * (nz + 2) + z + 1.
    """
    occ_col = pair.occ[:, y0]
    nx = occ_col.shape[0]
    state = np.ones((nz + 2, nx + 2), dtype=np.uint8)
    seeds = np.zeros((nz + 2, nx + 2), dtype=np.uint8)
    xs = np.flatnonzero(occ_col)
    if xs.size:
        lo = pair.zmin[xs, y0].astype(np.int64)
        hi = pair.zmax[xs, y0].astype(np.int64)
        for x, a, b in zip(xs.tolist(), lo.tolist(), hi.tolist()):
            state[a + 1 : b + 2, x + 1] = 0
        state[lo + 1, xs + 1] = 2
        state[hi + 1, xs + 1] = 2
        seeds[lo + 1, xs + 1] = 1
        seeds[hi + 1, xs + 1] = 1
    dilated = np.zeros_like(seeds)
    dilated[1:-1, 1:-1] = (
        seeds[:-2, :-2] | seeds[:-2, 1:-1] | seeds[:-2, 2:]
        | seeds[1:-1, :-2] | seeds[1:-1, 1:-1] | seeds[1:-1, 2:]
        | seeds[2:, :-2] | seeds[2:, 1:-1] | seeds[2:, 2:]
    )
    listed = dilated & (state == 0)
    zs, xs = np.nonzero(listed)
    queue = (xs * (nz + 2) + zs).tolist()
    return bytearray(state.tobytes(order="F")), bytearray(listed.tobytes(order="F")), queue


def slab_cells(mask, stride: int) -> set[tuple[int, int]]:
    """(z, x) cells set in a flat column-major padded slab of the given stride."""
    xs, zs = np.nonzero(np.asarray(mask).reshape(-1, stride))
    return set(zip((zs - 1).tolist(), (xs - 1).tolist()))


def table_bytes(tables) -> bytes:
    """The count table of a CountTables, as bytes."""
    return bytes(tables.counts)


_MASK_TEMPLATE = (
    (-2, -1), (-2, 0), (-2, 1),
    (-1, -2), (-1, -1), (-1, 0), (-1, 1), (-1, 2),
    (0, -2), (0, -1),
)


def _reference_signed_bins(base: int, value: int):
    """(context, bit) pairs of one zigzag order-0 exp-Golomb residual."""
    u = (value << 1) if value >= 0 else ((-value) << 1) - 1
    n = (u + 1).bit_length() - 1
    out = [(base + min(k, 15), 0) for k in range(n)]
    out.append((base + min(n, 15), 1))
    out += [(base + 16 + min(i, 15), ((u + 1) >> i) & 1) for i in range(n - 1, -1, -1)]
    return out


def _reference_predict_low(occ, low, x, y, previous, nz):
    cands = []
    if y and occ[x][y - 1]:
        cands.append(low[x][y - 1])
    if x:
        if occ[x - 1][y]:
            cands.append(low[x - 1][y])
        if y and occ[x - 1][y - 1]:
            cands.append(low[x - 1][y - 1])
    k = len(cands)
    if k == 3:
        return sorted(cands)[1]
    if k == 2:
        return (cands[0] + cands[1]) // 2
    if k == 1:
        return cands[0]
    return previous if previous is not None else nz // 2


def reference_depthmap_decisions(pair, nz: int) -> list[tuple[int, int]]:
    """Every (context, bit) pair of encode_depthmaps's stream, pixel by pixel.

    Builds each mask context with bounds checks, predicts each surface value
    from its neighbours (nested lists, one pixel at a time) and binarizes each
    residual on its own. The 1024 mask contexts come first, then 32
    low-surface and 32 thickness contexts.
    """
    occ, low, high = (a.tolist() for a in (pair.occ, pair.zmin, pair.zmax))
    nx, ny = pair.occ.shape
    decisions = []
    for x in range(nx):
        for y in range(ny):
            ctx = 0
            for k, (dx, dy) in enumerate(_MASK_TEMPLATE):
                if 0 <= x + dx and 0 <= y + dy < ny and occ[x + dx][y + dy]:
                    ctx |= 1 << k
            decisions.append((ctx, occ[x][y]))
    prev_low = None
    prev_thick = 0
    for x, y in zip(*(a.tolist() for a in np.nonzero(pair.occ))):
        v = low[x][y]
        predicted = _reference_predict_low(occ, low, x, y, prev_low, nz)
        decisions += _reference_signed_bins(1024, v - predicted)
        t = high[x][y] - v
        if y and occ[x][y - 1]:
            predicted = high[x][y - 1] - low[x][y - 1]
        else:
            predicted = prev_thick
        decisions += _reference_signed_bins(1024 + 32, t - predicted)
        prev_low = v
        prev_thick = t
    return decisions


def reference_encode_depthmaps(pair, nz: int):
    """Pixel-by-pixel surface encoder: the same stream as encode_depthmaps.

    Codes the whole sequence of reference_depthmap_decisions at once.
    """
    decisions = reference_depthmap_decisions(pair, nz)
    return reference_encode([c for c, _ in decisions], [b for _, b in decisions], count_tables(1024 + 2 * 32))
