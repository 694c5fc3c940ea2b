"""The native kernel against the Python oracles of tests/oracles.py.

The kernel is the codec's only path, so these tests run it on the inputs
where it is likeliest to go wrong: the fuzz suite in every axis order, thin
dims, encoding calls that stop for room, and corrupt or malformed input.
The loop that orders every cloud's rows is checked against np.unique, in
every memory layout and radix pass count.
"""

import ctypes
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from bvlcodec import CodecError, container, decode_cloud, depthmap, encode_cloud, rangecoder, sections
from bvlcodec.cloud import PERMUTATION_COUNT, AxisPermutation, VoxelCloud
from bvlcodec.depthmap import DepthmapPair, project_array
from bvlcodec.rangecoder import RangeDecoder, RangeEncoder, count_tables
from bvlcodec.sections import SECTION_CONTEXTS, build_section, code_section, sweep_decode, sweep_encode

import shapes
from oracles import (
    brute_force_depthmaps,
    drop_by_key,
    reference_encode_depthmaps,
    reference_sweep,
    table_bytes,
)


@pytest.fixture
def kernel():
    return rangecoder.native()


def test_corrupt_containers_end_in_a_codec_error_or_a_cloud():
    # Two concentric sphere shells: both shells code sections, and flips land
    # in the header, the length table and every payload.
    cloud = shapes.nested_hollow_spheres(24, (10, 5))
    blob, report = encode_cloud(cloud, permutation=0)
    assert report.shells == 2
    rng = np.random.default_rng(10)
    errors = 0
    for k in range(300):
        data = bytearray(blob)
        data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        try:
            assert isinstance(decode_cloud(bytes(data)), VoxelCloud), f"case {k}"
        except CodecError:
            errors += 1
    # Most flips are caught, some decode to a cloud.
    assert 0 < errors < 300


def _reference_container(cloud, permutation):
    """encode_cloud's container for one permutation and two shells, from the oracles.

    Each shell's maps come from brute_force_depthmaps and code by
    reference_encode_depthmaps; its sections code by reference_sweep, on
    tables carried across shells, and the next shell takes the points the
    oracle did not reconstruct. The residual and the header are the codec's.
    """
    permuted = AxisPermutation(permutation).apply(cloud)
    dims = permuted.dims
    tables = count_tables(SECTION_CONTEXTS)
    remaining = permuted.to_array()
    shells = []
    while len(remaining) and len(shells) < 2:
        pair = _reference_pair(remaining, dims)
        section_stream, _, reconstructed = reference_sweep(remaining, pair, dims, tables)
        shells.append((reference_encode_depthmaps(pair, dims[2]), section_stream))
        remaining = drop_by_key(remaining, sorted(reconstructed), dims)
    return container._assemble(permutation, dims, shells, sections.encode_residual(remaining, dims))


def test_containers_are_byte_identical_on_both_paths():
    # The codec's path, in the kernel, and the oracles' path, in Python.
    for k, (name, cloud) in enumerate(shapes.fuzz_suite()):
        assert encode_cloud(cloud, permutation=k % 6)[0] == _reference_container(cloud, k % 6), name


def _decode_zeros(shell):
    tables = count_tables(SECTION_CONTEXTS)
    return code_section(shell, tables, decoder=RangeDecoder(bytes(8), tables))


def _decode_shell(pair, nz):
    return _decode_zeros(build_section(pair, (pair.occ.shape[0], pair.occ.shape[1], nz)))


def _column_pair(*columns):
    """Maps of one column per section: each entry is (occ, zmin, zmax)."""
    occ, zmin, zmax = (np.array([[c[k] for c in columns]], dtype) for k, dtype in
                       enumerate((np.uint8, np.int32, np.int32)))
    return DepthmapPair(occ, zmin, zmax)


def test_kernel_refuses_section_buffers_that_break_their_layout(kernel):
    # State bytes above 2 would index outside the context tables, and an
    # unknown border ring would list cells whose 3x3 crops leave the slab.
    pair = DepthmapPair(np.ones((4, 1), np.uint8), np.zeros((4, 1), np.int32), np.full((4, 1), 5, np.int32))
    for fill in (7, 0):
        shell = build_section(pair, (4, 1, 6))
        shell.state[:] = fill
        with pytest.raises(ValueError, match="layout"):
            _decode_zeros(shell)


# Each malformed column follows a valid section, so the kernel has coded
# before it meets it; a band far past nz would write outside the slabs.
@pytest.mark.parametrize("column", [(1, 4, 3), (1, 2, 6), (1, 2, 1 << 30), (2, 1, 3)],
                         ids=["zmin-above-zmax", "zmax-at-nz", "zmax-far-past-nz", "occ-byte-2"])
def test_kernel_refuses_a_malformed_column(kernel, column):
    with pytest.raises(ValueError, match="layout"):
        _decode_shell(_column_pair((1, 0, 5), column), 6)


def test_kernel_accepts_the_valid_column_the_malformed_ones_spoil(kernel):
    _, decisions = _decode_shell(_column_pair((1, 0, 5), (1, 2, 5)), 6)
    assert decisions > 0


def test_kernel_refuses_a_label_past_the_coders_tables(kernel):
    # code_section refuses such tables before the kernel runs; called
    # directly, the kernel's own bound check refuses the first label.
    short = count_tables(1)
    shell = build_section(_column_pair((1, 0, 5)), (1, 1, 6))
    with pytest.raises(ValueError, match="layout"):
        rangecoder.run(kernel.code_shell, RangeDecoder(bytes(8), short), ctypes.byref(shell.struct), grow=shell.grow)
    assert bytes(short.counts) == bytes(4)


def _point_set(points):
    return set(map(tuple, np.asarray(points).tolist()))


def _assert_sweeps_match_the_oracle(cloud, name=""):
    """Code up to two shells of cloud on the kernel and on reference_sweep; returns the kernel's decisions.

    Per shell, the section bytes and decision counts are equal, and the
    encoder's reached rows, in increasing order, are the decoder's and the
    oracle's reconstruction; the leftovers are the rows the oracle did not
    reconstruct. The tables carry their counts from shell to shell, so the
    last shell's hold every shell's updates, and are equal on all three
    sides.
    """
    dims = cloud.dims
    enc_tables, dec_tables, oracle_tables = (count_tables(SECTION_CONTEXTS) for _ in range(3))
    remaining = cloud.to_array()
    decisions = 0
    for _ in range(2):
        if not len(remaining):
            break
        pair = project_array(remaining, dims)
        enc = RangeEncoder(enc_tables)
        reached, n = sweep_encode(remaining, pair, dims, enc_tables, enc)
        stream = enc.finish()
        recon, dec_n = sweep_decode(pair, dims, dec_tables, RangeDecoder(stream.data, dec_tables))
        oracle_stream, oracle_n, oracle_points = reference_sweep(remaining, pair, dims, oracle_tables)
        assert stream == oracle_stream and n == dec_n == oracle_n, name
        rows = _point_set(remaining[reached])
        assert (np.diff(reached) > 0).all() and len(reached) == len(recon), name
        assert rows == _point_set(recon) == oracle_points, name
        expected = drop_by_key(remaining, sorted(oracle_points), dims)
        remaining = np.delete(remaining, reached, axis=0)
        assert np.array_equal(remaining, expected), name
        decisions += n
    assert table_bytes(enc_tables) == table_bytes(dec_tables) == table_bytes(oracle_tables), name
    return decisions


def test_kernel_and_python_sweeps_agree_on_fuzz_suite_in_every_permutation():
    for name, cloud in shapes.fuzz_suite():
        for pid in range(PERMUTATION_COUNT):
            _assert_sweeps_match_the_oracle(AxisPermutation(pid).apply(cloud), f"{name}, permutation {pid}")
    # A solid sphere's shell makes more decisions than any fuzz-suite shell.
    assert _assert_sweeps_match_the_oracle(shapes.solid_sphere(48, 20)) > 2 * (1 << 14)


def test_kernel_and_python_sweeps_agree_when_kernel_calls_resume(kernel, monkeypatch):
    # Room for 7 bits at first: the kernel's encoding calls resume inside and
    # across sections; section 3 of each cloud is empty.
    monkeypatch.setattr(rangecoder, "_BITS_ROOM", 7)
    stops = []

    def code_shell(state, shell):
        status = kernel.code_shell(state, shell)
        if status == rangecoder.NEED_ROOM and shell._obj.points:
            stops.append((shell._obj.section, shell._obj.head))
        return status

    # The shell's row pass runs in the kernel as it is.
    monkeypatch.setattr(sections, "native", lambda: SimpleNamespace(code_shell=code_shell,
                                                                    column_starts=kernel.column_starts))
    rng = np.random.default_rng(79)
    for _ in range(4):
        points = []
        for y in (y for y in range(12) if y != 3):
            for x in range(8):
                lo, hi = sorted(rng.integers(0, 8, size=2).tolist())
                points += [(x, y, z) for z in range(lo, hi + 1) if z in (lo, hi) or rng.random() < 0.7]
        assert _assert_sweeps_match_the_oracle(VoxelCloud((8, 12, 8), points)) > 3 * 7
    assert any(head for _, head in stops) and len({section for section, _ in stops}) > 1


def test_encoder_room_for_points_never_grows(kernel, monkeypatch):
    # The encoder emits no points, so it has no room to grow; the decoder of
    # a solid starts at two seeds per column and has to grow.
    grown = []
    grow = sections.Shell.grow

    def recording_grow(self):
        room = self.struct.room
        grow(self)
        if self.struct.room != room:
            grown.append(self.struct.room)

    monkeypatch.setattr(sections.Shell, "grow", recording_grow)
    blob, _ = encode_cloud(shapes.solid_sphere(24, 10), permutation=0)
    assert not grown
    decode_cloud(blob)
    assert grown


_THIN_DIMS = pytest.mark.parametrize(
    "dims", [(1, 1, 1), (1, 9, 40), (40, 9, 1), (2, 5, 33), (33, 5, 2), (3, 1, 17), (17, 4, 3)],
    ids=lambda dims: "x".join(map(str, dims)))


def _thin_clouds(dims):
    """A cloud in every order of the dims.

    The first and last columns of each section hold full-depth bands, 0 ..
    nz - 1, so bands meet the slab's border ring at both ends; the other
    cells are filled at random.
    """
    rng = np.random.default_rng(sum(dims))
    clouds = []
    for nx, ny, nz in itertools.permutations(dims):
        points = [(x, y, z) for x in {0, nx - 1} for y in range(ny) for z in {0, nz - 1}]
        points += np.argwhere(rng.random((nx, ny, nz)) < 0.4).tolist()
        clouds.append(VoxelCloud((nx, ny, nz), points))
    return clouds


@_THIN_DIMS
def test_kernel_and_python_sweeps_agree_on_thin_dims(dims):
    for cloud in _thin_clouds(dims):
        _assert_sweeps_match_the_oracle(cloud, f"dims {cloud.dims}")


def _row_passes(points, dims):
    """The projection's maps and each column's first row, in the kernel."""
    pair = project_array(points, dims)
    return [pair.occ, pair.zmin, pair.zmax, sections._column_starts(points, pair, dims)]


def _reference_pair(points, dims) -> DepthmapPair:
    """project_array's maps from brute_force_depthmaps."""
    nx, ny, _ = dims
    occ = np.zeros((nx, ny), np.uint8)
    zmin = np.zeros((nx, ny), np.int32)
    zmax = np.zeros((nx, ny), np.int32)
    lo, hi = brute_force_depthmaps(points.tolist(), dims)
    for (x, y), z in lo.items():
        occ[x, y] = 1
        zmin[x, y] = z
        zmax[x, y] = hi[x, y]
    return DepthmapPair(occ, zmin, zmax)


def _reference_row_passes(points, dims):
    """_row_passes from brute_force_depthmaps and a binary search of the rows' x."""
    pair = _reference_pair(points, dims)
    return [pair.occ, pair.zmin, pair.zmax, np.searchsorted(points[:, 0], np.arange(dims[0]))]


def _assert_row_passes_match_the_oracles(clouds):
    for k, cloud in enumerate(clouds):
        points = cloud.to_array()
        for a, b in zip(_row_passes(points, cloud.dims), _reference_row_passes(points, cloud.dims), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f"cloud {k}"


def test_kernel_and_numpy_row_passes_agree_on_fuzz_suite_in_every_permutation():
    _assert_row_passes_match_the_oracles([AxisPermutation(pid).apply(cloud) for _, cloud in shapes.fuzz_suite()
                                          for pid in range(PERMUTATION_COUNT)])


@_THIN_DIMS
def test_kernel_and_numpy_row_passes_agree_on_thin_dims(dims):
    _assert_row_passes_match_the_oracles(_thin_clouds(dims))


_GUARD = 64


def _guarded(shape, dtype, fill):
    """An output of shape inside _GUARD bytes on either side, every byte fill; returns (all bytes, the output)."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.full(size + 2 * _GUARD, fill, dtype=np.uint8)
    return raw, raw[_GUARD : _GUARD + size].view(dtype).reshape(shape)


def _row_loops(kernel, points, dims, fill, pair=None):
    """Each row loop's status and outputs, with outputs pre-filled with fill and guarded on both sides.

    project_rows projects the points; column_starts checks them against
    pair, by default the maps that project_rows wrote.
    """
    nx, ny, nz = dims
    n = len(points)
    rows = np.ascontiguousarray(points, dtype=np.int64)
    maps = [_guarded((nx, ny), np.uint8, fill), _guarded((nx, ny), np.int32, fill), _guarded((nx, ny), np.int32, fill)]
    starts = _guarded((nx,), np.int64, fill)
    statuses = [kernel.project_rows(rows.ctypes.data, n, nx, ny, nz, *(b.ctypes.data for _, b in maps))]
    if pair is None:
        pair = DepthmapPair(*(b for _, b in maps))
    statuses.append(kernel.column_starts(rows.ctypes.data, n, nx, ny, nz, pair.occ.ctypes.data,
                                         pair.zmin.ctypes.data, pair.zmax.ctypes.data, starts[1].ctypes.data))
    for raw, _ in maps + [starts]:
        assert (raw[:_GUARD] == fill).all() and (raw[len(raw) - _GUARD :] == fill).all()
    return statuses, [out for _, out in maps + [starts]]


def test_row_loops_fill_every_output_byte_and_write_nothing_past_them(kernel):
    # Outputs full of 0xA5 come out as zeroed ones do, and as the oracles'.
    cloud = shapes.nested_hollow_spheres(24, (10, 5))
    points = cloud.to_array()
    expected = _reference_row_passes(points, cloud.dims)
    for fill in (0, 0xA5):
        statuses, outputs = _row_loops(kernel, points, cloud.dims, fill)
        assert statuses == [0, 0]
        for a, b in zip(outputs, expected, strict=True):
            assert np.array_equal(a, b)


_DIMS = (4, 5, 6)
_ROWS = np.array([[0, 0, 0], [0, 0, 5], [1, 4, 2], [3, 2, 1], [3, 2, 3]])


@pytest.mark.parametrize("row, refused", [
    ((4, 0, 0), "project, starts"), ((3, 5, 0), "project, starts"), ((3, 4, 6), "project, starts"),
    ((-1, 0, 0), "project, starts"), ((3, -1, 0), "project, starts"), ((3, 4, -1), "project, starts"),
    ((3, 2, 3), "project, starts"), ((3, 2, 2), "project, starts"), ((3, 1, 5), "project, starts"),
    ((2, 4, 5), "project, starts"), ((3, 2, 4), "starts"), ((3, 3, 0), "starts"),
], ids=["x-at-nx", "y-at-ny", "z-at-nz", "x-negative", "y-negative", "z-negative", "repeated", "z-out-of-order",
        "y-out-of-order", "x-out-of-order", "out-of-band", "empty-column"])
def test_row_loops_refuse_a_bad_row_before_writing_past_their_outputs(kernel, row, refused):
    # Each bad row comes last, so the loops have taken every row before it;
    # column_starts checks the rows against _ROWS' own maps.
    points = np.vstack((_ROWS, [row]))
    statuses, _ = _row_loops(kernel, points, _DIMS, 0xA5, project_array(_ROWS, _DIMS))
    assert statuses == [rangecoder.BAD_LAYOUT if name in refused else 0 for name in ("project", "starts")]


class _StopRecorder:
    """The kernel, recording the pixel at which each depth-map loop stops for room."""

    def __init__(self, lib):
        self.lib = lib
        self.stops = {"code_mask": [], "code_surfaces": []}

    def __getattr__(self, name):
        loop = getattr(self.lib, name)
        if name not in self.stops:
            return loop

        def call(state, cursor, *args):
            status = loop(state, cursor, *args)
            if status == rangecoder.NEED_ROOM:
                self.stops[name].append(cursor._obj.pixel)
            return status

        return call


def test_depthmap_encoder_resumes_mid_map_with_identical_bytes(kernel, monkeypatch):
    # Half the pixels occupied, with lows and thicknesses spread over 0..999:
    # with room for one bit per call, both loops stop many times mid-map.
    rng = np.random.default_rng(5)
    occ = (rng.random((40, 30)) < 0.5).astype(np.uint8)
    z = np.sort(rng.integers(0, 1000, size=(2, 40, 30), dtype=np.int32), axis=0) * occ
    pair = DepthmapPair(occ, z[0], z[1])
    expected = depthmap.encode_depthmaps(pair, 1000)
    recorder = _StopRecorder(kernel)
    monkeypatch.setattr(rangecoder, "_BITS_ROOM", 1)
    monkeypatch.setattr(depthmap, "native", lambda: recorder)
    assert depthmap.encode_depthmaps(pair, 1000) == expected
    for name, stops in recorder.stops.items():
        assert len(stops) > 3, name
        assert all(0 < pixel < occ.size for pixel in stops), name
    again = depthmap.decode_depthmaps(expected.data, 40, 30, 1000)
    assert np.array_equal(again.occ, occ) and np.array_equal(again.zmin, z[0]) and np.array_equal(again.zmax, z[1])


def test_kernel_mask_loop_refuses_an_occ_byte_above_1(kernel):
    # Left in the grid, a byte of 2 would put later pixels' contexts past the
    # count tables, before the surface loop could refuse the map.
    grid = np.zeros((4, 6), np.uint8)
    grid[2, 3] = 2
    encoder = RangeEncoder(count_tables(depthmap._CONTEXTS))
    with pytest.raises(ValueError, match="layout"):
        rangecoder.run(kernel.code_mask, encoder, ctypes.byref(depthmap._Cursor(0, 4, 0)), grid.ctypes.data, 2, 2, 1)


def _unique_rows(rows):
    """The reference for the kernel's normalize_rows: numpy's sorted distinct rows."""
    return np.unique(np.asarray(rows, dtype=np.int64).reshape(-1, 3), axis=0)


def test_normalize_rows_matches_unique_on_the_property_rows():
    hypothesis = pytest.importorskip("hypothesis")
    from test_properties import row_lists

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(row_lists())
    def check(rows):
        assert np.array_equal(VoxelCloud((1, 1, 1), rows).to_array(), _unique_rows(rows))

    check()


def _wide_rows(width, n=100_000):
    """n random rows whose coordinates span exactly `width` bits, from a negative low."""
    rng = np.random.default_rng(width)
    lo = -(1 << width) // 3
    rows = rng.integers(0, 1 << width, size=(n, 3)) + lo
    rows[0, 0] = lo
    rows[1, 2] = lo + (1 << width) - 1
    return rows


def _arrangement(rows, kind):
    if kind == "random":
        return rows
    ordered = rows[np.lexsort(rows.T[::-1])]
    if kind == "sorted":
        return ordered
    if kind == "reversed":
        return ordered[::-1]
    if kind == "one-row":
        return np.repeat(rows[:1], len(rows), axis=0)
    varying = rows.copy()
    varying[:, 1:] = rows[0, 1:]
    return varying


# Widths of 1, 8, 9, 16, 18 and 21 bits per axis give keys of one to six
# radix passes, 21 the widest that packs into 63 bits.
@pytest.mark.parametrize("width", [1, 8, 9, 16, 18, 21])
@pytest.mark.parametrize("kind", ["random", "sorted", "reversed", "one-row", "one-column"])
def test_normalize_rows_matches_unique_on_large_arrays(width, kind):
    rows = _arrangement(_wide_rows(width), kind)
    assert np.array_equal(VoxelCloud((1, 1, 1), rows).to_array(), _unique_rows(rows))


def _layout(rows, layout):
    """rows, or a copy of them, as an array of the layout named; its values are rows'."""
    if layout == "fortran":
        return np.asfortranarray(rows)
    if layout == "columns":
        return np.ascontiguousarray(rows[:, [2, 0, 1]])[:, [1, 2, 0]]
    if layout == "strided":
        wider = np.zeros((2 * len(rows), 5), dtype=np.int64)
        wider[::2, 4:1:-1] = rows
        return wider[::2, 4:1:-1]
    # Unaligned: each row's three int64s start one byte into a 25-byte record.
    packed = np.zeros(len(rows), dtype=[("pad", "i1"), ("xyz", "<i8", 3)])
    packed["xyz"] = rows
    return packed["xyz"]


@pytest.mark.parametrize("width", [8, 21])
@pytest.mark.parametrize("layout", ["fortran", "columns", "strided", "unaligned"])
def test_normalize_rows_reads_any_layout(width, layout):
    rows = _wide_rows(width)
    viewed = _layout(rows, layout)
    assert np.array_equal(viewed, rows)
    cloud = VoxelCloud((1, 1, 1), viewed)
    assert np.array_equal(cloud.to_array(), _unique_rows(rows))
    assert cloud.to_array().flags.c_contiguous
    assert np.array_equal(VoxelCloud((1, 1, 1), viewed[::-1]).to_array(), cloud.to_array())


@pytest.mark.parametrize("kind", ["random", "sorted", "too-wide"])
def test_building_a_cloud_only_reads_the_callers_rows(kind):
    rows = _arrangement(_wide_rows(8, 1000), "random" if kind == "too-wide" else kind)
    if kind == "too-wide":
        rows[0, 0] = 1 << 40
    before = rows.copy()
    cloud = VoxelCloud((1, 1, 1), rows)
    kept = cloud.to_array().copy()
    assert rows.flags.writeable and np.array_equal(rows, before)
    assert not np.shares_memory(rows, cloud.to_array())
    rows[:] = 7
    assert np.array_equal(cloud.to_array(), kept)
    assert not cloud.to_array().flags.writeable
    # A read-only array is only read too.
    before.flags.writeable = False
    assert VoxelCloud((1, 1, 1), before) == cloud
    assert not before.flags.writeable
