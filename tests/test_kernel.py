"""The native kernel against the Python loops it replaces.

Every test skips when the kernel cannot be built or loaded here, so none
passes without running it. The Python path is forced by replacing the
kernel loader.
"""

import ctypes
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from bvlcodec import CodecError, decode_cloud, depthmap, encode_cloud, rangecoder, sections
from bvlcodec.cloud import PERMUTATION_COUNT, AxisPermutation, VoxelCloud
from bvlcodec.depthmap import DepthmapPair, project_array
from bvlcodec.rangecoder import RangeDecoder, RangeEncoder, count_tables
from bvlcodec.sections import SECTION_CONTEXTS, build_section, code_section, sweep_decode, sweep_encode

import shapes
from oracles import table_bytes


@pytest.fixture
def kernel():
    lib, where = rangecoder.load_kernel()
    if lib is None:
        pytest.skip(f"native kernel unavailable: {where}")
    return lib


def _force_python(monkeypatch):
    monkeypatch.setattr(rangecoder, "load_kernel", lambda: (None, "forced by the test"))


def _outcome(data: bytes):
    try:
        return decode_cloud(data)
    except CodecError as exc:
        return type(exc)


def test_corrupt_containers_end_alike_on_both_paths(kernel, monkeypatch):
    # Two concentric sphere shells: both shells code sections, and flips land
    # in the header, the length table and every payload.
    cloud = shapes.nested_hollow_spheres(24, (10, 5))
    blob, report = encode_cloud(cloud, permutation=0)
    assert report.shells == 2
    rng = np.random.default_rng(10)
    cases = []
    for _ in range(300):
        data = bytearray(blob)
        data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        cases.append(bytes(data))
    native = [_outcome(data) for data in cases]
    _force_python(monkeypatch)
    python = [_outcome(data) for data in cases]
    errors = 0
    for k, (a, b) in enumerate(zip(native, python)):
        if isinstance(a, type) or isinstance(b, type):
            assert a is b, f"case {k}: {a} natively, {b} in Python"
            errors += 1
        else:
            assert a == b, f"case {k}: the two paths decode different clouds"
    # Most flips are caught, some decode to a cloud: both outcomes are compared.
    assert 0 < errors < len(cases)


def test_containers_are_byte_identical_on_both_paths(kernel, monkeypatch):
    suite = shapes.fuzz_suite()
    native = [encode_cloud(cloud, permutation=k % 6)[0] for k, (_, cloud) in enumerate(suite)]
    _force_python(monkeypatch)
    python = [encode_cloud(cloud, permutation=k % 6)[0] for k, (_, cloud) in enumerate(suite)]
    for (name, _), a, b in zip(suite, native, python):
        assert a == b, name


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
        shell.buffers.state[:] = fill
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
        rangecoder.run(kernel.code_shell, RangeDecoder(bytes(8), short), ctypes.byref(shell.buffers.struct),
                       grow=shell.buffers.grow)
    assert bytes(short.counts) == bytes(4)


def _sweep_record(cloud, shells=2):
    """Per shell, encoder then decoder: section bytes, decisions and sorted reconstruction; then both sides' tables.

    The encoder's reconstruction is the rows it reports reached, which must
    be the decoder's reconstruction as a point set. The tables carry their
    counts from shell to shell, so those of the last shell hold every
    shell's updates.
    """
    dims = cloud.dims
    enc_tables = count_tables(SECTION_CONTEXTS)
    dec_tables = count_tables(SECTION_CONTEXTS)
    remaining = cloud.to_array()
    record = []
    for _ in range(shells):
        if not len(remaining):
            break
        pair = project_array(remaining, dims)
        enc = RangeEncoder(enc_tables)
        reached, n = sweep_encode(remaining, pair, dims, enc_tables, enc)
        stream = enc.finish()
        dec = RangeDecoder(stream.data, dec_tables)
        dec_recon, dec_n = sweep_decode(pair, dims, dec_tables, dec)
        recon = np.unique(remaining[reached], axis=0).tolist()
        dec_points = np.unique(dec_recon, axis=0).tolist()
        assert len(recon) == len(reached) and recon == dec_points
        record.append((stream, n, recon, dec_n, dec_points))
        remaining = np.delete(remaining, reached, axis=0)
    return record, table_bytes(enc_tables), table_bytes(dec_tables)


def _assert_paths_agree(clouds, monkeypatch):
    """Each cloud's record on the kernel, then on the Python loops; returns each cloud's decisions."""
    decisions = []
    for k, cloud in enumerate(clouds):
        native = _sweep_record(cloud)
        with monkeypatch.context() as patch:
            _force_python(patch)
            assert _sweep_record(cloud) == native, f"cloud {k}"
        decisions.append(sum(shell[1] for shell in native[0]))
    return decisions


def test_kernel_and_python_sweeps_agree_on_fuzz_suite_in_every_permutation(kernel, monkeypatch):
    clouds = [AxisPermutation(pid).apply(cloud) for _, cloud in shapes.fuzz_suite()
              for pid in range(PERMUTATION_COUNT)]
    # A solid sphere's shell makes more decisions than any fuzz-suite shell.
    clouds.append(shapes.solid_sphere(48, 20))
    assert _assert_paths_agree(clouds, monkeypatch)[-1] > 2 * (1 << 14)


def test_kernel_and_python_sweeps_agree_when_kernel_calls_resume(kernel, monkeypatch):
    # Room for 7 bits at first: the kernel's encoding calls resume inside and
    # across sections; section 3 of each cloud is empty. Each shell's reached
    # rows still equal its decoded points (_sweep_record).
    monkeypatch.setattr(rangecoder, "_BITS_ROOM", 7)
    stops = []

    def code_shell(state, shell):
        status = kernel.code_shell(state, shell)
        if status == rangecoder.NEED_ROOM and shell._obj.cells:
            stops.append((shell._obj.section, shell._obj.head))
        return status

    # The shell's row passes run in the kernel as they are.
    monkeypatch.setattr(sections, "native", lambda: rangecoder.native() and SimpleNamespace(
        code_shell=code_shell, group_rows=kernel.group_rows, leftover_rows=kernel.leftover_rows))
    rng = np.random.default_rng(79)
    clouds = []
    for _ in range(4):
        points = []
        for y in (y for y in range(12) if y != 3):
            for x in range(8):
                lo, hi = sorted(rng.integers(0, 8, size=2).tolist())
                points += [(x, y, z) for z in range(lo, hi + 1) if z in (lo, hi) or rng.random() < 0.7]
        clouds.append(VoxelCloud((8, 12, 8), points))
    for decisions in _assert_paths_agree(clouds, monkeypatch):
        assert decisions > 3 * 7
    assert any(head for _, head in stops) and len({section for section, _ in stops}) > 1


def test_encoder_room_for_points_never_grows(kernel, monkeypatch):
    # The encoder emits no points, so it has no room to grow; the decoder of
    # a solid starts at two seeds per column and has to grow.
    grown = []
    grow = sections._ShellBuffers.grow

    def recording_grow(self):
        room = self.struct.room
        grow(self)
        if self.struct.room != room:
            grown.append(self.struct.room)

    monkeypatch.setattr(sections._ShellBuffers, "grow", recording_grow)
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
def test_kernel_and_python_sweeps_agree_on_thin_dims(kernel, monkeypatch, dims):
    _assert_paths_agree(_thin_clouds(dims), monkeypatch)


def _row_passes(points, dims, reached, lib):
    """The projection's maps, the grouping's cells, offsets and order, and the leftovers, on lib or numpy (None)."""
    pair = depthmap._project(points, dims, lib)
    return [pair.occ, pair.zmin, pair.zmax, *sections._group(points, dims, lib),
            sections._leftovers(points, reached, lib)]


def _assert_row_passes_agree(kernel, clouds):
    rng = np.random.default_rng(31)
    for k, cloud in enumerate(clouds):
        points = cloud.to_array()
        # Any share of the rows, in any order, as a sweep's reached rows come.
        reached = rng.permutation(len(points))[: int(rng.integers(len(points) + 1))]
        for a, b in zip(_row_passes(points, cloud.dims, reached, kernel),
                        _row_passes(points, cloud.dims, reached, None), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f"cloud {k}"


def test_kernel_and_numpy_row_passes_agree_on_fuzz_suite_in_every_permutation(kernel):
    _assert_row_passes_agree(kernel, [AxisPermutation(pid).apply(cloud) for _, cloud in shapes.fuzz_suite()
                                      for pid in range(PERMUTATION_COUNT)])


@_THIN_DIMS
def test_kernel_and_numpy_row_passes_agree_on_thin_dims(kernel, dims):
    _assert_row_passes_agree(kernel, _thin_clouds(dims))


_GUARD = 64


def _guarded(shape, dtype, fill):
    """An output of shape inside _GUARD bytes on either side, every byte fill; returns (all bytes, the output)."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.full(size + 2 * _GUARD, fill, dtype=np.uint8)
    return raw, raw[_GUARD : _GUARD + size].view(dtype).reshape(shape)


def _row_loops(kernel, points, dims, reached, fill):
    """Each row loop's status and outputs, with outputs pre-filled with fill and guarded on both sides."""
    nx, ny, nz = dims
    n = len(points)
    rows = np.ascontiguousarray(points, dtype=np.int64)
    reached = np.ascontiguousarray(reached, dtype=np.int64)
    maps = [_guarded((nx, ny), np.uint8, fill), _guarded((nx, ny), np.int32, fill), _guarded((nx, ny), np.int32, fill)]
    groups = [_guarded((ny + 1,), np.int64, fill), _guarded((n,), np.int64, fill), _guarded((n,), np.int64, fill)]
    rest = [_guarded((n,), np.uint8, fill), _guarded((max(n - len(reached), 0), 3), np.int64, fill)]
    statuses = [kernel.project_rows(rows.ctypes.data, n, nx, ny, nz, *(b.ctypes.data for _, b in maps)),
                kernel.group_rows(rows.ctypes.data, n, nx, ny, nz, *(b.ctypes.data for _, b in groups)),
                kernel.leftover_rows(rows.ctypes.data, n, reached.ctypes.data, len(reached),
                                     *(b.ctypes.data for _, b in rest))]
    for raw, _ in maps + groups + rest:
        assert (raw[:_GUARD] == fill).all() and (raw[len(raw) - _GUARD :] == fill).all()
    # In _row_passes' order: group_rows takes offsets before cells, and the
    # dropped-row flags are leftover_rows' scratch, not an output.
    (_, offsets), (_, cells), (_, order) = groups
    return statuses, [out for _, out in maps] + [cells, offsets, order, rest[1][1]]


def test_row_loops_fill_every_output_byte_and_write_nothing_past_them(kernel):
    # Outputs full of 0xA5 come out as zeroed ones do, and as numpy's.
    cloud = shapes.nested_hollow_spheres(24, (10, 5))
    points = cloud.to_array()
    reached = np.random.default_rng(4).permutation(len(points))[: len(points) // 3]
    expected = _row_passes(points, cloud.dims, reached, None)
    for fill in (0, 0xA5):
        statuses, outputs = _row_loops(kernel, points, cloud.dims, reached, fill)
        assert statuses == [0, 0, 0]
        for a, b in zip(outputs, expected, strict=True):
            assert np.array_equal(a, b)


_DIMS = (4, 5, 6)
_ROWS = np.array([[0, 0, 0], [0, 0, 5], [1, 4, 2], [3, 2, 1], [3, 2, 3]])


@pytest.mark.parametrize("row, refused", [
    ((4, 0, 0), "project, group"), ((3, 5, 0), "project, group"), ((3, 4, 6), "project, group"),
    ((-1, 0, 0), "project, group"), ((3, -1, 0), "project, group"), ((3, 4, -1), "project, group"),
    ((3, 2, 3), "project"), ((3, 2, 2), "project"), ((3, 1, 5), "project"), ((2, 4, 5), "project"),
], ids=["x-at-nx", "y-at-ny", "z-at-nz", "x-negative", "y-negative", "z-negative", "repeated", "z-out-of-order",
        "y-out-of-order", "x-out-of-order"])
def test_row_loops_refuse_a_bad_row_before_writing_past_their_outputs(kernel, row, refused):
    # Each bad row comes last, so the loops have written every row before it.
    points = np.vstack((_ROWS, [row]))
    statuses, _ = _row_loops(kernel, points, _DIMS, [], 0xA5)
    assert statuses[:2] == [rangecoder.BAD_LAYOUT if name in refused else 0 for name in ("project", "group")]


@pytest.mark.parametrize("reached", [[1, 5], [1, -1], [1, 3, 1], [0, 1, 2, 3, 4, 0]],
                         ids=["index-at-n", "index-negative", "index-repeated", "more-indices-than-rows"])
def test_leftover_loop_refuses_a_bad_row_index_before_writing_past_its_output(kernel, reached):
    statuses, _ = _row_loops(kernel, _ROWS, _DIMS, reached, 0xA5)
    assert statuses == [0, 0, rangecoder.BAD_LAYOUT]


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
