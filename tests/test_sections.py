"""Section building, list-driven coding, sweep, and shell tests."""

import numpy as np
import pytest

from bvlcodec import rangecoder, sections
from bvlcodec.depthmap import DepthmapPair, project_array
from bvlcodec.errors import BitstreamError, TruncatedStreamError
from bvlcodec.rangecoder import RangeDecoder, RangeEncoder, count_tables
from bvlcodec.sections import (
    SECTION_CONTEXTS,
    build_section,
    code_section,
    decode_residual,
    decode_shells,
    encode_residual,
    encode_shells,
    sweep_decode,
    sweep_encode,
)

import shapes
from oracles import (
    encode_section_decisions,
    flood_fill_labels,
    marked_cells,
    occupied_cells,
    reference_build_section,
    reference_leftovers,
    section_flood_fill,
    slab_cells,
    table_bytes,
    unknown_count,
)


@pytest.fixture(params=["kernel", "python"])
def path(request, monkeypatch):
    """Run a test on the native kernel (skipped where it does not load), then on the Python loops."""
    if request.param == "python":
        monkeypatch.setattr(rangecoder, "load_kernel", lambda: (None, "forced by the test"))
    elif rangecoder.native() is None:
        pytest.skip("native kernel unavailable")
    return request.param


def _coder(tables, stream=None):
    """An encoder on tables, or a decoder of stream on them."""
    if stream is None:
        return RangeEncoder(tables)
    return RangeDecoder(stream, tables)


def _single_section_pair(nz, nx, columns) -> DepthmapPair:
    occ = np.zeros((nx, 1), np.uint8)
    zmin = np.zeros((nx, 1), np.int32)
    zmax = np.zeros((nx, 1), np.int32)
    for x, (lo, hi) in columns.items():
        occ[x, 0] = 1
        zmin[x, 0] = lo
        zmax[x, 0] = hi
    return DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)


def _true_bytes(true_cells, nz, nx):
    st = nz + 2
    t = bytearray((nx + 2) * st)
    for z, x in true_cells:
        t[(x + 1) * st + z + 1] = 1
    return bytes(t)


def test_build_section_empty_column():
    pair = _single_section_pair(8, 4, {1: (2, 5)})
    buf = sections._section_buffers(pair, 0, 8)
    st = buf.stride
    # column 3 has no occupancy: everything there is known empty
    for z in range(8):
        assert buf.state[(3 + 1) * st + z + 1] == 1


def test_build_section_single_cell_interval():
    pair = _single_section_pair(8, 4, {2: (5, 5)})
    buf = sections._section_buffers(pair, 0, 8)
    st = buf.stride
    assert buf.state[(2 + 1) * st + 5 + 1] == 2
    assert unknown_count(buf) == 0
    assert occupied_cells(buf) == {(5, 2)}


def test_build_section_interval_counts():
    pair = _single_section_pair(16, 4, {1: (2, 9)})
    buf = sections._section_buffers(pair, 0, 16)
    st = buf.stride
    assert buf.state[(1 + 1) * st + 2 + 1] == 2
    assert buf.state[(1 + 1) * st + 9 + 1] == 2
    for z in range(3, 9):
        assert buf.state[(1 + 1) * st + z + 1] == 0
    assert unknown_count(buf) == 6


def test_build_section_list_is_row_major_dilation():
    # Unknown cells in columns 0, 1 and 2; column 5 is a lone seed.
    columns = {0: (1, 5), 1: (2, 6), 2: (0, 4), 5: (3, 3)}
    pair = _single_section_pair(8, 8, columns)
    buf = sections._section_buffers(pair, 0, 8)
    st = buf.stride
    cells = [((i % st) - 1, (i // st) - 1) for i in buf.queue]
    seeds = {(z, x) for x, band in columns.items() for z in band}
    unknown = {(z, x) for x, (lo, hi) in columns.items() for z in range(lo + 1, hi)}
    expected = sorted(
        {
            (z + dz, x + dx)
            for z, x in seeds
            for dz in (-1, 0, 1)
            for dx in (-1, 0, 1)
        }
        & unknown
    )
    assert {x for _, x in expected} == {0, 1, 2}
    assert cells == expected
    assert marked_cells(buf) == set(cells)


def _assert_matches_reference(pair, nz):
    for y0 in np.flatnonzero(pair.occ.any(axis=0)).tolist():
        state, marked, queue = reference_build_section(pair, y0, nz)
        buf = sections._section_buffers(pair, y0, nz)
        assert buf.state == state
        assert buf.marked == marked
        assert list(buf.queue) == queue


def test_build_section_matches_reference_on_fuzz_suite():
    for _, cloud in shapes.fuzz_suite():
        _assert_matches_reference(project_array(cloud.to_array(), cloud.dims), cloud.dims[2])


def test_build_section_matches_reference_at_borders():
    cases = [
        # seeds on every border side: x = 0, x = nx - 1, z = 0, z = nz - 1
        (6, 5, {0: (0, 5), 4: (0, 5), 2: (0, 0)}),
        (6, 5, {0: (2, 2), 4: (5, 5), 1: (0, 3), 3: (1, 5)}),
        (3, 3, {0: (0, 2), 1: (0, 2), 2: (0, 2)}),
        # a single column, a single row, and a single cell
        (7, 1, {0: (0, 6)}),
        (7, 1, {0: (3, 3)}),
        (1, 6, {0: (0, 0), 2: (0, 0), 5: (0, 0)}),
        (1, 1, {0: (0, 0)}),
    ]
    for nz, nx, columns in cases:
        _assert_matches_reference(_single_section_pair(nz, nx, columns), nz)


def _run_both_sides(pair, nz, true_cells, prev=None):
    """Encode one section with the Python loop and decode it again; both sides must agree.

    Every listed cell is coded once, so each side's coded cells are its
    marked ones. Without prev the section is also a whole shell, whose
    decode through build_section and code_section (in the kernel when it
    loads) must agree too. Returns (encoder's buffers, decoder's buffers,
    decision count, stream, encoder's tables).
    """
    nx = pair.occ.shape[0]
    tables = count_tables(SECTION_CONTEXTS)
    enc = _coder(tables)
    enc_buf = sections._section_buffers(pair, 0, nz, prev)
    coded = sections._code_buffers(enc_buf, enc, _true_bytes(true_cells, nz, nx))
    stream = enc.finish()
    dec_tables = count_tables(SECTION_CONTEXTS)
    dec_buf = sections._section_buffers(pair, 0, nz, prev)
    assert sections._code_buffers(dec_buf, _coder(dec_tables, stream)) == coded
    assert marked_cells(dec_buf) == marked_cells(enc_buf)
    assert occupied_cells(dec_buf) == occupied_cells(enc_buf)
    assert table_bytes(dec_tables) == table_bytes(tables)
    if prev is None:
        shell = build_section(pair, (nx, 1, nz))
        shell_tables = count_tables(SECTION_CONTEXTS)
        recon, shell_coded = code_section(shell, shell_tables, decoder=_coder(shell_tables, stream))
        assert shell_coded == coded
        assert {(z, x) for x, _, z in recon.tolist()} == occupied_cells(dec_buf)
    return enc_buf, dec_buf, coded, stream, tables


def test_all_seed_section_codes_nothing():
    pair = _single_section_pair(8, 6, {0: (1, 2), 2: (4, 4), 5: (0, 1)})
    true_cells = {(1, 0), (2, 0), (4, 2), (0, 5), (1, 5)}
    enc_buf, _, coded, stream, tables = _run_both_sides(pair, 8, true_cells)
    assert coded == 0
    assert marked_cells(enc_buf) == set()
    assert stream.bit_length <= 8
    assert len(tables) == 0


def test_full_solid_column_codes_interior_once():
    nz = 8
    pair = _single_section_pair(nz, 1, {0: (0, nz - 1)})
    true_cells = {(z, 0) for z in range(nz)}
    enc_buf, dec_buf, coded, _, _ = _run_both_sides(pair, nz, true_cells)
    assert coded == nz - 2
    assert marked_cells(enc_buf) == {(z, 0) for z in range(1, nz - 1)}
    assert occupied_cells(enc_buf) == true_cells
    assert occupied_cells(dec_buf) == true_cells


def test_section_coder_matches_flood_fill_oracle():
    rng = np.random.default_rng(424)
    for trial in range(60):
        nz = int(rng.integers(4, 33))
        nx = int(rng.integers(4, 33))
        columns = {}
        true_cells = set()
        for x in range(nx):
            if rng.random() < 0.6:
                count = int(rng.integers(1, 6))
                zs = sorted(set(int(rng.integers(0, nz)) for _ in range(count)))
                columns[x] = (zs[0], zs[-1])
                for z in zs:
                    true_cells.add((z, x))
                # sprinkle extra occupancy strictly inside the band
                for z in range(zs[0] + 1, zs[-1]):
                    if rng.random() < 0.35:
                        true_cells.add((z, x))
        if not columns:
            continue
        pair = _single_section_pair(nz, nx, columns)
        prev = None
        previous = set()
        if rng.random() < 0.5:
            noise = (rng.random((nz + 2) * (nx + 2)) < 0.2).astype(np.uint8)
            prev = noise.tobytes()
            previous = slab_cells(noise, nz + 2)
        enc_buf, dec_buf, coded, stream, tables = _run_both_sides(pair, nz, true_cells, prev)
        order, oracle_occupied = section_flood_fill(nz, nx, columns, true_cells)
        assert marked_cells(enc_buf) == set(order)
        assert coded == len(order)
        assert occupied_cells(enc_buf) == oracle_occupied
        # The oracle's decisions, in its coding order, give the same bytes and counts.
        labels = flood_fill_labels(columns, true_cells, order, previous)
        oracle_stream, oracle_tables = encode_section_decisions(labels, [int(c in true_cells) for c in order])
        assert stream == oracle_stream
        assert len(tables) == len(set(labels))
        assert table_bytes(tables) == table_bytes(oracle_tables)


def test_infeasible_cells_never_touched():
    pair = _single_section_pair(16, 6, {2: (3, 10)})
    true_cells = {(3, 2), (10, 2)} | {(z, 2) for z in range(4, 10, 2)}
    enc_buf, _, _, _, _ = _run_both_sides(pair, 16, true_cells)
    for z, x in marked_cells(enc_buf):
        assert x == 2 and 3 <= z <= 10
    for (z, x) in occupied_cells(enc_buf):
        assert x == 2 and 3 <= z <= 10


def _point_set(points):
    return set(map(tuple, points.tolist()))


def _sweep_round_trip(cloud):
    pair = project_array(cloud.to_array(), cloud.dims)
    tables = count_tables(SECTION_CONTEXTS)
    enc = _coder(tables)
    reached, n_enc = sweep_encode(cloud.to_array(), pair, cloud.dims, tables, enc)
    stream = enc.finish()
    tables = count_tables(SECTION_CONTEXTS)
    recon_dec, n_dec = sweep_decode(pair, cloud.dims, tables, _coder(tables, stream))
    assert n_enc == n_dec
    enc_set = _point_set(cloud.to_array()[reached])
    dec_set = _point_set(recon_dec)
    assert enc_set == dec_set
    return enc_set, n_enc, stream


def test_sweep_thin_pair_cloud_codes_zero_bits():
    rng = np.random.default_rng(5)
    cloud = shapes.thin_pair_cloud(12, 12, 24, rng)
    recon, decisions, _ = _sweep_round_trip(cloud)
    assert decisions == 0
    assert recon == set(cloud.points)


def test_sweep_two_surface_cloud_round_trips():
    rng = np.random.default_rng(6)
    cloud = shapes.two_surface_cloud(12, 12, 24, rng)
    recon, _, _ = _sweep_round_trip(cloud)
    assert recon == set(cloud.points)  # every point is a depth-surface seed


def test_sweep_solid_cube_exact_in_one_shell():
    cloud = shapes.solid_cube(16, 2, 14)
    recon, _, _ = _sweep_round_trip(cloud)
    assert recon == set(cloud.points)


def test_sweep_hollow_sphere_exact_in_one_shell():
    cloud = shapes.hollow_sphere(64, 20)
    recon, _, _ = _sweep_round_trip(cloud)
    assert recon == set(cloud.points)


@pytest.mark.parametrize("field,value", [("occ", 257), ("zmin", 2**32 + 1)])
def test_sweep_refuses_map_values_the_coded_types_cannot_hold(path, field, value):
    # Cast to uint8 and int32, both values would wrap to 1 and give a valid
    # map that codes the wrong value.
    maps = {"occ": np.ones((2, 2), np.int64), "zmin": np.zeros((2, 2), np.int64), "zmax": np.full((2, 2), 3, np.int64)}
    maps[field][0, 0] = value
    points = np.array([(x, y, z) for x in range(2) for y in range(2) for z in (0, 3)])
    tables = count_tables(SECTION_CONTEXTS)
    encoder = _coder(tables)
    with pytest.raises(ValueError, match="layout"):
        sweep_encode(points, DepthmapPair(**maps), (2, 2, 4), tables, encoder)
    assert len(tables) == 0


def test_code_section_refuses_tables_that_do_not_span_the_section_contexts(path):
    cloud = shapes.solid_cube(16, 2, 14)
    points = cloud.to_array()
    pair = project_array(points, cloud.dims)
    short = count_tables(SECTION_CONTEXTS - 1)
    other = count_tables(SECTION_CONTEXTS)
    # Tables one label short, and a coder on tables other than the ones given.
    for tables, coded_on in ((short, short), (other, count_tables(SECTION_CONTEXTS))):
        encoder = _coder(coded_on)
        with pytest.raises(ValueError, match="span"):
            code_section(build_section(pair, cloud.dims, points), tables, encoder=encoder)
        with pytest.raises(ValueError, match="span"):
            code_section(build_section(pair, cloud.dims), tables, decoder=_coder(coded_on, bytes(8)))
        assert len(tables) == len(coded_on) == 0
        assert encoder.finish() == _coder(count_tables(SECTION_CONTEXTS)).finish()
    # The same shell codes on tables that span the contexts.
    tables = count_tables(SECTION_CONTEXTS)
    assert code_section(build_section(pair, cloud.dims, points), tables, encoder=_coder(tables))[1] > 0


def test_shells_connected_object_single_shell():
    cloud = shapes.solid_sphere(24, 8)
    streams, residual = encode_shells(cloud, 2)
    assert len(streams) == 1
    assert len(residual) == 0


def test_shells_nested_cubes_two_shells_no_residual():
    cloud = shapes.nested_hollow_cubes(40, (0, 12))
    streams, residual = encode_shells(cloud, 2)
    assert len(streams) == 2
    assert len(residual) == 0
    blobs = [(a.data, b.data) for a, b in streams]
    assert _point_set(decode_shells(blobs, cloud.dims)) == set(cloud.points)


def test_shells_triple_nested_overflows_to_residual():
    cloud = shapes.nested_hollow_spheres(48, (20, 12, 5))
    streams, residual = encode_shells(cloud, 2)
    assert len(streams) == 2
    assert len(residual) > 0
    blobs = [(a.data, b.data) for a, b in streams]
    decoded = _point_set(decode_shells(blobs, cloud.dims))
    assert decoded | _point_set(residual) == set(cloud.points)
    assert decoded.isdisjoint(_point_set(residual))


def test_shells_are_disjoint_point_sets():
    cloud = shapes.nested_hollow_cubes(32, (2, 9))
    streams, _ = encode_shells(cloud, 2)
    blobs = [(a.data, b.data) for a, b in streams]
    first = _point_set(decode_shells(blobs[:1], cloud.dims))
    both = _point_set(decode_shells(blobs, cloud.dims))
    assert first <= both
    second = both - first
    assert first.isdisjoint(second) and second


def test_shell_leftovers_match_the_key_search(path):
    # Each cloud may take up to two shells; about a quarter of the fuzz suite
    # takes both, some of those with a residual.
    clouds = [cloud for _, cloud in shapes.fuzz_suite()]
    clouds += [shapes.nested_hollow_spheres(48, (20, 12, 5)), shapes.nested_hollow_cubes(32, (2, 9))]
    two_shells = residuals = 0
    for cloud in clouds:
        streams, residual = encode_shells(cloud, 2)
        assert np.array_equal(residual, reference_leftovers(cloud, 2))
        two_shells += len(streams) == 2
        residuals += len(streams) == 2 and len(residual) > 0
    assert two_shells > 40 and residuals > 10


def test_each_shell_is_built_and_coded_in_one_call_each(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(sections, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("build_section", "code_section"):
        monkeypatch.setattr(sections, name, counted(name))
    cloud = shapes.nested_hollow_cubes(32, (2, 9))
    streams, _ = encode_shells(cloud, 2)
    blobs = [(a.data, b.data) for a, b in streams]
    decode_shells(blobs, cloud.dims)
    assert len(streams) == 2
    assert calls == ["build_section", "code_section"] * 4


def test_residual_round_trip():
    dims = (33, 1, 1024)
    pts = [(0, 0, 0), (32, 0, 1023), (17, 0, 500)]
    stream = encode_residual(pts, dims)
    assert list(map(tuple, decode_residual(stream.data, dims).tolist())) == pts
    assert stream.bit_length == 32 + len(pts) * (6 + 0 + 10)


def test_residual_empty():
    stream = encode_residual([], (8, 8, 8))
    assert decode_residual(stream.data, (8, 8, 8)).shape == (0, 3)
    assert stream.bit_length == 32


def test_residual_rejects_out_of_range_points():
    dims = (33, 1, 4)  # 6-bit x field can hold values past dim 33
    stream = encode_residual([(40, 0, 1)], dims)
    with pytest.raises(BitstreamError):
        decode_residual(stream.data, dims)


def test_residual_exact_bytes():
    # Widths 3, 0 and 1: the count, then x = 101 and z = 1, MSB first.
    stream = encode_residual([(5, 0, 1)], (8, 1, 2))
    assert stream.data == bytes.fromhex("00000001b0")
    assert stream.bit_length == 36
    assert decode_residual(stream.data, (8, 1, 2)).tolist() == [[5, 0, 1]]


def test_residual_round_trip_with_a_24_bit_field():
    dims = (2**24 - 2, 1, 2)
    pts = [(0, 0, 0), (2**24 - 3, 0, 1), (12_345_678, 0, 0), (1, 0, 1)]
    stream = encode_residual(pts, dims)
    assert stream.bit_length == 32 + len(pts) * (24 + 0 + 1)
    assert list(map(tuple, decode_residual(stream.data, dims).tolist())) == pts


def test_residual_count_past_the_volume_raises_before_allocating():
    with pytest.raises(BitstreamError):
        decode_residual(b"\xff\xff\xff\xff", (1, 1, 1))


def test_residual_payload_short_of_its_count_raises():
    dims = (2**24 - 2, 1, 2)
    data = encode_residual([(7, 0, 1), (9, 0, 0), (11, 0, 1)], dims).data
    for cut in (b"", data[:3], data[:4], data[:-1]):
        with pytest.raises(TruncatedStreamError):
            decode_residual(cut, dims)
