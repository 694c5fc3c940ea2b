"""Section coding, sweep, and shell tests."""

import numpy as np
import pytest

from bvlcodec import sections
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
    flood_fill_shell,
    reference_build_section,
    reference_leftovers,
    slab_cells,
    table_bytes,
)


def _coder(tables, stream=None):
    """An encoder on tables, or a decoder of stream on them."""
    if stream is None:
        return RangeEncoder(tables)
    return RangeDecoder(stream, tables)


def _shell_pair(nz, nx, columns_by_section) -> DepthmapPair:
    """Maps whose section y has the columns columns_by_section[y], each x -> (low, high)."""
    occ = np.zeros((nx, len(columns_by_section)), np.uint8)
    zmin = np.zeros(occ.shape, np.int32)
    zmax = np.zeros(occ.shape, np.int32)
    for y, columns in enumerate(columns_by_section):
        for x, (lo, hi) in columns.items():
            occ[x, y] = 1
            zmin[x, y] = lo
            zmax[x, y] = hi
    return DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)


def _loaded_section(pair, nz):
    """Set up a one-section shell in the kernel and code it with only its seeds true: (state, list, decisions).

    Only a cell coded occupied extends the work list, so the cells coded
    are the start list, in its order, each coded empty. state is the
    section's slab after coding: the set-up's, with the listed cells known
    empty. The kernel clears its marks after the section.
    """
    nx = pair.occ.shape[0]
    xs = np.flatnonzero(pair.occ[:, 0]).tolist()
    seeds = sorted({(x, 0, int(z)) for x in xs for z in (pair.zmin[x, 0], pair.zmax[x, 0])})
    tables = count_tables(SECTION_CONTEXTS)
    shell = build_section(pair, (nx, 1, nz), np.array(seeds, np.int64).reshape(-1, 3))
    _, coded = code_section(shell, tables, encoder=_coder(tables))
    assert not shell.marked.any()
    return shell.state[: (nz + 2) * (nx + 2)], shell.fifo[: shell.struct.tail].tolist(), coded


def test_build_section_empty_column():
    state, _, _ = _loaded_section(_shell_pair(8, 4, [{1: (2, 5)}]), 8)
    st = 8 + 2
    # column 3 has no occupancy: everything there is known empty
    for z in range(8):
        assert state[(3 + 1) * st + z + 1] == 1


def test_build_section_single_cell_interval():
    state, listed, coded = _loaded_section(_shell_pair(8, 4, [{2: (5, 5)}]), 8)
    st = 8 + 2
    assert state[(2 + 1) * st + 5 + 1] == 2
    assert listed == [] and coded == 0
    assert slab_cells(state == 2, st) == {(5, 2)}


def test_build_section_interval_counts():
    state, listed, _ = _loaded_section(_shell_pair(16, 4, [{1: (2, 9)}]), 16)
    st = 16 + 2
    assert state[(1 + 1) * st + 2 + 1] == 2
    assert state[(1 + 1) * st + 9 + 1] == 2
    # The six cells between the seeds are unknown; the two beside the seeds
    # are listed, and coded empty.
    assert listed == [(1 + 1) * st + 3 + 1, (1 + 1) * st + 8 + 1]
    for z in range(4, 8):
        assert state[(1 + 1) * st + z + 1] == 0
    assert np.count_nonzero(state == 0) + len(listed) == 6


def test_build_section_list_is_row_major_dilation():
    # Unknown cells in columns 0, 1 and 2; column 5 is a lone seed.
    columns = {0: (1, 5), 1: (2, 6), 2: (0, 4), 5: (3, 3)}
    _, listed, coded = _loaded_section(_shell_pair(8, 8, [columns]), 8)
    st = 8 + 2
    cells = [((i % st) - 1, (i // st) - 1) for i in listed]
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
    assert coded == len(expected)


def _assert_matches_reference(pair, nz):
    """Each occupied section of pair, set up alone in the kernel, matches reference_build_section."""
    for y0 in np.flatnonzero(pair.occ.any(axis=0)).tolist():
        section = DepthmapPair(*(a[:, y0 : y0 + 1] for a in (pair.occ, pair.zmin, pair.zmax)))
        state, _, queue = reference_build_section(section, 0, nz)
        for cell in queue:
            state[cell] = 1
        got, listed, coded = _loaded_section(section, nz)
        assert bytes(got) == bytes(state) and listed == queue and coded == len(queue), f"section {y0}"


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
        _assert_matches_reference(_shell_pair(nz, nx, [columns]), nz)


def _point_set(points):
    return set(map(tuple, points.tolist()))


def _run_both_sides(nz, nx, shell):
    """Encode a shell in the kernel and decode it again; both sides must agree.

    shell lists each section's (columns, true (z, x) cells). The encoder's
    reached rows, one per point, must be the decoder's points, and both
    sides must count the same decisions and leave the same tables. Returns
    (reconstructed (x, y, z) points, decision count, stream, encoder's
    tables).
    """
    pair = _shell_pair(nz, nx, [columns for columns, _ in shell])
    dims = (nx, len(shell), nz)
    points = np.array(sorted((x, y, z) for y, (_, cells) in enumerate(shell) for z, x in cells),
                      dtype=np.int64).reshape(-1, 3)
    tables = count_tables(SECTION_CONTEXTS)
    enc = _coder(tables)
    reached, coded = code_section(build_section(pair, dims, points), tables, encoder=enc)
    stream = enc.finish()
    dec_tables = count_tables(SECTION_CONTEXTS)
    recon, dec_coded = code_section(build_section(pair, dims), dec_tables, decoder=_coder(dec_tables, stream))
    assert dec_coded == coded
    rows = _point_set(points[reached])
    assert len(rows) == len(reached) == len(recon) and rows == _point_set(recon)
    assert table_bytes(dec_tables) == table_bytes(tables)
    return rows, coded, stream, tables


def _cells(points):
    """The (z, x) cells of (x, y, z) points."""
    return {(z, x) for x, _, z in points}


def test_all_seed_section_codes_nothing():
    columns = {0: (1, 2), 2: (4, 4), 5: (0, 1)}
    true_cells = {(1, 0), (2, 0), (4, 2), (0, 5), (1, 5)}
    occupied, coded, stream, tables = _run_both_sides(8, 6, [(columns, true_cells)])
    assert coded == 0
    assert _cells(occupied) == true_cells
    assert stream.bit_length <= 8
    assert len(tables) == 0


def test_full_solid_column_codes_interior_once():
    nz = 8
    true_cells = {(z, 0) for z in range(nz)}
    occupied, coded, _, _ = _run_both_sides(nz, 1, [({0: (0, nz - 1)}, true_cells)])
    assert coded == nz - 2
    assert _cells(occupied) == true_cells


def test_section_coder_matches_flood_fill_oracle():
    # Half the trials code the section after a random section 0, whose
    # reconstruction is the previous section of its contexts.
    rng = np.random.default_rng(424)
    for trial in range(60):
        nz = int(rng.integers(4, 33))
        nx = int(rng.integers(4, 33))
        shell = [shapes.random_section(rng, nz, nx, 0.6, 0.35)]
        if not shell[0][0]:
            continue
        if rng.random() < 0.5:
            shell.insert(0, shapes.random_section(rng, nz, nx, 0.8, 0.5))
        occupied, coded, stream, tables = _run_both_sides(nz, nx, shell)
        labels, bits, oracle_occupied = flood_fill_shell(nz, nx, shell)
        assert coded == len(labels), f"trial {trial}"
        assert occupied == oracle_occupied
        # The oracle's decisions, in its coding order, give the same bytes and counts.
        oracle_stream, oracle_tables = encode_section_decisions(labels, bits)
        assert stream == oracle_stream
        assert len(tables) == len(set(labels))
        assert table_bytes(tables) == table_bytes(oracle_tables)


def test_infeasible_cells_never_touched():
    true_cells = {(3, 2), (10, 2)} | {(z, 2) for z in range(4, 10, 2)}
    occupied, coded, _, _ = _run_both_sides(16, 6, [({2: (3, 10)}, true_cells)])
    # (4, 2) and (9, 2) around the seeds, then (5, 2) once (4, 2) codes
    # occupied: the columns beside the band hold no feasible cell.
    assert coded == 3
    for z, x in _cells(occupied):
        assert x == 2 and 3 <= z <= 10


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
def test_sweep_refuses_map_values_the_coded_types_cannot_hold(field, value):
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


def test_code_section_refuses_tables_that_do_not_span_the_section_contexts():
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
    assert _point_set(np.concatenate(decode_shells(blobs, cloud.dims))) == set(cloud.points)


def test_shells_triple_nested_overflows_to_residual():
    cloud = shapes.nested_hollow_spheres(48, (20, 12, 5))
    streams, residual = encode_shells(cloud, 2)
    assert len(streams) == 2
    assert len(residual) > 0
    blobs = [(a.data, b.data) for a, b in streams]
    decoded = _point_set(np.concatenate(decode_shells(blobs, cloud.dims)))
    assert decoded | _point_set(residual) == set(cloud.points)
    assert decoded.isdisjoint(_point_set(residual))


def test_shells_are_disjoint_point_sets():
    cloud = shapes.nested_hollow_cubes(32, (2, 9))
    streams, _ = encode_shells(cloud, 2)
    blobs = [(a.data, b.data) for a, b in streams]
    first, second = map(_point_set, decode_shells(blobs, cloud.dims))
    assert _point_set(decode_shells(blobs[:1], cloud.dims)[0]) == first
    assert first.isdisjoint(second) and second


def test_shell_leftovers_match_the_key_search():
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


_DIMS = (4, 5, 6)
_ROWS = np.array([[0, 0, 0], [0, 0, 5], [1, 4, 2], [3, 2, 1], [3, 2, 3]])
_OUTSIDE = [(4, 0, 0), (3, 5, 0), (3, 4, 6), (-1, 0, 0), (3, -1, 0), (3, 4, -1)]
_OUTSIDE_IDS = ["x-at-nx", "y-at-ny", "z-at-nz", "x-negative", "y-negative", "z-negative"]


@pytest.mark.parametrize("row", _OUTSIDE + [(3, 2, 3), (3, 2, 2), (3, 1, 5), (2, 4, 5)],
                         ids=_OUTSIDE_IDS + ["repeated", "z-out-of-order", "y-out-of-order", "x-out-of-order"])
def test_projection_refuses_a_row_outside_the_dims_or_out_of_order(row):
    with pytest.raises(ValueError, match="layout"):
        project_array(np.vstack((_ROWS, [row])), _DIMS)


@pytest.mark.parametrize("row", _OUTSIDE, ids=_OUTSIDE_IDS)
def test_grouping_refuses_a_row_outside_the_dims(row):
    pair = project_array(_ROWS, _DIMS)
    with pytest.raises(ValueError, match="layout"):
        build_section(pair, _DIMS, np.vstack((_ROWS, [row])))


def test_grouping_refuses_repeated_unsorted_out_of_band_and_empty_column_rows():
    # Every row lies inside the dims. _ROWS' maps give pixel (3, 2) the band
    # 1 .. 3 and pixel (3, 3) none: a repeated row, one out of order, one
    # above and one below its band, and one in an empty column.
    pair = project_array(_ROWS, _DIMS)
    bad = [np.vstack((_ROWS, [row])) for row in ((3, 2, 3), (0, 2, 1), (3, 2, 4), (3, 3, 0))]
    bad.append(np.insert(_ROWS, 3, (3, 2, 0), axis=0))
    for k, points in enumerate(bad):
        tables = count_tables(SECTION_CONTEXTS)
        encoder = _coder(tables)
        with pytest.raises(ValueError, match="layout"):
            sweep_encode(points, pair, _DIMS, tables, encoder)
        assert len(tables) == 0 and encoder.finish() == _coder(count_tables(SECTION_CONTEXTS)).finish(), k


def test_leftovers_keep_the_unlisted_rows_in_order():
    # A single shell leaves the rows its sweep did not reach to the residual,
    # in their order: 2,184 of the triple-nested spheres' 7,088 points.
    cloud = shapes.nested_hollow_spheres(48, (20, 12, 5))
    points = cloud.to_array()
    pair = project_array(points, cloud.dims)
    tables = count_tables(SECTION_CONTEXTS)
    reached, _ = sweep_encode(points, pair, cloud.dims, tables, _coder(tables))
    _, residual = encode_shells(cloud, 1)
    assert 0 < len(residual) < len(points)
    assert np.array_equal(residual, points[np.setdiff1d(np.arange(len(points)), reached)])


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
