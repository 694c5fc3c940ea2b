"""Section building, list-driven coding, sweep, and shell tests."""

import numpy as np
import pytest

from bvlcodec import sections
from bvlcodec.cloud import PERMUTATION_COUNT, AxisPermutation, VoxelCloud
from bvlcodec.depthmap import DepthmapPair, project_array
from bvlcodec.errors import BitstreamError, TruncatedStreamError
from bvlcodec.rangecoder import RangeDecoder, RangeEncoder, count_tables
from bvlcodec.sections import (
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
    occupied_cells,
    reference_build_section,
    reference_encode_section,
    reference_sweep_encode,
    section_flood_fill,
    unknown_count,
)


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
    st = nx + 2
    t = bytearray((nz + 2) * st)
    for z, x in true_cells:
        t[(z + 1) * st + x + 1] = 1
    return bytes(t)


def test_build_section_empty_column():
    pair = _single_section_pair(8, 4, {1: (2, 5)})
    buf = sections._section_buffers(pair, 0, 8)
    st = buf.stride
    # column 3 has no occupancy: everything there is known empty
    for z in range(8):
        assert buf.state[(z + 1) * st + 3 + 1] == 1


def test_build_section_single_cell_interval():
    pair = _single_section_pair(8, 4, {2: (5, 5)})
    buf = sections._section_buffers(pair, 0, 8)
    st = buf.stride
    assert buf.state[(5 + 1) * st + 2 + 1] == 2
    assert unknown_count(buf) == 0
    assert occupied_cells(buf) == {(5, 2)}


def test_build_section_interval_counts():
    pair = _single_section_pair(16, 4, {1: (2, 9)})
    buf = sections._section_buffers(pair, 0, 16)
    st = buf.stride
    assert buf.state[(2 + 1) * st + 1 + 1] == 2
    assert buf.state[(9 + 1) * st + 1 + 1] == 2
    for z in range(3, 9):
        assert buf.state[(z + 1) * st + 1 + 1] == 0
    assert unknown_count(buf) == 6


def test_build_section_list_is_row_major_dilation():
    # Unknown cells in columns 0, 1 and 2; column 5 is a lone seed.
    columns = {0: (1, 5), 1: (2, 6), 2: (0, 4), 5: (3, 3)}
    pair = _single_section_pair(8, 8, columns)
    buf = sections._section_buffers(pair, 0, 8)
    st = buf.stride
    cells = [((i // st) - 1, (i % st) - 1) for i in buf.queue]
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
    assert np.flatnonzero(buf.marked).tolist() == list(buf.queue)


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
    """Encode one section with the reference loop and decode it with the Python one.

    Without prev the section is also a whole shell, whose decode through
    build_section and code_section (in the kernel when it loads) must agree.
    """
    nx = pair.occ.shape[0]
    enc = RangeEncoder(*count_tables(0))
    enc_buf = sections._section_buffers(pair, 0, nz, prev)
    enc_cells: list = []
    enc_models: dict = {}
    coded_enc = reference_encode_section(
        enc_buf, enc_models, enc, _true_bytes(true_cells, nz, nx), coded_cells=enc_cells,
    )
    stream = enc.finish()
    dec_buf = sections._section_buffers(pair, 0, nz, prev)
    coded_dec = sections._code_buffers(dec_buf, {}, RangeDecoder(stream, *count_tables(0)))
    if prev is None:
        shell = build_section(pair, (nx, 1, nz))
        recon, coded = code_section(shell, {}, decoder=RangeDecoder(stream, *count_tables(0)))
        assert coded == coded_dec
        assert {(z, x) for x, _, z in recon.tolist()} == occupied_cells(dec_buf)
    return enc_buf, dec_buf, enc_cells, coded_enc, coded_dec, stream


def test_all_seed_section_codes_nothing():
    pair = _single_section_pair(8, 6, {0: (1, 2), 2: (4, 4), 5: (0, 1)})
    true_cells = {(1, 0), (2, 0), (4, 2), (0, 5), (1, 5)}
    _, _, cells, ce, cd, stream = _run_both_sides(pair, 8, true_cells)
    assert ce == cd == 0
    assert cells == []
    assert stream.bit_length <= 8


def test_full_solid_column_codes_interior_once():
    nz = 8
    pair = _single_section_pair(nz, 1, {0: (0, nz - 1)})
    true_cells = {(z, 0) for z in range(nz)}
    enc_buf, dec_buf, cells, ce, cd, _ = _run_both_sides(pair, nz, true_cells)
    assert ce == cd == nz - 2
    assert len(cells) == len(set(cells))
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
        if rng.random() < 0.5:
            st = nx + 2
            noise = (rng.random((nz + 2) * st) < 0.2).astype(np.uint8)
            prev = noise.tobytes()
        enc_buf, dec_buf, cells, ce, cd, _ = _run_both_sides(pair, nz, true_cells, prev)
        st = enc_buf.stride
        coded_set = {((i // st) - 1, (i % st) - 1) for i in cells}
        oracle_coded, oracle_occupied = section_flood_fill(nz, nx, columns, true_cells)
        assert coded_set == oracle_coded
        assert len(cells) == len(set(cells))
        assert ce == cd == len(oracle_coded)
        assert occupied_cells(enc_buf) == oracle_occupied
        assert occupied_cells(dec_buf) == oracle_occupied


def test_infeasible_cells_never_touched():
    pair = _single_section_pair(16, 6, {2: (3, 10)})
    true_cells = {(3, 2), (10, 2)} | {(z, 2) for z in range(4, 10, 2)}
    enc_buf, _, cells, _, _, _ = _run_both_sides(pair, 16, true_cells)
    st = enc_buf.stride
    for i in cells:
        z, x = (i // st) - 1, (i % st) - 1
        assert x == 2 and 3 <= z <= 10
    for (z, x) in occupied_cells(enc_buf):
        assert x == 2 and 3 <= z <= 10


def _point_set(points):
    return set(map(tuple, points.tolist()))


def _sweep_round_trip(cloud, models_enc=None, models_dec=None):
    pair = project_array(cloud.to_array(), cloud.dims)
    enc = RangeEncoder(*count_tables(0))
    recon_enc, n_enc = sweep_encode(
        cloud.to_array(), pair, cloud.dims, {} if models_enc is None else models_enc, enc
    )
    stream = enc.finish()
    recon_dec, n_dec = sweep_decode(
        pair, cloud.dims, {} if models_dec is None else models_dec, RangeDecoder(stream, *count_tables(0))
    )
    assert n_enc == n_dec
    enc_set = _point_set(recon_enc)
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


def _model_counts(models, coder):
    return {label: (coder.c0[slot], coder.c1[slot]) for label, slot in models.items()}


def _assert_sweep_matches_reference(cloud, shells=2):
    """sweep_encode against the cell-by-cell reference, and sweep_decode against both.

    Each side keeps one models dict and one pair of count tables across the
    shells, as encode_shells and decode_shells do; each shell must give the
    same section bytes, decision count, reconstruction and model counts.
    """
    dims = cloud.dims
    models: dict = {}
    ref_models: dict = {}
    dec_models: dict = {}
    tables = count_tables(0)
    ref_tables = count_tables(0)
    dec_tables = count_tables(0)
    remaining = cloud.to_array()
    decisions = 0
    for _ in range(shells):
        if not len(remaining):
            break
        pair = project_array(remaining, dims)
        enc, ref_enc = RangeEncoder(*tables), RangeEncoder(*ref_tables)
        recon, n = sweep_encode(remaining, pair, dims, models, enc)
        ref_recon, ref_n = reference_sweep_encode(remaining, pair, dims, ref_models, ref_enc)
        stream = enc.finish()
        assert stream == ref_enc.finish()
        assert n == ref_n
        assert _point_set(recon) == _point_set(ref_recon)
        assert len(models) == len(ref_models)
        assert _model_counts(models, enc) == _model_counts(ref_models, ref_enc)
        dec = RangeDecoder(stream.data, *dec_tables)
        dec_recon, dec_n = sweep_decode(pair, dims, dec_models, dec)
        assert dec_n == n
        assert _point_set(dec_recon) == _point_set(recon)
        # The tables are compared label by label, so slot order is free.
        assert _model_counts(dec_models, dec) == _model_counts(models, enc)
        decisions += n
        keys = np.ravel_multi_index(remaining.T, dims)
        remaining = remaining[~np.isin(keys, np.ravel_multi_index(recon.T, dims))]
    return decisions


def test_sweep_encode_matches_reference_on_fuzz_suite_in_every_permutation():
    for _, cloud in shapes.fuzz_suite():
        for pid in range(PERMUTATION_COUNT):
            _assert_sweep_matches_reference(AxisPermutation(pid).apply(cloud))


def _layered_cloud(rng, nx, ny, nz, empty_ys):
    """Random thick layers per section, some sections left empty."""
    points = []
    for y in range(ny):
        if y in empty_ys:
            continue
        for x in range(nx):
            lo, hi = sorted(rng.integers(0, nz, size=2).tolist())
            zs = [z for z in range(lo, hi + 1) if z in (lo, hi) or rng.random() < 0.7]
            points += [(x, y, z) for z in zs]
    return VoxelCloud((nx, ny, nz), points)


def test_sweep_encode_matches_reference_when_kernel_calls_resume(monkeypatch):
    # Slabs of 10 x 10 cells; section 3 is empty, so section 4 reads a blank
    # previous section. With room for 7 bits and one slot, the kernel's shell
    # loop stops every few decisions and at every new label, so its calls
    # resume inside and across sections.
    monkeypatch.setattr(sections, "_BITS_ROOM", 7)
    monkeypatch.setattr(sections, "_SLOTS_ROOM", 1)
    rng = np.random.default_rng(77)
    for _ in range(4):
        cloud = _layered_cloud(rng, 8, 12, 8, {3})
        assert _assert_sweep_matches_reference(cloud) > 3 * 7


def test_sweep_encode_matches_reference_over_many_blocks():
    cloud = shapes.solid_sphere(48, 20)
    assert _assert_sweep_matches_reference(cloud) > 2 * (1 << 14)


def test_sweep_encode_matches_reference_with_no_decisions():
    rng = np.random.default_rng(5)
    cloud = shapes.thin_pair_cloud(12, 12, 24, rng)
    assert _assert_sweep_matches_reference(cloud) == 0


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
