"""Projection and surface-coding tests."""

import tracemalloc

import numpy as np
import pytest

from bvlcodec import VoxelCloud
from bvlcodec.depthmap import DepthmapPair, decode_depthmaps, encode_depthmaps, project_array
from bvlcodec.rangecoder import RangeDecoder, count_tables

from oracles import brute_force_depthmaps, reference_depthmap_decisions, reference_encode_depthmaps


def _project(cloud) -> DepthmapPair:
    return project_array(cloud.to_array(), cloud.dims)


def _pairs_equal(a: DepthmapPair, b: DepthmapPair) -> bool:
    if not np.array_equal(a.occ, b.occ):
        return False
    mask = a.occ.astype(bool)
    return np.array_equal(a.zmin[mask], b.zmin[mask]) and np.array_equal(
        a.zmax[mask], b.zmax[mask]
    )


def test_project_single_point():
    pair = _project(VoxelCloud.from_points({(3, 4, 7)}, (8, 8, 8)))
    assert pair.occ.sum() == 1 and pair.occ[3, 4] == 1
    assert pair.zmin[3, 4] == 7 and pair.zmax[3, 4] == 7


def test_project_extrema():
    pair = _project(VoxelCloud.from_points({(3, 4, 2), (3, 4, 9)}, (8, 8, 16)))
    assert pair.zmin[3, 4] == 2 and pair.zmax[3, 4] == 9


def test_project_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    pts = set(map(tuple, rng.integers(0, 50, size=(10_000, 3)).tolist()))
    cloud = VoxelCloud.from_points(pts, (50, 50, 50))
    pair = _project(cloud)
    lo, hi = brute_force_depthmaps(pts, cloud.dims)
    assert set(zip(*np.nonzero(pair.occ))) == set(lo)
    for (x, y), v in lo.items():
        assert pair.zmin[x, y] == v
    for (x, y), v in hi.items():
        assert pair.zmax[x, y] == v
    mask = pair.occ.astype(bool)
    assert np.all(pair.zmin[mask] <= pair.zmax[mask])


def test_project_refuses_depths_the_int32_maps_cannot_hold():
    # Stored in the int32 maps, z = 2^32 + 1 would read back as 1.
    with pytest.raises(ValueError, match="int32"):
        project_array(np.array([[0, 0, 2**32 + 1]]), (1, 1, 2**33))
    pair = project_array(np.array([[0, 0, 2**31 - 1]]), (1, 1, 2**31))
    assert pair.zmin[0, 0] == pair.zmax[0, 0] == 2**31 - 1


def test_project_is_order_independent():
    rng = np.random.default_rng(12)
    pts = [tuple(p) for p in rng.integers(0, 20, size=(500, 3)).tolist()]
    dims = (20, 20, 20)
    base = _project(VoxelCloud.from_points(pts, dims))
    for seed in range(3):
        shuffled = list(pts)
        np.random.default_rng(seed).shuffle(shuffled)
        assert _pairs_equal(base, _project(VoxelCloud.from_points(shuffled, dims)))


def _random_pair(nx, ny, nz, density, rng) -> DepthmapPair:
    occ = (rng.random((nx, ny)) < density).astype(np.uint8)
    zmin = np.zeros((nx, ny), dtype=np.int32)
    zmax = np.zeros((nx, ny), dtype=np.int32)
    xs, ys = np.nonzero(occ)
    for x, y in zip(xs.tolist(), ys.tolist()):
        a = int(rng.integers(0, nz))
        b = int(rng.integers(0, nz))
        zmin[x, y] = min(a, b)
        zmax[x, y] = max(a, b)
    return DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)


@pytest.mark.parametrize("density", [0.0, 0.01, 0.3, 1.0])
def test_round_trip_across_densities(density):
    rng = np.random.default_rng(int(density * 100) + 4)
    nx, ny, nz = 40, 37, 64
    pair = _random_pair(nx, ny, nz, density, rng)
    stream = encode_depthmaps(pair, nz)
    again = decode_depthmaps(stream.data, nx, ny, nz)
    assert _pairs_equal(pair, again)


def test_round_trip_fuzz_shapes_and_sizes():
    rng = np.random.default_rng(99)
    for _ in range(25):
        nx = int(rng.integers(1, 50))
        ny = int(rng.integers(1, 50))
        nz = int(rng.integers(1, 80))
        pair = _random_pair(nx, ny, nz, float(rng.uniform(0, 1)), rng)
        stream = encode_depthmaps(pair, nz)
        assert _pairs_equal(pair, decode_depthmaps(stream.data, nx, ny, nz))


def test_all_empty_mask_round_trip():
    nx, ny, nz = 16, 16, 16
    pair = DepthmapPair(
        occ=np.zeros((nx, ny), np.uint8),
        zmin=np.zeros((nx, ny), np.int32),
        zmax=np.zeros((nx, ny), np.int32),
    )
    stream = encode_depthmaps(pair, nz)
    again = decode_depthmaps(stream.data, nx, ny, nz)
    assert again.occ.sum() == 0


def test_constant_plane_rate_well_below_one_bpp():
    nx = ny = 512
    nz = 64
    pair = DepthmapPair(
        occ=np.ones((nx, ny), np.uint8),
        zmin=np.full((nx, ny), 23, np.int32),
        zmax=np.full((nx, ny), 23, np.int32),
    )
    stream = encode_depthmaps(pair, nz)
    assert _pairs_equal(pair, decode_depthmaps(stream.data, nx, ny, nz))
    assert stream.bit_length / (nx * ny) < 0.5


def test_points_at_z_zero_survive():
    cloud = VoxelCloud.from_points({(0, 0, 0), (1, 1, 0), (1, 1, 5)}, (4, 4, 8))
    pair = _project(cloud)
    stream = encode_depthmaps(pair, 8)
    again = decode_depthmaps(stream.data, 4, 4, 8)
    assert _pairs_equal(pair, again)
    assert again.occ[0, 0] == 1 and again.zmin[0, 0] == 0
    assert again.occ[2, 2] == 0


def _pair_from(occ, zmin, zmax) -> DepthmapPair:
    occ = np.asarray(occ, dtype=np.uint8)
    return DepthmapPair(
        occ=occ,
        zmin=np.asarray(zmin, dtype=np.int32) * occ,
        zmax=np.asarray(zmax, dtype=np.int32) * occ,
    )


def _reference_cases():
    rng = np.random.default_rng(21)
    # All occupied: the interior mask context codes 298^2 > RESCALE_LIMIT
    # decisions, so its counts get halved.
    ramp = np.add.outer(np.arange(300), np.arange(300)) // 8
    low = ramp + rng.integers(0, 3, size=(300, 300))
    yield "full-300", _pair_from(np.ones((300, 300)), low, low + rng.integers(0, 4, size=(300, 300))), 200
    for nx, ny in ((1, 9), (9, 1), (1, 1)):
        occ = np.ones((nx, ny)) if nx * ny == 1 else rng.random((nx, ny)) < 0.6
        z = np.sort(rng.integers(0, 16, size=(2, nx, ny)), axis=0)
        yield f"axis-{nx}x{ny}", _pair_from(occ, z[0], z[1]), 16
    # Residuals up to 69999 need 16 or more prefix bins: model 15 is reused.
    yield "deep", _pair_from(np.ones((2, 2)), [[0, 69999], [69999, 0]], [[69999, 69999], [69999, 0]]), 70000
    occ = rng.random((12, 10)) < 0.5
    occ[0] = False
    z = np.sort(rng.integers(0, 40, size=(2, 12, 10)), axis=0)
    yield "empty-first-row", _pair_from(occ, z[0], z[1]), 40
    # Sparse rows: pixels without an occupied neighbour take the last value
    # coded, often rows earlier.
    occ = rng.random((64, 200)) < 0.05
    z = np.sort(rng.integers(0, 90, size=(2, 64, 200)), axis=0)
    yield "sparse-blocks", _pair_from(occ, z[0], z[1]), 90
    occ = np.zeros((7, 5))
    occ[4, 3] = 1
    yield "single-pixel", _pair_from(occ, np.full((7, 5), 9), np.full((7, 5), 30)), 33


_REFERENCE_CASES = [pytest.param(pair, nz, id=name) for name, pair, nz in _reference_cases()]


@pytest.mark.parametrize("pair,nz", _REFERENCE_CASES)
def test_encoder_matches_the_scalar_reference(pair, nz):
    stream = encode_depthmaps(pair, nz)
    assert stream == reference_encode_depthmaps(pair, nz)
    assert _pairs_equal(pair, decode_depthmaps(stream.data, *pair.occ.shape, nz))


@pytest.mark.parametrize("pair,nz", _REFERENCE_CASES)
def test_python_loops_match_the_scalar_reference(pair, nz):
    # RangeDecoder.decode, one decision per kernel call (the self-test codes
    # through it), reads the reference's bits from the depth-map loops'
    # stream on the reference's contexts, count rescaling included: the
    # stream is one sequence of decisions, whichever loop codes it.
    decisions = reference_depthmap_decisions(pair, nz)
    decoder = RangeDecoder(encode_depthmaps(pair, nz).data, count_tables(1024 + 2 * 32))
    assert [decoder.decode(c) for c, _ in decisions] == [b for _, b in decisions]


# 2x2 maps that the decoder would refuse or decode to a different mask.
@pytest.mark.parametrize("occ,zmin,zmax", [
    ([[1, 1], [0, 1]], [[2, 5], [0, 1]], [[3, 4], [0, 1]]),
    ([[1, 0], [1, 1]], [[2, 0], [8, 1]], [[3, 0], [8, 1]]),
    ([[1, 2], [0, 1]], [[2, 3], [0, 1]], [[3, 3], [0, 1]]),
], ids=["zmax-below-zmin", "zmin-at-nz", "occ-byte-2"])
def test_encoder_refuses_malformed_maps(occ, zmin, zmax):
    pair = DepthmapPair(*(np.array(a, dtype) for a, dtype in ((occ, np.uint8), (zmin, np.int32),
                                                                (zmax, np.int32))))
    with pytest.raises(ValueError, match="layout"):
        encode_depthmaps(pair, 8)


# Traced peak of the pixel-by-pixel encoder on the map below, which built
# full-map context and bit lists before coding them.
_PIXEL_LOOP_PEAK_BYTES = 7_247_192


def test_encode_peak_memory_follows_the_block_not_the_map():
    # The depth map of a uniform scatter: 512 x 512, about 20% occupied,
    # one random z in 0..511 per pixel.
    rng = np.random.default_rng(0)
    occ = (rng.random((512, 512)) < 0.2).astype(np.uint8)
    z = rng.integers(0, 512, size=(512, 512), dtype=np.int32) * occ
    pair = DepthmapPair(occ=occ, zmin=z, zmax=z.copy())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        encode_depthmaps(pair, 512)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * _PIXEL_LOOP_PEAK_BYTES


def test_encoder_refuses_values_its_maps_cannot_hold():
    # Cast to uint8 and int32, these would code as an occ byte of 1 and a zmin of 1.
    occ = np.ones((2, 2), np.int64)
    z = np.full((2, 2), 3, np.int64)
    wide_occ = occ.copy()
    wide_occ[0, 1] = 257
    wide_z = z.copy()
    wide_z[1, 0] = (1 << 32) + 1
    for pair in (DepthmapPair(wide_occ, z, z), DepthmapPair(occ, wide_z, wide_z)):
        with pytest.raises(ValueError, match="layout"):
            encode_depthmaps(pair, 8)
    narrow = DepthmapPair(occ, z, z)
    assert _pairs_equal(narrow, decode_depthmaps(encode_depthmaps(narrow, 8).data, 2, 2, 8))


def test_encoder_refuses_a_residual_longer_than_the_decoder_reads():
    # The first low is predicted as nz // 2: with nz = 2^50 its residual
    # needs 50 prefix bins, and the decoder stops at 48.
    with pytest.raises(ValueError, match="layout"):
        encode_depthmaps(_pair_from(np.ones((1, 1)), [[0]], [[0]]), 1 << 50)


def test_encoder_refuses_maps_of_different_shapes():
    # The kernel reads every map at the mask's shape.
    pair = DepthmapPair(np.ones((3, 4), np.uint8), np.zeros((3, 4), np.int32), np.zeros((3, 3), np.int32))
    with pytest.raises(ValueError, match="shape"):
        encode_depthmaps(pair, 8)
