"""Cloud model, PLY I/O, quantization, and permutation tests."""

import warnings

import numpy as np
import pytest

from bvlcodec import AxisPermutation, PlyError, VoxelCloud, parse_ply, quantize, write_ply
from bvlcodec.cloud import PERMUTATION_COUNT, source_bit_depth

import shapes


def _ascii_ply(vertices, extra_header="", fmt="ascii"):
    body = "".join(f"{v[0]} {v[1]} {v[2]}\n" for v in vertices)
    return (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"{extra_header}"
        f"element vertex {len(vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n" + body
    ).encode()


def _sorted_set(rows):
    return [list(p) for p in sorted(set(map(tuple, rows)))]


_RNG = np.random.default_rng(12)
_SORTED = np.array(_sorted_set(_RNG.integers(0, 64, size=(300, 3)).tolist()))


@pytest.mark.parametrize("rows", [
    np.concatenate([_RNG.integers(0, 20, size=(400, 3))] * 2)[_RNG.permutation(800)],
    _RNG.integers(-30, 30, size=(500, 3)),
    np.array([[3, -1, 7]]),
    _SORTED,
    _SORTED[::-1],
    # The widest range that packs into 63 bits, and the first that does not.
    np.array([[0, 5, 1], [(1 << 21) - 1, 0, 0], [0, 5, 1], [7, 7, (1 << 21) - 1]]),
    np.array([[0, 5, 1], [1 << 21, 0, 0], [0, 5, 1], [7, 7, 1 << 21]]),
    np.array([[1 << 40, 2, 0], [0, 0, 0], [5, 1 << 40, 9], [0, 0, 0], [5, -(1 << 40), 9]]),
    np.array([[2**63 - 1, 0, -(2**63)], [-(2**63), 0, 0], [2**63 - 1, 0, -(2**63)], [0, 0, 0]]),
], ids=["duplicates", "negative", "single", "sorted", "reversed", "widest-packed", "too-wide",
        "wide-2^40", "int64-extremes"])
def test_cloud_rows_are_the_sorted_distinct_points(rows):
    cloud = VoxelCloud((1, 1, 1), rows)
    assert cloud.to_array().tolist() == _sorted_set(rows.tolist())
    assert cloud.to_array().dtype == np.int64


def test_parse_basic_and_default_dims():
    cloud = parse_ply(_ascii_ply([(0, 0, 0), (1, 2, 3)]))
    assert cloud.dims == (2, 3, 4)
    assert cloud.points == {(0, 0, 0), (1, 2, 3)}


def test_parse_duplicates_collapse():
    cloud = parse_ply(_ascii_ply([(4, 4, 4), (4, 4, 4)]))
    assert len(cloud.points) == 1


def test_parse_negative_coordinate_rejected():
    with pytest.raises(PlyError):
        parse_ply(_ascii_ply([(-1, 0, 0)]))


def test_default_dims_are_at_least_one_so_validate_names_the_point():
    cloud = VoxelCloud.from_points([(-1, 5, -2)])
    assert cloud.dims == (1, 6, 1)
    with pytest.raises(ValueError, match=r"point \(-1, 5, -2\) outside dims \(1, 6, 1\)"):
        cloud.validate()
    with pytest.raises(PlyError, match=r"outside dims \(1, 1, 1\)"):
        parse_ply(_ascii_ply([(-1, 0, 0)]))


def test_parse_non_integral_float_rejected():
    with pytest.raises(PlyError):
        parse_ply(_ascii_ply([(0.5, 0, 0)]))


def test_parse_integral_floats_accepted():
    cloud = parse_ply(_ascii_ply([(2.0, 3.0, 4.0)]))
    assert cloud.points == {(2, 3, 4)}


def test_parse_malformed_header():
    with pytest.raises(PlyError):
        parse_ply(b"not a ply at all")
    with pytest.raises(PlyError):
        parse_ply(b"ply\nformat ascii 1.0\nelement vertex 1\n")  # no end_header
    with pytest.raises(PlyError):
        parse_ply(b"ply\nformat ascii 1.0\nelement vertex 1\nproperty\nend_header\n0 0 0\n")
    with pytest.raises(PlyError):
        parse_ply(
            b"ply\nformat ascii 1.0\nelement vertex -2\n"
            b"property int x\nproperty int y\nproperty int z\nend_header\n"
        )


def test_parse_truncated_bodies():
    ascii_data = _ascii_ply([(0, 0, 0), (1, 1, 1)])
    with pytest.raises(PlyError):
        parse_ply(ascii_data.rsplit(b"\n", 2)[0] + b"\n")  # one vertex line missing
    cloud = VoxelCloud.from_points({(0, 0, 0), (3, 2, 1)})
    binary_data = write_ply(cloud, binary=True)
    with pytest.raises(PlyError):
        parse_ply(binary_data[:-4])


def test_parse_invalid_comment_dims_rejected():
    for dims in ("0 4 4", "4 -2 4"):
        data = _ascii_ply([(0, 0, 0)], extra_header=f"comment voxel_dims {dims}\n")
        with pytest.raises(PlyError):
            parse_ply(data)


def test_parse_non_finite_or_out_of_range_float_rejected():
    header = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        b"property double x\nproperty double y\nproperty double z\nend_header\n"
    )
    for value in (1e20, -1e20, float("inf"), float("nan")):
        body = np.array([[value, 0.0, 0.0]], dtype="<f8").tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a wrapping cast would warn first
            with pytest.raises(PlyError):
                parse_ply(header + body)
    with pytest.raises(PlyError):
        parse_ply(_ascii_ply([(1e20, 0, 0)]))


def test_parse_dims_override_and_comment():
    data = _ascii_ply([(1, 1, 1)], extra_header="comment voxel_dims 8 9 10\n")
    assert parse_ply(data).dims == (8, 9, 10)
    assert parse_ply(data, dims=(4, 4, 4)).dims == (4, 4, 4)
    with pytest.raises(PlyError):
        parse_ply(data, dims=(1, 1, 1))  # point outside explicit dims


def test_parse_extra_properties_ignored():
    data = (
        "ply\nformat ascii 1.0\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\n"
        "end_header\n"
        "0 0 0 255\n"
        "1 1 1 128\n"
    ).encode()
    assert parse_ply(data).points == {(0, 0, 0), (1, 1, 1)}


def test_write_parse_round_trip_ascii_and_binary():
    rng = np.random.default_rng(0)
    pts = set(map(tuple, rng.integers(0, 50, size=(400, 3)).tolist()))
    cloud = VoxelCloud.from_points(pts, (64, 64, 64))
    for binary in (False, True):
        again = parse_ply(write_ply(cloud, binary=binary))
        assert again == cloud  # dims survive via the comment line


@pytest.mark.parametrize("x", [-(1 << 40) + 5, -(1 << 31) - 1, 1 << 31], ids=["wraps-to-5", "below", "above"])
def test_binary_write_refuses_a_coordinate_outside_a_ply_int(x):
    cloud = VoxelCloud((1, 1, 1), [[x, 0, 0]])
    with pytest.raises(ValueError, match="does not fit a PLY int"):
        write_ply(cloud, binary=True)


def test_binary_write_keeps_the_int32_extremes():
    cloud = VoxelCloud((1, 1, 1), [[-(1 << 31), 0, (1 << 31) - 1]])
    body = write_ply(cloud, binary=True).split(b"end_header\n", 1)[1]
    assert np.frombuffer(body, dtype="<i4").tolist() == [-(1 << 31), 0, (1 << 31) - 1]


def test_binary_parse_matches_ascii():
    rng = np.random.default_rng(1)
    pts = set(map(tuple, rng.integers(0, 30, size=(100, 3)).tolist()))
    cloud = VoxelCloud.from_points(pts)
    assert parse_ply(write_ply(cloud, binary=True)).points == cloud.points


def test_empty_vertex_element():
    cloud = parse_ply(_ascii_ply([]))
    assert cloud.points == frozenset()
    assert cloud.dims == (1, 1, 1)


def test_quantize_shift_by_one():
    cloud = VoxelCloud.from_points({(2046, 0, 3)}, (2048, 2048, 2048))
    q = quantize(cloud, 10)
    assert q.points == {(1023, 0, 1)}
    assert q.dims == (1024, 1024, 1024)


def test_quantize_identity_at_source_depth():
    cloud = VoxelCloud.from_points({(5, 6, 7)}, (100, 100, 100))
    q = quantize(cloud, source_bit_depth(cloud))
    assert q.points == cloud.points
    assert q.dims == (128, 128, 128)


def test_quantize_collapse_matches_brute_force():
    cloud = VoxelCloud.from_points({(4, 5, 6), (5, 5, 7)}, (2048, 2048, 2048))
    q = quantize(cloud, 8)
    shift = source_bit_depth(cloud) - 8
    expected = {(x >> shift, y >> shift, z >> shift) for x, y, z in cloud.points}
    assert shift == 3
    assert q.points == expected == {(0, 0, 0)}


def test_quantize_random_matches_brute_force():
    rng = np.random.default_rng(17)
    pts = set(map(tuple, rng.integers(0, 1024, size=(500, 3)).tolist()))
    cloud = VoxelCloud.from_points(pts, (1024, 1024, 1024))
    for bits in (9, 7, 4, 1):
        shift = 10 - bits
        expected = {(x >> shift, y >> shift, z >> shift) for x, y, z in pts}
        q = quantize(cloud, bits)
        assert q.points == expected
        assert q.dims == (1 << bits,) * 3
        assert quantize(q, bits).points == q.points  # idempotent at same depth


def test_quantize_above_source_depth_is_noop():
    cloud = VoxelCloud.from_points({(1, 2, 3)}, (10, 10, 10))
    assert quantize(cloud, 12) is cloud


def test_permutation_example_and_identity():
    cloud = VoxelCloud.from_points({(1, 2, 3)}, (8, 8, 8))
    ident = AxisPermutation(0)
    assert ident.apply(cloud) == cloud
    zxy = AxisPermutation.from_axes((2, 0, 1))
    assert zxy.apply(cloud).points == {(3, 1, 2)}


def test_identity_permutation_returns_its_argument():
    cloud = VoxelCloud.from_points({(1, 2, 3), (4, 0, 7)}, (8, 9, 10))
    ident = AxisPermutation(0)
    assert ident.apply(cloud) is cloud
    assert ident.inverse().apply(cloud) is cloud
    for pid in range(1, PERMUTATION_COUNT):
        perm = AxisPermutation(pid)
        permuted = perm.apply(cloud)
        assert permuted is not cloud and permuted.dims != cloud.dims
        assert perm.inverse().apply(permuted) == cloud


def test_permutation_round_trip_all_six():
    rng = np.random.default_rng(3)
    pts = set(map(tuple, rng.integers(0, 40, size=(1000, 3)).tolist()))
    cloud = VoxelCloud.from_points(pts, (40, 50, 60))
    for pid in range(PERMUTATION_COUNT):
        perm = AxisPermutation(pid)
        permuted = perm.apply(cloud)
        assert len(permuted.points) == len(cloud.points)
        assert perm.inverse().apply(permuted) == cloud


def test_cloud_arrays_are_c_ordered_in_every_permutation():
    # A permutation's column selection is Fortran-ordered, and rows it leaves
    # sorted are kept as they come; the kernel reads each row where it lies.
    for _, cloud in shapes.fuzz_suite():
        for pid in range(PERMUTATION_COUNT):
            assert AxisPermutation(pid).apply(cloud).to_array().flags.c_contiguous
    assert VoxelCloud((64, 64, 64), np.asfortranarray(_SORTED)).to_array().flags.c_contiguous


def test_permutation_dims_follow_axes():
    cloud = VoxelCloud.from_points({(0, 0, 0)}, (2, 3, 4))
    for pid in range(PERMUTATION_COUNT):
        perm = AxisPermutation(pid)
        dims = perm.apply(cloud).dims
        assert sorted(dims) == [2, 3, 4]
        a, b, c = perm.axes
        assert dims == (cloud.dims[a], cloud.dims[b], cloud.dims[c])


def test_invalid_inputs():
    with pytest.raises(ValueError):
        VoxelCloud((0, 1, 1), frozenset())
    with pytest.raises(ValueError):
        AxisPermutation(6)
    with pytest.raises(ValueError):
        quantize(VoxelCloud.from_points({(0, 0, 0)}), 0)
    bad = VoxelCloud((2, 2, 2), frozenset({(5, 0, 0)}))
    with pytest.raises(ValueError):
        bad.validate()


_DTYPES = {"int": "<i4", "uchar": "u1", "float": "<f4", "double": "<f8"}


def _ascii_and_binary(props, rows, before=()):
    """One vertex table as an ASCII and as a binary PLY with the same declared types.

    `before` lists (name, count, props) elements written ahead of the vertices.
    """
    elements = [*before, ("vertex", len(rows), props)]
    head = "".join(
        f"element {name} {count}\n" + "".join(f"property {kind} {prop}\n" for kind, prop in ps)
        for name, count, ps in elements
    )
    plys = []
    for fmt in ("ascii", "binary_little_endian"):
        data = f"ply\nformat {fmt} 1.0\n{head}end_header\n".encode()
        for _, count, ps in elements:
            table = [tuple(rows[i]) if ps is props else (0,) * len(ps) for i in range(count)]
            if fmt == "ascii":
                data += "".join(" ".join(map(str, row)) + "\n" for row in table).encode()
            else:
                dtype = np.dtype([(f"f{i}", _DTYPES[kind]) for i, (kind, _) in enumerate(ps)])
                data += np.array(table, dtype=dtype).tobytes()
        plys.append(data)
    return plys


_XYZ = {kind: [(kind, "x"), (kind, "y"), (kind, "z")] for kind in ("int", "float", "double")}
_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("props, rows, expected", [
    (_XYZ["double"], [(2.0, 3.0, 4.0), (0.0, -0.0, 1.0)], {(2, 3, 4), (0, 0, 1)}),
    (_XYZ["float"], [(16777216.0, 5.0, 0.0)], {(16777216, 5, 0)}),
    (_XYZ["double"], [(1.0, 0.5, 2.0)], PlyError),
    (_XYZ["float"], [(0.0, 0.0, 0.5)], PlyError),
    (_XYZ["double"], [(_INF, 0.0, 0.0)], PlyError),
    (_XYZ["float"], [(0.0, -_INF, 0.0)], PlyError),
    (_XYZ["double"], [(0.0, 0.0, _NAN)], PlyError),
    (_XYZ["double"], [(1e20, 0.0, 0.0)], PlyError),
    (_XYZ["float"], [(0.0, 1e20, 0.0)], PlyError),
    (_XYZ["int"], [(3, -1, 0)], PlyError),
    (_XYZ["double"], [(0.0, 0.0, -2.0)], PlyError),
    ([("int", "x"), ("float", "y"), ("double", "z")], [(7, 8.0, 9.0), (1, 2.0, 3.0)],
     {(7, 8, 9), (1, 2, 3)}),
    ([("int", "x"), ("float", "y"), ("double", "z")], [(7, 8.5, 9.0)], PlyError),
    ([("uchar", "red"), ("int", "z"), ("int", "y"), ("int", "x"), ("uchar", "alpha")],
     [(255, 1, 2, 3, 0), (0, 6, 5, 4, 9)], {(3, 2, 1), (4, 5, 6)}),
], ids=["integral-floats", "float-2^24", "half", "float-half", "inf", "minus-inf", "nan",
        "1e20", "float-1e20", "negative-int", "negative-float", "mixed", "mixed-half",
        "extra-uchar"])
def test_ascii_and_binary_vertices_parse_alike(props, rows, expected):
    for data in _ascii_and_binary(props, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a wrapping cast would warn first
            if expected is PlyError:
                with pytest.raises(PlyError):
                    parse_ply(data)
            else:
                assert parse_ply(data).points == expected


def test_elements_before_the_vertices_are_skipped():
    faces = ("face", 2, [("int", "a"), ("uchar", "b")])
    for data in _ascii_and_binary(_XYZ["int"], [(1, 2, 3)], before=[faces]):
        assert parse_ply(data).points == {(1, 2, 3)}


def test_ascii_float_coordinate_keeps_every_digit():
    # float32 would round 2^24 + 1 to 2^24; ASCII tokens parse as float64.
    assert parse_ply(_ascii_ply([(16777217, 0, 0)])).points == {(16777217, 0, 0)}


def _mutated(rng, data):
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        op, at = int(rng.integers(3)), int(rng.integers(len(data)))
        if op == 0:
            data[at] ^= 1 << int(rng.integers(8))
        elif op == 1:
            del data[at]
        else:
            data.insert(at, int(rng.choice([0x20, 0x0A, 0x2D, 0x2E, 0x30, 0x65, rng.integers(256)])))
    return bytes(data)


def test_mutated_plys_parse_or_raise_ply_error():
    rng = np.random.default_rng(2024)
    rows = rng.integers(0, 40, size=(8, 3)).tolist()
    bases = [
        *_ascii_and_binary(_XYZ["int"] + [("uchar", "red")], [(*row, 9) for row in rows]),
        *_ascii_and_binary(_XYZ["float"], rows, before=[("edge", 2, [("int", "a")])]),
        *_ascii_and_binary(_XYZ["double"], rows),
    ]
    parsed = 0
    for i in range(2000):
        data = _mutated(rng, bases[i % len(bases)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                parse_ply(data)
                parsed += 1
            except PlyError:
                pass
    assert 0 < parsed < 2000
