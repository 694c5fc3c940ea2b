"""Container framing, top-level round trips, and report invariants."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bvlcodec
from bvlcodec import (
    AxisPermutation,
    BitstreamError,
    ContainerError,
    EmptyCloudError,
    TruncatedStreamError,
    VoxelCloud,
    decode_cloud,
    encode_cloud,
)
from bvlcodec.container import _FIXED, MAGIC, MAX_PLANE_CELLS, MAX_SHELLS, _assemble, _check_dims
from bvlcodec.sections import encode_residual, encode_shells

import shapes


def _random_cloud(seed=0, n=32, count=300):
    rng = np.random.default_rng(seed)
    pts = set(map(tuple, rng.integers(0, n, size=(count, 3)).tolist()))
    return VoxelCloud.from_points(pts, (n, n, n))


def test_round_trip_fixed_permutations():
    cloud = _random_cloud(1)
    for pid in range(6):
        blob, report = encode_cloud(cloud, permutation=pid)
        assert decode_cloud(blob) == cloud
        assert report.permutation == pid


def test_round_trip_auto():
    cloud = shapes.hollow_sphere(32, 10)
    blob, report = encode_cloud(cloud)
    assert decode_cloud(blob) == cloud
    assert len(report.permutation_totals) == 6


def test_encode_is_deterministic():
    cloud = _random_cloud(2)
    blob1, _ = encode_cloud(cloud, permutation=3)
    blob2, _ = encode_cloud(cloud, permutation=3)
    assert blob1 == blob2
    auto1, _ = encode_cloud(cloud)
    auto2, _ = encode_cloud(cloud)
    assert auto1 == auto2


def test_auto_picks_minimum_of_fixed_runs():
    cloud = _random_cloud(3, n=24, count=150)
    fixed_totals = [encode_cloud(cloud, permutation=pid)[1].total_bits for pid in range(6)]
    blob, report = encode_cloud(cloud)
    assert report.total_bits == min(fixed_totals)
    assert list(report.permutation_totals) == fixed_totals
    assert report.permutation == fixed_totals.index(min(fixed_totals))
    assert decode_cloud(blob) == cloud


def test_solid_cube_all_permutations_equal():
    cloud = shapes.solid_cube(16, 4, 12)
    totals = [encode_cloud(cloud, permutation=pid)[1].total_bits for pid in range(6)]
    assert len(set(totals)) == 1


def test_report_invariants():
    cloud = shapes.nested_hollow_spheres(32, (12, 6))
    blob, r = encode_cloud(cloud, permutation=0)
    assert r.total_bits == r.stage1_bits + r.stage2_bits + r.residual_bits
    assert r.stage1_bits == sum(r.stage1_bits_per_shell)
    assert r.stage2_bits == sum(r.stage2_bits_per_shell)
    assert r.bpv == pytest.approx(r.total_bits / r.points)
    assert r.points == len(cloud.points)
    assert r.shells == 2
    assert r.container_bytes == len(blob)
    # payload bits fit in the framed payload bytes
    payload_bytes = len(blob) - _FIXED.size - 4 * (2 * r.shells + 1)
    assert payload_bytes * 8 >= r.total_bits > (payload_bytes - (2 * r.shells + 1)) * 8 - 8


def test_empty_cloud_rejected_distinctly():
    with pytest.raises(EmptyCloudError):
        encode_cloud(VoxelCloud((4, 4, 4), frozenset()))


def test_bad_magic_rejected():
    blob, _ = encode_cloud(_random_cloud(4), permutation=0)
    bad = b"XXXX" + blob[4:]
    with pytest.raises(ContainerError):
        decode_cloud(bad)


def test_bad_version_rejected():
    blob, _ = encode_cloud(_random_cloud(5), permutation=0)
    bad = bytearray(blob)
    bad[4] = 0xFF
    with pytest.raises(ContainerError):
        decode_cloud(bytes(bad))


def test_truncation_rejected_at_every_region():
    blob, _ = encode_cloud(_random_cloud(6), permutation=0)
    for cut in (4, _FIXED.size - 1, _FIXED.size + 2, len(blob) - 1):
        with pytest.raises(TruncatedStreamError):
            decode_cloud(blob[:cut])


def test_trailing_garbage_rejected():
    blob, _ = encode_cloud(_random_cloud(7), permutation=0)
    with pytest.raises(ContainerError):
        decode_cloud(blob + b"\x00")


def test_magic_constant():
    blob, _ = encode_cloud(_random_cloud(8), permutation=0)
    assert blob[:4] == MAGIC == b"BVL1"


def test_single_point_and_degenerate_dims():
    for cloud in (
        VoxelCloud.from_points({(0, 0, 0)}, (1, 1, 1)),
        VoxelCloud.from_points({(0, 0, 0), (4, 0, 0)}, (5, 1, 1)),
        VoxelCloud.from_points({(2, 3, 0)}, (4, 4, 1)),
    ):
        blob, _ = encode_cloud(cloud, permutation=0)
        assert decode_cloud(blob) == cloud


def test_hollow_sphere_beats_reference_rates():
    from oracles import raw_octree_bits

    cloud = shapes.hollow_sphere(64, 20)
    _, report = encode_cloud(cloud)
    assert report.bpv < 3 * 6  # trivial raw coordinate coding at 64^3
    octree_bpv = raw_octree_bits(cloud.points, 6) / len(cloud.points)
    assert report.bpv < 1.5 * octree_bpv


def test_max_shells_one_forces_residual():
    cloud = shapes.nested_hollow_cubes(24, (1, 8))
    blob, report = encode_cloud(cloud, permutation=0, max_shells=1)
    assert report.shells == 1
    assert report.residual_bits > 32
    assert decode_cloud(blob) == cloud


def test_shell_passes_stop_at_the_header_byte():
    # 600 points at even z in one column: each pass peels the lowest and the
    # highest, so 300 are needed.
    cloud = VoxelCloud.from_points([(0, 0, z) for z in range(0, 1200, 2)], (1, 1, 1200))
    blob, report = encode_cloud(cloud, permutation=0, max_shells=300)
    assert report.shells == MAX_SHELLS == 255
    assert report.residual_bits == 32 + 90 * 11  # 90 points left, 11 bits of z each
    assert blob == encode_cloud(cloud, permutation=0, max_shells=MAX_SHELLS)[0]
    assert decode_cloud(blob) == cloud


def test_a_point_decoded_twice_fails_closed():
    cloud = shapes.nested_hollow_cubes(24, (1, 8))
    shells, residual = encode_shells(cloud, 1)
    honest = _assemble(0, cloud.dims, shells, encode_residual(residual, cloud.dims))
    assert honest == encode_cloud(cloud, permutation=0, max_shells=1)[0]
    assert decode_cloud(honest) == cloud
    # A residual that also lists a point the shell reconstructs.
    in_residual = set(map(tuple, residual.tolist()))
    shell_point = next(p for p in cloud.to_array().tolist() if tuple(p) not in in_residual)
    doubled = np.vstack([residual, [shell_point]])
    forged = _assemble(0, cloud.dims, shells, encode_residual(doubled, cloud.dims))
    with pytest.raises(BitstreamError):
        decode_cloud(forged)


@pytest.mark.parametrize("permutation", [0, 4])
def test_a_residual_that_repeats_a_shell_point_fails_closed_in_any_permutation(permutation):
    # The check counts the distinct points the constructor keeps, so it
    # holds only while building a cloud drops repeated rows.
    cloud = shapes.nested_hollow_spheres(24, (10, 5))
    permuted = AxisPermutation(permutation).apply(cloud)
    shells, residual = encode_shells(permuted, 1)
    honest = _assemble(permutation, permuted.dims, shells, encode_residual(residual, permuted.dims))
    assert honest == encode_cloud(cloud, permutation=permutation, max_shells=1)[0]
    assert decode_cloud(honest) == cloud
    in_residual = set(map(tuple, residual.tolist()))
    shell_point = next(p for p in permuted.to_array().tolist() if tuple(p) not in in_residual)
    repeated = np.vstack([residual, [shell_point]])
    forged = _assemble(permutation, permuted.dims, shells, encode_residual(repeated, permuted.dims))
    with pytest.raises(BitstreamError, match="decoded points repeat"):
        decode_cloud(forged)


# Run in a child process whose address space is capped at 1 GiB, so a codec
# that allocated before checking the dims fails there with MemoryError
# instead of taking the host's memory.
_OUTSIZED_DIMS_SCRIPT = """
import json, resource, sys
import numpy as np
from bvlcodec import VoxelCloud, decode_cloud, encode_cloud
from bvlcodec.container import _FIXED

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
rng = np.random.default_rng(1729)
points = rng.integers(0, 24, size=(400, 3))
blob, _ = encode_cloud(VoxelCloud.from_points(points, (24, 24, 24)), permutation=0)
head = _FIXED.unpack_from(blob)[:4]
attempts = [
    lambda d=d: decode_cloud(_FIXED.pack(*head, *d) + blob[_FIXED.size:])
    for d in json.loads(sys.argv[1])
]
far = VoxelCloud.from_points({(0, 0, 0)}, (1 << 31, 24, 24))
attempts.append(lambda: encode_cloud(far, permutation=0))
outcomes = []
for attempt in attempts:
    try:
        attempt()
        outcomes.append("no error")
    except Exception as exc:
        outcomes.append(type(exc).__name__)
print(json.dumps(outcomes))
"""


def test_outsized_dims_fail_closed():
    dims = [(1 << 31, 24, 24), (24, 1 << 31, 24), (24, 24, 1 << 31), (1 << 16, 1 << 16, 24)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(bvlcodec.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", _OUTSIZED_DIMS_SCRIPT, json.dumps(dims)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["ContainerError"] * (len(dims) + 1)


def test_plane_limit_is_exact():
    side = 8190  # (8190 + 2)^2 == MAX_PLANE_CELLS
    assert (side + 2) ** 2 == MAX_PLANE_CELLS
    for dims in ((side, side, 1), (1, side, side), (side, 1, side), (1, 1, 1)):
        _check_dims(dims)
    for dims in ((side + 1, side, 1), (1, side, side + 1), (side + 1, 5, side)):
        with pytest.raises(ContainerError):
            _check_dims(dims)
