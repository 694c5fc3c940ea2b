"""Seeded synthetic clouds for the benchmark workloads, written as PLY bytes.

Run as a script, this prints one workload's cloud as a binary PLY on
standard output:

    python3 perfbench/corpus.py WORKLOAD SEED

The measuring process runs it as a child, so generator memory never counts
toward the codec's peak RSS, and the codec only ever sees PLY bytes. The
generators build their clouds one slice at a time to keep their own peak
memory small; they do not import the codec.
"""

from __future__ import annotations

import sys

import numpy as np

WORKLOADS = ("hollow_sphere", "nested_solid", "terrain_auto", "sparse_scatter")


def _slice_distances(n: int, center) -> np.ndarray:
    """Squared distances of one x slice's (y, z) cells, minus the x term."""
    ys, zs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return (ys - center[1]) ** 2 + (zs - center[2]) ** 2


def _radial_bands(n: int, center, bands) -> np.ndarray:
    """Voxels whose centre distance falls in any [inner, outer] band."""
    base = _slice_distances(n, center)
    chunks = []
    for x in range(n):
        d2 = base + (x - center[0]) ** 2
        keep = np.zeros(d2.shape, dtype=bool)
        for inner, outer in bands:
            keep |= (d2 >= inner * inner) & (d2 <= outer * outer)
        ys, zs = np.nonzero(keep)
        if ys.size:
            chunks.append(np.column_stack((np.full(ys.size, x), ys, zs)))
    return np.concatenate(chunks)


def _jittered_center(n: int, rng, shift: int) -> np.ndarray:
    """Grid centre moved by a seeded whole number of voxels per axis.

    Whole-voxel moves keep the voxelization's shape, so the rate stays
    steady from seed to seed while the coordinates change.
    """
    return (n - 1) / 2 + rng.integers(-shift, shift + 1, size=3)


def hollow_sphere(rng) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Thin 256^3 sphere shell, radius about 110: one shell, no residual."""
    n = 256
    radius = 110.0 + rng.uniform(-0.05, 0.05)
    points = _radial_bands(n, _jittered_center(n, rng, 8), [(radius - 0.5, radius + 0.5)])
    return points, (n, n, n)


def nested_solid(rng) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Outer shell, thick solid wall and a small solid core in 128^3.

    The outer shell is shell 1, the wall is shell 2 and the core, enclosed
    by the wall, is left to the raw residual.
    """
    n = 128
    j = rng.uniform(0.998, 1.002, size=4)
    outer = 0.45 * n * j[0]
    bands = [
        (outer - 0.5, outer + 0.5),
        (0.18 * n * j[1], 0.30 * n * j[2]),
        (0.0, 0.04 * n * j[3]),
    ]
    return _radial_bands(n, _jittered_center(n, rng, 4), bands), (n, n, n)


def terrain_auto(rng) -> tuple[np.ndarray, tuple[int, int, int]]:
    """One voxel per column of a 256x256 sinusoid heightfield, 64 deep.

    The surface is flat seen along z and folded seen along x or y, so the
    six axis orderings cost different numbers of bits. Whole cycles across
    the grid make the field periodic; the seed shifts it by 0 to 3 pixels
    per axis, which keeps the rate steady from seed to seed.
    """
    nx, ny, nz = 256, 256, 64
    dx, dy = rng.integers(0, 4, size=2)
    x, y = np.meshgrid(np.arange(nx) + dx, np.arange(ny) + dy, indexing="ij")
    turn = 2 * np.pi / nx
    h = 31.5 + 14.0 * np.sin(2 * turn * x) + 10.0 * np.sin(3 * turn * y) + 4.0 * np.sin(turn * (2 * y - 3 * x))
    z = np.clip(np.rint(h), 0, nz - 1).astype(np.int64)
    points = np.column_stack(((x - dx).ravel(), (y - dy).ravel(), z.ravel()))
    return points, (nx, ny, nz)


def sparse_scatter(rng) -> tuple[np.ndarray, tuple[int, int, int]]:
    """60,000 distinct uniform random voxels in 512^3."""
    n = 512
    keys = rng.choice(n**3, size=60_000, replace=False)
    xs, rem = np.divmod(keys, n * n)
    ys, zs = np.divmod(rem, n)
    return np.column_stack((xs, ys, zs)), (n, n, n)


def generate(workload: str, seed: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    """The workload's points as a sorted unique (N, 3) int64 array, plus dims."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    points, dims = globals()[workload](rng)
    return np.unique(points.astype(np.int64), axis=0), dims


def ply_bytes(points: np.ndarray, dims) -> bytes:
    """Binary little-endian PLY with the grid size in a voxel_dims comment."""
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"comment voxel_dims {dims[0]} {dims[1]} {dims[2]}\n"
        f"element vertex {len(points)}\n"
        "property int x\n"
        "property int y\n"
        "property int z\n"
        "end_header\n"
    ).encode("ascii")
    return header + points.astype("<i4").tobytes()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: corpus.py WORKLOAD SEED", file=sys.stderr)
        return 2
    points, dims = generate(argv[0], int(argv[1]))
    sys.stdout.buffer.write(ply_bytes(points, dims))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
