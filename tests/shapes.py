"""Synthetic voxel clouds shared by the unit and acceptance tests."""

from __future__ import annotations

import numpy as np

from bvlcodec import VoxelCloud


def _band_sphere(n: int, radius: float, inner: float, center=None) -> set:
    c = (n / 2 - 0.5,) * 3 if center is None else center
    lo = max(0, int(np.floor(min(c) - radius - 1)))
    hi = min(n, int(np.ceil(max(c) + radius + 2)))
    grid = np.indices((hi - lo,) * 3).reshape(3, -1).T + lo
    d2 = ((grid - np.asarray(c)) ** 2).sum(axis=1)
    sel = (d2 >= inner**2) & (d2 <= (radius + 0.5) ** 2)
    return set(map(tuple, grid[sel].tolist()))


def hollow_sphere(n: int, radius: float, center=None) -> VoxelCloud:
    pts = _band_sphere(n, radius, radius - 0.5, center)
    return VoxelCloud.from_points(pts, (n, n, n))


def solid_sphere(n: int, radius: float, center=None) -> VoxelCloud:
    pts = _band_sphere(n, radius, 0.0, center)
    return VoxelCloud.from_points(pts, (n, n, n))


def solid_cube(n: int, lo: int, hi: int) -> VoxelCloud:
    pts = {(x, y, z) for x in range(lo, hi) for y in range(lo, hi) for z in range(lo, hi)}
    return VoxelCloud.from_points(pts, (n, n, n))


def hollow_cube(n: int, lo: int, hi: int) -> VoxelCloud:
    pts = {
        (x, y, z)
        for x in range(lo, hi)
        for y in range(lo, hi)
        for z in range(lo, hi)
        if x in (lo, hi - 1) or y in (lo, hi - 1) or z in (lo, hi - 1)
    }
    return VoxelCloud.from_points(pts, (n, n, n))


def random_cloud(dims, density: float, rng) -> VoxelCloud:
    volume = dims[0] * dims[1] * dims[2]
    count = max(1, round(density * volume))
    flat = rng.choice(volume, size=count, replace=False)
    xs, rem = np.divmod(flat, dims[1] * dims[2])
    ys, zs = np.divmod(rem, dims[2])
    pts = set(zip(xs.tolist(), ys.tolist(), zs.tolist()))
    return VoxelCloud.from_points(pts, dims)


def two_surface_cloud(nx: int, ny: int, nz: int, rng) -> VoxelCloud:
    """Every occupied column holds exactly its own low and high points."""
    pts = set()
    for x in range(nx):
        for y in range(ny):
            if rng.random() < 0.7:
                a = int(rng.integers(0, nz))
                b = int(rng.integers(0, nz))
                pts.add((x, y, min(a, b)))
                pts.add((x, y, max(a, b)))
    return VoxelCloud.from_points(pts, (nx, ny, nz))


def thin_pair_cloud(nx: int, ny: int, nz: int, rng) -> VoxelCloud:
    """Occupied columns hold two points at most one step apart, so the
    feasible band never has an unknown cell and nothing gets coded."""
    pts = set()
    for x in range(nx):
        for y in range(ny):
            if rng.random() < 0.7:
                z = int(rng.integers(0, nz - 1))
                pts.add((x, y, z))
                pts.add((x, y, z + int(rng.integers(0, 2))))
    return VoxelCloud.from_points(pts, (nx, ny, nz))


def nested_hollow_spheres(n: int, radii) -> VoxelCloud:
    pts = set()
    for r in radii:
        pts |= _band_sphere(n, r, r - 0.5)
    return VoxelCloud.from_points(pts, (n, n, n))


def nested_hollow_cubes(n: int, margins) -> VoxelCloud:
    pts = set()
    for m in margins:
        pts |= hollow_cube(n, m, n - m).points
    return VoxelCloud.from_points(pts, (n, n, n))


def z_plane_cloud(nx: int, ny: int, z: int, nz: int, rng) -> VoxelCloud:
    pts = {
        (x, y, z)
        for x in range(nx)
        for y in range(ny)
        if rng.random() < 0.6
    }
    pts.add((0, 0, z))
    return VoxelCloud.from_points(pts, (nx, ny, nz))


def random_section(rng, nz: int, nx: int, column_share: float, fill: float):
    """(columns, true cells) of one section, as oracles.section_flood_fill takes them.

    Each x holds a column with probability column_share: 1 to 5 random true
    (z, x) cells, whose band runs from the lowest to the highest, and each
    cell strictly inside the band is true with probability fill.
    """
    columns = {}
    true_cells = set()
    for x in range(nx):
        if rng.random() < column_share:
            zs = sorted(set(int(rng.integers(0, nz)) for _ in range(int(rng.integers(1, 6)))))
            columns[x] = (zs[0], zs[-1])
            true_cells.update((z, x) for z in zs)
            true_cells.update((z, x) for z in range(zs[0] + 1, zs[-1]) if rng.random() < fill)
    return columns, true_cells


def fuzz_suite(seed: int = 20240901) -> list[tuple[str, VoxelCloud]]:
    """At least 200 deterministic clouds covering the tricky regimes."""
    rng = np.random.default_rng(seed)
    suite: list[tuple[str, VoxelCloud]] = []

    for n, r in [(24, 8), (32, 11), (48, 16), (64, 22), (96, 30), (128, 40),
                 (40, 15), (56, 20), (80, 26), (128, 55)]:
        suite.append((f"hollow_sphere_{n}_{r}", hollow_sphere(n, r)))
    for n, r in [(16, 6), (24, 8), (32, 11), (20, 7), (28, 10)]:
        suite.append((f"solid_sphere_{n}_{r}", solid_sphere(n, r)))
    for n, lo, hi in [(8, 1, 7), (16, 3, 13), (24, 4, 20), (12, 0, 12)]:
        suite.append((f"solid_cube_{n}", solid_cube(n, lo, hi)))
    for n, lo, hi in [(16, 2, 14), (32, 4, 28), (48, 6, 42), (64, 8, 56), (24, 0, 24)]:
        suite.append((f"hollow_cube_{n}", hollow_cube(n, lo, hi)))

    for i in range(30):
        n = int(rng.choice([16, 24, 32, 48]))
        density = float(rng.uniform(1e-3, 1e-2))
        suite.append((f"random_small_{i}", random_cloud((n, n, n), density, rng)))
    for i in range(15):
        n = int(rng.choice([64, 96]))
        density = float(rng.uniform(1e-4, 1e-3))
        suite.append((f"random_mid_{i}", random_cloud((n, n, n), density, rng)))
    for i in range(5):
        suite.append((f"random_128_{i}", random_cloud((128, 128, 128), 1e-4, rng)))
    for i in range(10):
        dims = tuple(int(d) for d in rng.choice([4, 8, 16, 32, 64, 128], size=3))
        density = float(rng.uniform(1e-3, 1e-2))
        suite.append((f"random_aniso_{i}", random_cloud(dims, density, rng)))

    for i in range(25):
        nx = int(rng.integers(6, 48))
        ny = int(rng.integers(6, 48))
        nz = int(rng.integers(6, 64))
        suite.append((f"two_surface_{i}", two_surface_cloud(nx, ny, nz, rng)))

    for i, (n, radii) in enumerate([(32, (12, 6)), (48, (18, 9)), (64, (24, 12)),
                                    (40, (15, 8)), (56, (21, 10))]):
        suite.append((f"nested_spheres_{i}", nested_hollow_spheres(n, radii)))
    for i, (n, margins) in enumerate([(24, (1, 7)), (32, (2, 9)), (48, (3, 14)),
                                      (40, (2, 12))]):
        suite.append((f"nested_cubes_{i}", nested_hollow_cubes(n, margins)))
    # Three disconnected shells: the innermost must land in the raw residual.
    for i, (n, radii) in enumerate([(48, (20, 12, 5)), (64, (28, 17, 7)), (56, (24, 14, 6))]):
        suite.append((f"triple_spheres_{i}", nested_hollow_spheres(n, radii)))
    for i, (n, margins) in enumerate([(32, (1, 7, 13)), (48, (2, 10, 18))]):
        suite.append((f"triple_cubes_{i}", nested_hollow_cubes(n, margins)))

    suite.append(("single_origin", VoxelCloud.from_points({(0, 0, 0)}, (1, 1, 1))))
    suite.append(("single_mid", VoxelCloud.from_points({(5, 9, 2)}, (16, 16, 16))))
    suite.append(("single_corner", VoxelCloud.from_points({(31, 31, 31)}, (32, 32, 32))))
    corners = {(x, y, z) for x in (0, 31) for y in (0, 31) for z in (0, 31)}
    suite.append(("eight_corners", VoxelCloud.from_points(corners, (32, 32, 32))))
    for i in range(12):
        count = int(rng.integers(2, 30))
        n = int(rng.choice([8, 16, 32, 64, 128]))
        pts = set(map(tuple, rng.integers(0, n, size=(count, 3)).tolist()))
        suite.append((f"tiny_{i}", VoxelCloud.from_points(pts, (n, n, n))))

    for i in range(8):
        nx = int(rng.integers(4, 40))
        ny = int(rng.integers(4, 40))
        suite.append((f"z0_plane_{i}", z_plane_cloud(nx, ny, 0, int(rng.integers(1, 32)), rng)))
    for i in range(6):
        n = int(rng.choice([16, 32, 64]))
        pts = set(map(tuple, rng.integers(0, n, size=(200, 3)).tolist()))
        pts |= {(int(rng.integers(0, n)), int(rng.integers(0, n)), 0) for _ in range(40)}
        pts |= {(int(rng.integers(0, n)), int(rng.integers(0, n)), n - 1) for _ in range(40)}
        suite.append((f"z_extremes_{i}", VoxelCloud.from_points(pts, (n, n, n))))
    for i in range(6):
        n = 32
        face = {(x, y, z) for x in (0, n - 1) for y in range(n) for z in range(0, n, 3)}
        face |= set(map(tuple, rng.integers(0, n, size=(100, 3)).tolist()))
        suite.append((f"boundary_faces_{i}", VoxelCloud.from_points(face, (n, n, n))))

    for i in range(10):
        n = int(rng.choice([16, 32]))
        z = int(rng.integers(0, n))
        pts = {(x, y, z) for x in range(n) for y in range(n)}
        suite.append((f"flat_plane_{i}", VoxelCloud.from_points(pts, (n, n, n))))
    for i in range(8):
        n = 48
        axis = int(rng.integers(0, 3))
        pts = set()
        fixed = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        for t in range(n):
            p = [fixed[0], fixed[1]]
            p.insert(axis, t)
            pts.add(tuple(p))
        suite.append((f"line_{i}", VoxelCloud.from_points(pts, (n, n, n))))

    while len(suite) < 200:
        i = len(suite)
        n = int(rng.choice([16, 24, 32]))
        density = float(rng.uniform(1e-3, 8e-3))
        suite.append((f"random_extra_{i}", random_cloud((n, n, n), density, rng)))
    return suite
