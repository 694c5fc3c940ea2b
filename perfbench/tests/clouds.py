"""Small clouds for the benchmark's tests, each shaped like one workload."""

import numpy as np

import bvlcodec


def _cloud(keep, n):
    g = np.indices((n, n, n)).reshape(3, -1).T
    return bvlcodec.VoxelCloud.from_points(map(tuple, g[keep(g)].tolist()), (n, n, n))


def _radius(g, n):
    return np.sqrt(((g - (n - 1) / 2) ** 2).sum(axis=1))


def small_shell():
    """One thin sphere shell: one shell, empty residual."""
    return _cloud(lambda g: np.abs(_radius(g, 24) - 9.0) <= 0.5, 24)


def small_nested():
    """Outer shell, solid wall and an enclosed core: 2 shells plus a residual."""
    def keep(g):
        d = _radius(g, 32)
        return (np.abs(d - 13.0) <= 0.5) | ((d >= 5.0) & (d <= 8.0)) | (d <= 1.5)
    return _cloud(keep, 32)


def small_scatter():
    """300 uniform random voxels in 64^3."""
    rng = np.random.default_rng(7)
    keys = rng.choice(64**3, size=300, replace=False)
    xs, rem = np.divmod(keys, 64 * 64)
    ys, zs = np.divmod(rem, 64)
    return bvlcodec.VoxelCloud.from_points(zip(xs.tolist(), ys.tolist(), zs.tolist()), (64,) * 3)


def small_solid():
    """A solid 8^3 cube in 12^3."""
    return _cloud(lambda g: (g >= 2).all(axis=1) & (g < 10).all(axis=1), 12)
