"""Voxelized point clouds: construction, PLY I/O, quantization, permutation.

A VoxelCloud stores its voxels as one read-only, C-contiguous (N, 3) int64
array, sorted by (x, y, z) and free of duplicates; `points` derives a
frozenset on request.
The constructor reaches that order through one int64 key per row, the three
coordinates less the array's minimum packed side by side: one sort of the
keys, a neighbour test for duplicates, and shifts and masks back to rows.
Input that already has strictly increasing keys (another cloud's array, a
written PLY) is kept as it is. Only a coordinate range too wide for three
fields in 63 bits falls back to a lexsort of the columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PlyError

_AXIS_ORDERINGS: tuple[tuple[int, int, int], ...] = tuple(itertools.permutations((0, 1, 2)))
PERMUTATION_COUNT = len(_AXIS_ORDERINGS)


def _normalized(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of an (N, 3) int64 array in (x, y, z) order; arr itself when already so."""
    if len(arr) < 2:
        return arr
    # Whole-array min and max cost far less than per-column ones (axis=0).
    lo = int(arr.min())
    width = (int(arr.max()) - lo).bit_length()
    if 3 * width > 63:
        arr = arr[np.lexsort(arr.T[::-1])]
        return arr[np.append(True, np.any(arr[1:] != arr[:-1], axis=1))]
    # One packed key per row orders the rows as (x, y, z) does.
    key = (arr[:, 0] - lo) << 2 * width
    key |= (arr[:, 1] - lo) << width
    key |= arr[:, 2] - lo
    if np.all(key[1:] > key[:-1]):
        return arr
    # np.sort and a neighbour test; np.unique hashes, and is far slower here.
    key.sort()
    fresh = key[1:] != key[:-1]
    if not fresh.all():
        key = key[np.append(True, fresh)]
    mask = (1 << width) - 1
    out = np.empty((len(key), 3), dtype=np.int64)
    out[:, 0] = key >> 2 * width
    out[:, 1] = (key >> width) & mask
    out[:, 2] = key & mask
    out += lo
    return out


class VoxelCloud:
    """A set of occupied integer voxels inside an (Nx, Ny, Nz) grid.

    `points` may be any (N, 3) array or iterable of integer triples; it is
    copied and normalized (sorted by the packed key, duplicates dropped), but
    not bounds-checked (see validate).
    """

    def __init__(self, dims: tuple[int, int, int], points) -> None:
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"invalid dims {dims!r}")
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        # C order: a column selection such as AxisPermutation.apply's is
        # Fortran-ordered, and the kernel reads the rows where they lie.
        arr = np.array(points if isinstance(points, np.ndarray) else list(points), dtype=np.int64, order="C")
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), not {arr.shape}")
        arr = _normalized(arr)
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def from_points(cls, points, dims: tuple[int, int, int] | None = None) -> "VoxelCloud":
        """Build a cloud; dims default to max coordinate + 1 per axis, and at least 1."""
        cloud = cls((1, 1, 1) if dims is None else dims, points)
        if dims is None and len(cloud._array):
            cloud.dims = tuple(np.maximum(cloud._array.max(axis=0) + 1, 1).tolist())
        return cloud

    @cached_property
    def points(self) -> frozenset[tuple[int, int, int]]:
        """The voxels as a frozenset of (x, y, z) tuples, built on first access."""
        return frozenset(map(tuple, self._array.tolist()))

    def to_array(self) -> np.ndarray:
        """The stored (N, 3) int64 array: C-contiguous, sorted by (x, y, z), unique, read-only."""
        return self._array

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoxelCloud):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self._array, other._array)

    def __repr__(self) -> str:
        return f"VoxelCloud(dims={self.dims}, points=<{len(self._array)} voxels>)"

    def validate(self) -> None:
        arr = self._array
        if not len(arr) or arr.min() >= 0 and all(arr[:, k].max() < d for k, d in enumerate(self.dims)):
            return
        # The per-row mask is built only to name the first offending point.
        outside = np.any((arr < 0) | (arr >= self.dims), axis=1)
        point = tuple(arr[outside.argmax()].tolist())
        raise ValueError(f"point {point} outside dims {self.dims}")


@dataclass(frozen=True)
class AxisPermutation:
    """Joint relabeling of the three axes; id indexes the 6 orderings."""

    id: int

    def __post_init__(self) -> None:
        if not 0 <= self.id < PERMUTATION_COUNT:
            raise ValueError(f"permutation id {self.id} out of range")

    @property
    def axes(self) -> tuple[int, int, int]:
        return _AXIS_ORDERINGS[self.id]

    @classmethod
    def from_axes(cls, axes) -> "AxisPermutation":
        return cls(_AXIS_ORDERINGS.index((axes[0], axes[1], axes[2])))

    def inverse(self) -> "AxisPermutation":
        inv = [0, 0, 0]
        for k, a in enumerate(self.axes):
            inv[a] = k
        return AxisPermutation.from_axes(inv)

    def apply(self, cloud: VoxelCloud) -> VoxelCloud:
        """The cloud with its axes relabeled; the identity returns the cloud itself (its array is read-only)."""
        if self.id == 0:
            return cloud
        axes = list(self.axes)
        return VoxelCloud(tuple(cloud.dims[a] for a in axes), cloud.to_array()[:, axes])


def source_bit_depth(cloud: VoxelCloud) -> int:
    """Bits needed to address the largest axis: ceil(log2(max dim))."""
    return (max(cloud.dims) - 1).bit_length()


def quantize(cloud: VoxelCloud, target_bits: int) -> VoxelCloud:
    """Right-shift coordinates down to target_bits of per-axis resolution.

    Duplicates collapse to one voxel. When target_bits exceeds the source
    depth the cloud is returned unchanged; callers flag that as a no-op.
    """
    if target_bits < 1:
        raise ValueError("target_bits must be >= 1")
    shift = source_bit_depth(cloud) - target_bits
    if shift < 0:
        return cloud
    return VoxelCloud((1 << target_bits,) * 3, cloud.to_array() >> shift)


_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}
_FLOAT_CODES = {"f4", "f8"}


def _split_header(data: bytes) -> tuple[str, bytes]:
    if not data.startswith(b"ply"):
        raise PlyError("not a PLY file")
    tag = data.find(b"end_header")
    if tag < 0:
        raise PlyError("missing end_header")
    nl = data.find(b"\n", tag)
    if nl < 0:
        raise PlyError("unterminated header")
    try:
        header = data[:nl].decode("ascii")
    except UnicodeDecodeError as exc:
        raise PlyError("non-ASCII header") from exc
    return header, data[nl + 1 :]


def _parse_header(header: str):
    fmt = None
    elements: list[dict] = []
    comment_dims = None
    for line in header.splitlines()[1:]:
        parts = line.split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "comment":
            if len(parts) == 5 and parts[1] == "voxel_dims":
                try:
                    comment_dims = (int(parts[2]), int(parts[3]), int(parts[4]))
                except ValueError:
                    comment_dims = None
            continue
        if kw == "format":
            if len(parts) < 2:
                raise PlyError("malformed format line")
            fmt = parts[1]
        elif kw == "element":
            if len(parts) != 3:
                raise PlyError(f"malformed element line: {line!r}")
            try:
                count = int(parts[2])
            except ValueError as exc:
                raise PlyError(f"bad element count: {line!r}") from exc
            if count < 0:
                raise PlyError(f"negative element count: {line!r}")
            elements.append({"name": parts[1], "count": count, "props": []})
        elif kw == "property":
            if not elements:
                raise PlyError("property before any element")
            if len(parts) < 3:
                raise PlyError(f"malformed property line: {line!r}")
            if parts[1] == "list":
                elements[-1]["props"].append(("list", parts[-1]))
            else:
                if len(parts) != 3:
                    raise PlyError(f"malformed property line: {line!r}")
                code = _SCALAR_TYPES.get(parts[1])
                if code is None:
                    raise PlyError(f"unsupported property type {parts[1]!r}")
                elements[-1]["props"].append((code, parts[2]))
        elif kw in ("end_header", "obj_info"):
            continue
        else:
            raise PlyError(f"unknown header keyword {kw!r}")
    if fmt not in ("ascii", "binary_little_endian"):
        raise PlyError(f"unsupported PLY format {fmt!r}")
    return fmt, elements, comment_dims


def _vertex_columns(binary: bool, body: bytes, elements) -> list[np.ndarray]:
    """The x, y and z columns of the first vertex element, as stored or as parsed.

    Elements before it are skipped: in binary by their byte size, which a
    list property leaves unknown, and in ASCII by their count of non-blank
    lines. ASCII tokens parse as int() does, or as float() does for a float
    property whatever its declared size, so no digit is lost on the way.
    """
    if not binary:
        lines = [ln for ln in body.decode("ascii", errors="replace").splitlines() if ln.strip()]
    at = 0
    for element in elements:
        props, count = element["props"], element["count"]
        has_list = any(kind == "list" for kind, _ in props)
        if element["name"] != "vertex":
            if not binary:
                at += count
            elif has_list:
                raise PlyError("cannot skip a list-typed element before vertex")
            else:
                at += count * sum(np.dtype("<" + code).itemsize for code, _ in props)
            continue
        if has_list:
            raise PlyError("list property in vertex element is unsupported")
        names = [name for _, name in props]
        try:
            cols = [names.index(axis) for axis in "xyz"]
        except ValueError as exc:
            raise PlyError("vertex element lacks x, y, z properties") from exc
        if binary:
            dtype = np.dtype([(f"f{i}", "<" + code) for i, (code, _) in enumerate(props)])
            if at + count * dtype.itemsize > len(body):
                raise PlyError("truncated vertex data")
            table = np.frombuffer(body, dtype=dtype, count=count, offset=at)
            return [table[f"f{col}"] for col in cols]
        if at + count > len(lines):
            raise PlyError("truncated vertex data")
        rows = [line.split() for line in lines[at : at + count]]
        if any(len(row) < len(props) for row in rows):
            raise PlyError("short vertex line")
        try:
            return [np.array([row[col] for row in rows],
                             dtype=np.float64 if props[col][0] in _FLOAT_CODES else np.int64)
                    for col in cols]
        except (ValueError, OverflowError) as exc:
            raise PlyError("bad coordinate in ASCII vertex data") from exc
    raise PlyError("no vertex element")


def parse_ply(data: bytes, dims: tuple[int, int, int] | None = None) -> VoxelCloud:
    """Read vertex x, y, z from an ASCII or binary little-endian PLY.

    Other vertex properties and other elements are ignored. Duplicate
    vertices collapse to one voxel. dims defaults to max coordinate + 1 per
    axis; an explicit argument wins, then a `comment voxel_dims` header line.
    A negative coordinate or one outside dims raises PlyError, as does a
    float coordinate that is not an integer in int64's range.
    """
    header, body = _split_header(data)
    fmt, elements, comment_dims = _parse_header(header)
    columns = _vertex_columns(fmt != "ascii", body, elements)
    coords = np.empty((len(columns[0]), 3), dtype=np.int64)
    for k, values in enumerate(columns):
        # abs() < limit is also false for nan and inf, so no value wraps in the cast
        if values.dtype.kind == "f" and not (
            np.all(np.abs(values) < 2.0**63) and np.array_equal(values, np.floor(values))
        ):
            raise PlyError("non-integral or out-of-range coordinate")
        coords[:, k] = values
    if dims is None:
        dims = comment_dims
    try:
        cloud = VoxelCloud.from_points(coords, dims)
        cloud.validate()
    except ValueError as exc:
        raise PlyError(str(exc)) from exc
    return cloud


def write_ply(cloud: VoxelCloud, binary: bool = False) -> bytes:
    """Serialize the voxels in their stored order; dims travel in a comment line."""
    pts = cloud.to_array()
    nx, ny, nz = cloud.dims
    header = (
        "ply\n"
        f"format {'binary_little_endian' if binary else 'ascii'} 1.0\n"
        f"comment voxel_dims {nx} {ny} {nz}\n"
        f"element vertex {len(pts)}\n"
        "property int x\n"
        "property int y\n"
        "property int z\n"
        "end_header\n"
    ).encode("ascii")
    if binary:
        if len(pts) and pts.max() >= 1 << 31:
            raise ValueError("coordinate does not fit a PLY int")
        return header + pts.astype("<i4").tobytes()
    return header + "".join(f"{x} {y} {z}\n" for x, y, z in pts.tolist()).encode("ascii")
