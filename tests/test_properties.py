"""Property-based round trips over small random clouds."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bvlcodec import VoxelCloud, decode_cloud, encode_cloud


@st.composite
def small_clouds(draw):
    """Dims of 1 to 12, 1 to 60 random points and one point on each boundary face."""
    dims = tuple(draw(st.integers(1, 12)) for _ in range(3))
    point = st.tuples(*(st.integers(0, d - 1) for d in dims))
    points = draw(st.lists(point, min_size=1, max_size=60))
    for axis in range(3):
        for face in (0, dims[axis] - 1):
            p = list(draw(point))
            p[axis] = face
            points.append(tuple(p))
    return VoxelCloud(dims, points)


# Slabs this small put every occupied section of a cloud into one run, so
# the sweep codes multi-section runs on both sides at the default budget.
@settings(max_examples=150, deadline=None)
@given(small_clouds(), st.sampled_from([*range(6), "auto"]), st.integers(1, 3))
def test_small_random_clouds_round_trip(cloud, permutation, max_shells):
    data, _ = encode_cloud(cloud, permutation, max_shells)
    assert decode_cloud(data) == cloud


@st.composite
def row_lists(draw):
    """Up to 40 triples in a range of 2^0 to 2^45 either side of 0, some repeated, in any order."""
    bits = draw(st.integers(0, 45))
    coordinate = st.integers(-(1 << bits), 1 << bits)
    rows = draw(st.lists(st.tuples(coordinate, coordinate, coordinate), max_size=40))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
    return draw(st.permutations(rows + repeats))


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_cloud_rows_are_the_sorted_distinct_points(rows):
    assert VoxelCloud((1, 1, 1), rows).to_array().tolist() == [list(p) for p in sorted(set(rows))]
