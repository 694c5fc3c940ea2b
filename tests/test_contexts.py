"""Patch indexing, rotation, and normalization-table tests."""

import dataclasses

import numpy as np

from bvlcodec.contexts import (
    PATCH_COUNT,
    UNKNOWN_CENTER_CLASSES,
    NormTables,
    build_norm_tables,
    check_norm_tables,
    get_norm_lists,
    get_norm_tables,
)

from oracles import (
    binary_index,
    normalized_context,
    rot90,
    rotation_orbit_count,
    rotation_score,
    ternary_index,
)


def _patch(entries):
    return np.array(entries, dtype=np.int64).reshape(3, 3)


def test_ternary_index_examples():
    assert ternary_index(np.zeros((3, 3), int)) == 0
    assert ternary_index(np.full((3, 3), 2, int)) == PATCH_COUNT - 1
    one_at = np.zeros((3, 3), int)
    one_at[0, 0] = 1
    assert ternary_index(one_at) == 1
    one_at = np.zeros((3, 3), int)
    one_at[1, 0] = 1
    assert ternary_index(one_at) == 3


def test_binary_index_examples():
    assert binary_index(np.zeros((3, 3), int)) == 0
    assert binary_index(np.ones((3, 3), int)) == 511
    b = np.zeros((3, 3), int)
    b[2, 1] = 1
    assert binary_index(b) == 32


def test_rotation_score_examples():
    assert rotation_score(np.zeros((3, 3), int)) == 0
    a = np.zeros((3, 3), int)
    a[2, 2] = 1
    assert rotation_score(a) == 3**8
    assert rotation_score(np.full((3, 3), 2, int)) == PATCH_COUNT - 1


def test_rotation_score_injective_on_sample():
    rng = np.random.default_rng(5)
    seen = {}
    for _ in range(3000):
        patch = rng.integers(0, 3, size=(3, 3))
        score = rotation_score(patch)
        key = patch.tobytes()
        if score in seen:
            assert seen[score] == key
        seen[score] = key


def test_rot90_convention():
    p = np.zeros((3, 3), int)
    p[0, 0] = 1
    turned = rot90(p, 1)
    assert turned[2, 0] == 1 and turned.sum() == 1
    assert np.array_equal(rot90(p, 0), p)
    rng = np.random.default_rng(11)
    for _ in range(200):
        patch = rng.integers(0, 3, size=(3, 3))
        assert np.array_equal(rot90(rot90(rot90(rot90(patch, 1), 1), 1), 1), patch)
        assert np.array_equal(rot90(patch, 5), rot90(patch, 1))


def _index_to_patch(index: int) -> np.ndarray:
    digits = [(index // 3**d) % 3 for d in range(9)]
    return np.array(digits, dtype=np.int64).reshape(3, 3, order="F")


def test_tables_match_scalar_reference_on_sample():
    tables = get_norm_tables()
    rng = np.random.default_rng(77)
    for index in rng.integers(0, PATCH_COUNT, size=400).tolist():
        patch = _index_to_patch(index)
        scores = [rotation_score(rot90(patch, k)) for k in range(4)]
        best = max(scores)
        expected_turn = scores.index(best)
        assert int(tables.alpha_star[index]) == expected_turn
        assert int(tables.i_star[index]) == ternary_index(rot90(patch, expected_turn))


def test_tables_exhaustive_invariants():
    tables = build_norm_tables()
    pow3 = 3 ** np.arange(9, dtype=np.int64)
    indices = np.arange(PATCH_COUNT, dtype=np.int64)
    digits = (indices[:, None] // pow3[None, :]) % 3
    grid = np.arange(9).reshape(3, 3, order="F")
    for k in range(1, 4):
        perm = np.rot90(grid, k).ravel(order="F")
        rotated = digits[:, perm] @ pow3
        # canonical label constant on each rotation orbit
        assert np.array_equal(tables.i_star[rotated], tables.i_star)
    # canonical patches are fixed points of the mapping
    assert np.array_equal(tables.i_star[tables.i_star], tables.i_star)
    sizes = np.bincount(tables.i_star, minlength=PATCH_COUNT)
    assert int(sizes.sum()) == PATCH_COUNT
    distinct = int((sizes > 0).sum())
    assert distinct == rotation_orbit_count()
    symmetric_classes = int((sizes[sizes > 0] < 4).sum())
    assert distinct <= -(-PATCH_COUNT // 4) + symmetric_classes
    assert int(sizes.max()) <= 4


def test_normalized_context_trivial_and_invariance():
    tables = get_norm_tables()
    assert normalized_context(np.zeros((3, 3), int), np.zeros((3, 3), int), tables) == (0, 0)
    rng = np.random.default_rng(123)
    for _ in range(2000):
        a = rng.integers(0, 3, size=(3, 3))
        b = rng.integers(0, 2, size=(3, 3))
        base_i, base_j = normalized_context(a, b, tables)
        scores = [rotation_score(rot90(a, k)) for k in range(4)]
        unique = len(set(scores)) == 4
        for k in range(1, 4):
            i2, j2 = normalized_context(rot90(a, k), rot90(b, k), tables)
            assert i2 == base_i
            if unique:
                assert j2 == base_j


def test_binary_weights_match_rotated_index():
    table = get_norm_tables().rotated_binary
    assert table.shape == (4, 512)
    assert get_norm_lists()[2] == table.tolist()
    for index in range(512):
        patch = np.array([(index >> d) & 1 for d in range(9)]).reshape(3, 3, order="F")
        for turns in range(4):
            assert table[turns, index] == binary_index(rot90(patch, turns))


def test_table_checker_passes_the_tables_and_reports_a_corrupted_i_star():
    tables = build_norm_tables()
    assert check_norm_tables(tables) == []
    i_star = tables.i_star.copy()
    # Patch 1 (a single known-empty corner) and its rotations share a class;
    # moving patch 1 alone to another class breaks rotation invariance.
    i_star[1] = i_star[2]
    problems = check_norm_tables(dataclasses.replace(tables, i_star=i_star))
    assert problems
    assert any("turns" in problem for problem in problems)


def test_table_checker_reports_a_corrupted_class_index():
    tables = build_norm_tables()
    # Patch 1 alone moved to patch 2's class: its rotations keep their own.
    classes = tables.class_index.copy()
    classes[1] = classes[2]
    problems = check_norm_tables(dataclasses.replace(tables, class_index=classes))
    assert any("constant" in problem for problem in problems)
    # Two whole classes merged: every orbit keeps one number, but two share it.
    classes = tables.class_index.copy()
    classes[classes == classes[2]] = classes[1]
    problems = check_norm_tables(dataclasses.replace(tables, class_index=classes))
    assert any("share" in problem for problem in problems)
    # A whole unknown-center class moved past the section contexts.
    classes = tables.class_index.copy()
    classes[classes == classes[1]] = UNKNOWN_CENTER_CLASSES + 5000
    problems = check_norm_tables(dataclasses.replace(tables, class_index=classes))
    assert any("unknown-center" in problem for problem in problems)


def test_class_index_numbers_the_unknown_center_classes_densely():
    tables = get_norm_tables()
    center_unknown = (np.arange(PATCH_COUNT) // 81) % 3 == 0
    numbers = tables.class_index[center_unknown]
    assert np.array_equal(np.unique(numbers), np.arange(UNKNOWN_CENTER_CLASSES))
    assert tables.class_index[~center_unknown].min() == UNKNOWN_CENTER_CLASSES
    # One number per canonical patch, in order of its index.
    canonical = np.unique(tables.i_star[center_unknown])
    assert np.array_equal(tables.class_index[canonical], np.arange(UNKNOWN_CENTER_CLASSES))
    assert get_norm_lists()[1] == tables.class_index.tolist()


def test_indices_are_bijections_exhaustively():
    pow3 = 3 ** np.arange(9, dtype=np.int64)
    indices = np.arange(PATCH_COUNT, dtype=np.int64)
    digits = (indices[:, None] // pow3[None, :]) % 3
    assert np.array_equal(digits @ pow3, indices)
    rng = np.random.default_rng(1)
    for index in rng.integers(0, PATCH_COUNT, size=50).tolist():
        assert ternary_index(_index_to_patch(index)) == index
    pow2 = 2 ** np.arange(9, dtype=np.int64)
    bindices = np.arange(512, dtype=np.int64)
    bdigits = (bindices[:, None] // pow2[None, :]) % 2
    assert np.array_equal(bdigits @ pow2, bindices)
    for index in range(512):
        patch = np.array([(index >> d) & 1 for d in range(9)]).reshape(3, 3, order="F")
        assert binary_index(patch) == index


def test_tables_cacheable_and_typed():
    tables = get_norm_tables()
    assert isinstance(tables, NormTables)
    assert tables.alpha_star.shape == (PATCH_COUNT,)
    assert tables.i_star.shape == (PATCH_COUNT,)
    assert tables.class_index.shape == (PATCH_COUNT,)
    assert tables.alpha_star.max() <= 3
