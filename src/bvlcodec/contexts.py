"""Rotation-normalized context labels for 3x3 neighborhood patches.

Section coding looks at two 3x3 crops around the cell being coded: a ternary
patch from the current section (0 unknown, 1 known-empty, 2 known-occupied)
and a binary patch from the previous section's reconstruction. Rows index the
z offset (-1, 0, +1), columns the x offset.

Patches that differ only by a quarter-turn rotation carry the same geometric
information, so the ternary patch is mapped to a canonical orientation before
it selects a probability model: the turn count that maximizes an injective
base-3 score is applied to the patch, and the same turn is applied to the
binary patch. The canonical turn and the canonical patch index are
precomputed for all 3^9 ternary patches, and the rotated index of each of
the 2^9 binary patches for each turn count, and kept in lookup tables.

The cell being coded is unknown, so its patch has an unknown center and
falls in one of 1,665 canonical classes. The tables number those classes
0 .. 1664, which makes class * 512 + rotated binary patch a dense context
label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PATCH_COUNT = 3**9  # 19683 ternary patches
# Ternary 3x3 patches modulo quarter turns (Burnside's lemma).
CANONICAL_COUNT = 4995
# Those whose center cell (digit 4) is unknown.
UNKNOWN_CENTER_CLASSES = 1665

_POW3 = (3 ** np.arange(9)).astype(np.int64)
_POW2 = (2 ** np.arange(9)).astype(np.int64)

# Cell (i, j) contributes digit position i + 3*j (column-major scan).
_DIGIT_GRID = np.arange(9).reshape(3, 3, order="F")

# Anti-diagonal scan used by the rotation score: cells near (0, 0) first.
_SCORE_CELLS = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2))
_SCORE_DIGITS = np.array([i + 3 * j for i, j in _SCORE_CELLS])


@dataclass(frozen=True)
class NormTables:
    """Canonicalization tables over all 19683 ternary patches.

    alpha_star[i] is the smallest turn count whose rotation of patch i has
    the maximal rotation score; i_star[i] is the index of that rotated patch.
    rotated_binary[k, b] is the index of binary patch b rotated by k turns.
    class_index[i] numbers the canonical class of patch i densely, in order
    of i_star: the classes with an unknown center take 0 .. 1664, the others
    follow.
    """

    alpha_star: np.ndarray
    i_star: np.ndarray
    rotated_binary: np.ndarray
    class_index: np.ndarray


def build_norm_tables() -> NormTables:
    indices = np.arange(PATCH_COUNT, dtype=np.int64)
    digits = (indices[:, None] // _POW3[None, :]) % 3
    bits = (np.arange(512)[:, None] >> np.arange(9)) & 1
    rotated_index = np.empty((4, PATCH_COUNT), dtype=np.int64)
    rotated_binary = np.empty((4, 512), dtype=np.int64)
    scores = np.empty((4, PATCH_COUNT), dtype=np.int64)
    for k in range(4):
        # Rotating the digit grid gives, per target digit, the source digit.
        perm = np.rot90(_DIGIT_GRID, k).ravel(order="F")
        rotated = digits[:, perm]
        rotated_index[k] = rotated @ _POW3
        rotated_binary[k] = bits[:, perm] @ _POW2
        scores[k] = rotated[:, _SCORE_DIGITS] @ _POW3
    alpha = np.argmax(scores, axis=0)  # first (smallest) turn wins ties
    i_star = rotated_index[alpha, indices]
    # Freed before the class table is allocated, which could otherwise land
    # above them on the heap and keep their pages resident.
    del digits, rotated, rotated_index, scores
    # A canonical patch is its own canonical rotation.
    canonical = np.flatnonzero(i_star == indices)
    # A stable sort on "center (digit 4) known" puts the unknown-center classes first.
    number = np.empty(PATCH_COUNT, dtype=np.int32)
    number[canonical[np.argsort(canonical // 81 % 3 != 0, kind="stable")]] = np.arange(canonical.size)
    return NormTables(alpha.astype(np.uint8), i_star.astype(np.int32), rotated_binary, number[i_star])


def check_norm_tables(tables: NormTables) -> list[str]:
    """Consistency problems of the tables; an empty list when there are none."""
    problems = []
    digits = (np.arange(PATCH_COUNT, dtype=np.int64)[:, None] // _POW3[None, :]) % 3
    for k in range(1, 4):
        perm = np.rot90(_DIGIT_GRID, k).ravel(order="F")
        if not np.array_equal(tables.i_star[digits[:, perm] @ _POW3], tables.i_star):
            problems.append(f"canonical index not constant under {k} turns")
    sizes = np.bincount(tables.i_star, minlength=PATCH_COUNT)
    if int(sizes.sum()) != PATCH_COUNT:
        problems.append("orbit sizes do not sum to the patch count")
    if int((sizes > 0).sum()) != CANONICAL_COUNT:
        problems.append("unexpected number of canonical classes")
    classes = tables.class_index
    if not np.array_equal(classes[tables.i_star], classes):
        problems.append("class index not constant on a canonical class")
    canonical = np.unique(tables.i_star)
    if np.unique(classes[canonical]).size != canonical.size:
        problems.append("canonical classes share a class index")
    unknown = classes[digits[:, 4] == 0]
    if unknown.min() < 0 or unknown.max() >= UNKNOWN_CENTER_CLASSES:
        problems.append(f"unknown-center class index outside 0 .. {UNKNOWN_CENTER_CLASSES - 1}")
    return problems


@lru_cache(maxsize=1)
def get_norm_tables() -> NormTables:
    return build_norm_tables()


@lru_cache(maxsize=1)
def get_norm_lists() -> tuple[list[int], list[int], list[list[int]]]:
    """alpha_star, class_index and rotated_binary as plain (nested) lists, for indexing per cell in Python.

    The codec reads the arrays of get_norm_tables; perfbench's set-up probe
    times this by name. Do not mutate.
    """
    tables = get_norm_tables()
    return tables.alpha_star.tolist(), tables.class_index.tolist(), tables.rotated_binary.tolist()

