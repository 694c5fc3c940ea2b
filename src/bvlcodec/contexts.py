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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PATCH_COUNT = 3**9  # 19683 ternary patches
# Ternary 3x3 patches modulo quarter turns (Burnside's lemma).
CANONICAL_COUNT = 4995

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
    """

    alpha_star: np.ndarray
    i_star: np.ndarray
    rotated_binary: np.ndarray


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
    return NormTables(alpha.astype(np.uint8), i_star.astype(np.int32), rotated_binary)


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
    return problems


@lru_cache(maxsize=1)
def get_norm_tables() -> NormTables:
    return build_norm_tables()


@lru_cache(maxsize=1)
def get_norm_lists() -> tuple[list[int], list[int], list[list[int]]]:
    """Tables as plain (nested) lists for the per-cell coding loop. Do not mutate."""
    tables = get_norm_tables()
    return tables.alpha_star.tolist(), tables.i_star.tolist(), tables.rotated_binary.tolist()

