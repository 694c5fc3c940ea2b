"""Per-workload codec settings and the gates that keep each workload honest.

Each workload exists to load one part of the codec. A gate checks, on every
run, that the generated cloud still does so; a generator that drifts away
from its layer makes the benchmark fail loudly instead of measuring
something else.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import Span, count_sum


class GateError(RuntimeError):
    """The corpus no longer exercises the layer its workload exists for."""


@dataclass(frozen=True)
class GateFacts:
    """What one encode of the workload's cloud showed."""

    voxels: int
    shells: int
    residual_bits: int
    permutation_totals: tuple[int, ...]
    decisions: int
    mask_pixels: int


def gate_facts(voxels: int, report, spans: list[Span]) -> GateFacts:
    """Facts from an encode's RateReport and its gate_counters() spans."""
    return GateFacts(
        voxels=voxels,
        shells=report.shells,
        residual_bits=report.residual_bits,
        permutation_totals=tuple(report.permutation_totals),
        decisions=count_sum(spans, "sweep_encode", "decisions"),
        mask_pixels=count_sum(spans, "encode_depthmaps", "pixels"),
    )


# Pinned permutations bypass the 6-way search; only terrain_auto runs it.
PERMUTATION = {
    "hollow_sphere": 0,
    "nested_solid": 0,
    "terrain_auto": "auto",
    "sparse_scatter": 0,
}

# An empty residual is its 32-bit point count alone.
EMPTY_RESIDUAL_BITS = 32


def check_gate(workload: str, facts: GateFacts) -> None:
    """Raise GateError if the cloud misses the layer the workload targets."""
    if workload == "hollow_sphere":
        ok = facts.shells == 1 and facts.residual_bits <= EMPTY_RESIDUAL_BITS
        want = "1 shell and an empty residual"
    elif workload == "nested_solid":
        ok = facts.shells == 2 and facts.residual_bits > EMPTY_RESIDUAL_BITS
        want = "2 shells and a non-empty residual"
    elif workload == "terrain_auto":
        totals = facts.permutation_totals
        ok = len(totals) == 6 and len(set(totals)) > 1
        want = "six permutation totals that are not all equal"
    elif workload == "sparse_scatter":
        # Uniform scatter puts two or more points in about a tenth of the
        # occupied columns, so the sweep still codes some cells; the gate
        # asks that it stays small beside the mask this workload is for.
        ok = facts.decisions < 0.05 * facts.mask_pixels
        want = "sweep decisions under 5% of the mask pixels coded"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if not ok:
        raise GateError(f"{workload}: expected {want}, got {facts}")
