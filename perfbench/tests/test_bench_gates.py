"""Tests of the workload gates and the seeded corpus."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import bvlcodec  # noqa: E402
import corpus  # noqa: E402
from clouds import small_nested, small_scatter, small_shell, small_solid  # noqa: E402
from spans import Tracer, gate_counters  # noqa: E402
from workloads import GateError, GateFacts, check_gate, gate_facts  # noqa: E402


def facts(cloud, permutation):
    tracer = Tracer()
    with tracer.installed(gate_counters()):
        _, report = bvlcodec.encode_cloud(cloud, permutation=permutation)
    return gate_facts(len(cloud.points), report, tracer.take())


@pytest.mark.parametrize("workload, right, wrong, permutation", [
    ("hollow_sphere", small_shell, small_nested, 0),
    ("nested_solid", small_nested, small_shell, 0),
    ("sparse_scatter", small_scatter, small_solid, 0),
])
def test_gate_passes_its_kind_of_cloud_and_trips_on_another(workload, right, wrong, permutation):
    check_gate(workload, facts(right(), permutation))
    with pytest.raises(GateError, match=workload):
        check_gate(workload, facts(wrong(), permutation))


def test_terrain_gate_trips_when_all_permutations_tie():
    # A centred sphere looks the same along every axis ordering.
    tied = facts(small_shell(), "auto")
    assert len(set(tied.permutation_totals)) == 1
    with pytest.raises(GateError, match="terrain_auto"):
        check_gate("terrain_auto", tied)
    check_gate("terrain_auto", GateFacts(1, 1, 32, (5, 5, 5, 5, 5, 6), 0, 1))


def test_corpus_is_seeded_and_reaches_the_codec_as_ply():
    first = corpus.ply_bytes(*corpus.generate("terrain_auto", 1))
    assert first == corpus.ply_bytes(*corpus.generate("terrain_auto", 1))
    assert first != corpus.ply_bytes(*corpus.generate("terrain_auto", 2))
    points, dims = corpus.generate("terrain_auto", 1)
    parsed = bvlcodec.parse_ply(first)
    assert parsed.dims == dims == (256, 256, 64)
    assert parsed.points == frozenset(map(tuple, points.tolist()))
