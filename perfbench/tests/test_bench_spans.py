"""Tests of the benchmark's span plumbing: self times, wrapper restore, nulls."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from bvlcodec import cloud, container, sections  # noqa: E402
from clouds import small_nested  # noqa: E402
from spans import LAYER_SOURCES, Span, Target, Tracer, codec_targets, layer_metrics, self_times  # noqa: E402


def _span(name, parent, start, end):
    return Span(name, "encode", parent, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 3.0),
        _span("b", 0, 2.0, 5.0),    # overlaps a: [1, 5] is covered once
        _span("c", 0, 8.0, 12.0),   # runs past the parent: only [8, 10] counts
        _span("a1", 1, 1.5, 2.5),   # grandchild: counts against a, not root
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([_span("leaf", -1, 2.0, 2.25)]) == [0.25]


def _originals():
    return [vars(t.owner)[t.attr] for t in codec_targets()]


def test_wrappers_are_restored_after_the_block_and_after_an_error():
    before = _originals()
    tracer = Tracer()
    with tracer.installed(codec_targets()):
        during = _originals()
        assert all(a is not b for a, b in zip(before, during))
    assert _originals() == before
    with pytest.raises(KeyError):
        with tracer.installed(codec_targets()):
            raise KeyError("boom")
    assert _originals() == before
    assert container.encode_cloud is before[0]
    assert cloud.AxisPermutation.apply is before[4]


def test_traced_container_is_identical_and_every_layer_reports():
    shape = small_nested()
    plain, report = container.encode_cloud(shape, permutation="auto")
    assert report.shells == 2 and report.residual_bits > 32
    tracer = Tracer()
    with tracer.installed(codec_targets()):
        tracer.phase = "encode"
        traced, _ = container.encode_cloud(shape, permutation="auto")
        tracer.phase = "decode"
        decoded = container.decode_cloud(traced)
        cloud.write_ply(decoded, binary=True)
    assert traced == plain
    assert decoded == shape
    tracer.phase = "encode"
    cloud.parse_ply(cloud.write_ply(shape, binary=True))  # unwrapped: no span
    metrics = layer_metrics(tracer.take())
    missing = [name for name, value in metrics.items() if value is None]
    # parse_ply ran unwrapped, so only its metric is null.
    assert missing == ["cloud.parse_ply_s"]
    assert metrics["container.permutations_tried"] == 6
    assert metrics["cloud.permute_calls"] == 7
    assert metrics["depthmap.bits"] == report.stage1_bits
    assert metrics["sections.bits"] == report.stage2_bits
    assert metrics["sections.shells"] == 2
    assert 0 < metrics["container.kept_share"] <= 1 / 6 + 1e-9
    assert metrics["sections.residual_points"] * 15 + 32 == report.residual_bits


def test_a_vanished_function_is_reported_missing_not_zero():
    tracer = Tracer()
    gone = Target(sections, "no_such_layer", "no_such_layer")
    with tracer.installed([gone]):
        pass
    assert tracer.missing == ["no_such_layer"]
    assert not hasattr(sections, "no_such_layer")
    metrics = layer_metrics([])
    assert all(metrics[name] is None for name in LAYER_SOURCES)
