"""Timing spans recorded from outside the codec, and the layer metrics they give.

A Tracer replaces module-level functions (and one method) of the installed
bvlcodec package with wrappers that record a span per call: name, start,
end, parent span and the phase ("encode" or "decode") the benchmark set.
Wrappers may also record a few counts taken from the call's arguments and
result, after the span has ended, so counting never lands in the layer's
own time. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    phase: str | None
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict | None = None

    def as_list(self) -> list:
        return [self.name, self.phase, self.parent, self.start, self.end, self.attrs]


@dataclass(frozen=True)
class Target:
    """One function to wrap: owner.attr is recorded as span `name`.

    `counts(args, kwargs, result)` returns the span's counts, or None.
    """

    owner: Any
    attr: str
    name: str
    counts: Callable | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    phase: str | None = None
    missing: list[str] = field(default_factory=list)
    clock: Callable[[], float] = time.perf_counter
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, counts: Callable | None = None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.phase, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.attrs = counts(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore it.

        A target whose attribute no longer exists is skipped and listed in
        `missing`, so its metrics come out as null rather than as zero.
        """
        originals = []
        try:
            for t in targets:
                original = vars(t.owner).get(t.attr)
                if original is None:
                    if t.name not in self.missing:
                        self.missing.append(t.name)
                    continue
                originals.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t.name, original, t.counts))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for a, b in sorted(children.get(i, ())):
            a = max(a, reach)
            b = min(b, span.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((span.end - span.start) - covered)
    return out


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def codec_targets() -> list[Target]:
    """The layer boundaries timed in a traced run."""
    from bvlcodec import cloud, container, sections

    def depthmap_counts(args, kwargs, result):
        occ = _arg(args, kwargs, 0, "pair").occ
        return {"pixels": int(occ.size), "occupied": int(occ.sum()), "bits": result.bit_length}

    def sweep_counts(args, kwargs, result):
        models = _arg(args, kwargs, 3, "models")
        return {"decisions": int(result[1]), "recon": len(result[0]), "labels": len(models)}

    def shells_counts(args, kwargs, result):
        shells = result[0]
        return {
            "shells": len(shells),
            "surface_bits": sum(pair[0].bit_length for pair in shells),
            "section_bits": sum(pair[1].bit_length for pair in shells),
        }

    def residual_counts(args, kwargs, result):
        return {"bits": result.bit_length, "points": len(_arg(args, kwargs, 0, "points"))}

    return [
        Target(container, "encode_cloud", "encode_cloud"),
        Target(container, "decode_cloud", "decode_cloud"),
        Target(cloud, "parse_ply", "parse_ply"),
        Target(cloud, "write_ply", "write_ply"),
        Target(cloud.AxisPermutation, "apply", "permute"),
        Target(container, "encode_shells", "encode_shells", shells_counts),
        Target(container, "decode_shells", "decode_shells"),
        Target(container, "encode_residual", "encode_residual", residual_counts),
        Target(container, "decode_residual", "decode_residual"),
        Target(sections, "project_array", "project"),
        Target(sections, "encode_depthmaps", "encode_depthmaps", depthmap_counts),
        Target(sections, "decode_depthmaps", "decode_depthmaps"),
        Target(sections, "sweep_encode", "sweep_encode", sweep_counts),
        Target(sections, "sweep_decode", "sweep_decode"),
        Target(sections, "build_section", "build_section"),
        Target(sections, "code_section", "code_section"),
    ]


def gate_counters() -> list[Target]:
    """The two boundaries whose counts the workload gates need."""
    return [t for t in codec_targets() if t.name in ("sweep_encode", "encode_depthmaps")]


def count_sum(spans: list[Span], name: str, key: str) -> int:
    return sum(s.attrs[key] for s in spans if s.name == name)


# Span names each per-layer metric is derived from; a metric whose spans
# never occurred in a traced operation is reported as null.
LAYER_SOURCES = {
    "cloud.parse_ply_s": ("parse_ply",),
    "cloud.write_ply_s": ("write_ply",),
    "cloud.permute_s": ("permute",),
    "cloud.permute_calls": ("permute",),
    "depthmap.project_s": ("project",),
    "depthmap.encode_s": ("encode_depthmaps",),
    "depthmap.decode_s": ("decode_depthmaps",),
    "depthmap.mask_pixels": ("encode_depthmaps",),
    "depthmap.occupied_pixels": ("encode_depthmaps",),
    "depthmap.encode_pixels_per_s": ("encode_depthmaps",),
    "depthmap.bits": ("encode_shells", "encode_residual"),
    "sections.build_encode_s": ("build_section",),
    "sections.build_decode_s": ("build_section",),
    "sections.code_encode_s": ("code_section",),
    "sections.code_decode_s": ("code_section",),
    "sections.sweep_encode_s": ("sweep_encode",),
    "sections.sweep_decode_s": ("sweep_decode",),
    "sections.sections": ("build_section",),
    "sections.decisions": ("sweep_encode",),
    "sections.decisions_per_s": ("sweep_encode", "code_section"),
    "sections.recon_per_decision": ("sweep_encode",),
    "sections.bits": ("encode_shells", "encode_residual"),
    "sections.context_labels": ("encode_shells", "encode_residual", "sweep_encode"),
    "sections.shells_encode_self_s": ("encode_shells",),
    "sections.shells_decode_self_s": ("decode_shells",),
    "sections.shells": ("encode_shells", "encode_residual"),
    "sections.residual_encode_s": ("encode_residual",),
    "sections.residual_decode_s": ("decode_residual",),
    "sections.residual_points": ("encode_shells", "encode_residual"),
    "container.encode_self_s": ("encode_cloud",),
    "container.decode_self_s": ("decode_cloud",),
    "container.permutations_tried": ("encode_shells",),
    "container.kept_share": ("encode_shells", "encode_residual"),
}


def _ratio(num, den):
    return num / den if num is not None and den else None


def layer_metrics(spans: list[Span]) -> dict[str, float | None]:
    """Per-layer metrics of one traced encode + decode.

    Timings sum every call of a layer in the phase, so on `auto` they cover
    all six permutation encodes; bits, shells, labels and residual points
    describe the permutation the container kept.
    """
    selfs = self_times(spans)
    seen = {s.name for s in spans}

    def total(name, phase=None, use_self=False):
        values = [
            selfs[i] if use_self else s.end - s.start
            for i, s in enumerate(spans)
            if s.name == name and (phase is None or s.phase == phase)
        ]
        return sum(values) if values else None

    def calls(name, phase=None):
        return sum(1 for s in spans if s.name == name and (phase is None or s.phase == phase))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name and s.phase == "encode")

    # Pair the k-th shell encode with the k-th residual encode; the codec
    # keeps the first permutation with the smallest total.
    shell_idx = [i for i, s in enumerate(spans) if s.name == "encode_shells" and s.phase == "encode"]
    residuals = [s for s in spans if s.name == "encode_residual" and s.phase == "encode"]
    kept = {}
    if shell_idx and len(shell_idx) == len(residuals):
        totals = [
            spans[i].attrs["surface_bits"] + spans[i].attrs["section_bits"] + r.attrs["bits"]
            for i, r in zip(shell_idx, residuals)
        ]
        k = totals.index(min(totals))
        labels = [s.attrs["labels"] for s in spans if s.name == "sweep_encode" and s.parent == shell_idx[k]]
        kept = {
            "depthmap.bits": spans[shell_idx[k]].attrs["surface_bits"],
            "sections.bits": spans[shell_idx[k]].attrs["section_bits"],
            "sections.shells": spans[shell_idx[k]].attrs["shells"],
            "sections.context_labels": max(labels) if labels else 0,
            "sections.residual_points": residuals[k].attrs["points"],
            "container.kept_share": totals[k] / sum(totals) if sum(totals) else None,
        }

    decisions = attr_sum("sweep_encode", "decisions")
    depth_encode_s = total("encode_depthmaps", "encode")
    code_encode_s = total("code_section", "encode")
    mask_pixels = attr_sum("encode_depthmaps", "pixels")
    metrics = {
        "cloud.parse_ply_s": total("parse_ply", "encode"),
        "cloud.write_ply_s": total("write_ply", "decode"),
        "cloud.permute_s": total("permute"),
        "cloud.permute_calls": calls("permute"),
        "depthmap.project_s": total("project", "encode"),
        "depthmap.encode_s": depth_encode_s,
        "depthmap.decode_s": total("decode_depthmaps", "decode"),
        "depthmap.mask_pixels": mask_pixels,
        "depthmap.occupied_pixels": attr_sum("encode_depthmaps", "occupied"),
        "depthmap.encode_pixels_per_s": _ratio(mask_pixels, depth_encode_s),
        "depthmap.bits": kept.get("depthmap.bits"),
        "sections.build_encode_s": total("build_section", "encode"),
        "sections.build_decode_s": total("build_section", "decode"),
        "sections.code_encode_s": code_encode_s,
        "sections.code_decode_s": total("code_section", "decode"),
        "sections.sweep_encode_s": total("sweep_encode", "encode"),
        "sections.sweep_decode_s": total("sweep_decode", "decode"),
        "sections.sections": calls("build_section", "encode"),
        "sections.decisions": decisions,
        "sections.decisions_per_s": _ratio(decisions, code_encode_s),
        "sections.recon_per_decision": _ratio(attr_sum("sweep_encode", "recon"), decisions),
        "sections.bits": kept.get("sections.bits"),
        "sections.context_labels": kept.get("sections.context_labels"),
        "sections.shells_encode_self_s": total("encode_shells", "encode", use_self=True),
        "sections.shells_decode_self_s": total("decode_shells", "decode", use_self=True),
        "sections.shells": kept.get("sections.shells"),
        "sections.residual_encode_s": total("encode_residual", "encode"),
        "sections.residual_decode_s": total("decode_residual", "decode"),
        "sections.residual_points": kept.get("sections.residual_points"),
        "container.encode_self_s": total("encode_cloud", "encode", use_self=True),
        "container.decode_self_s": total("decode_cloud", "decode", use_self=True),
        "container.permutations_tried": len(shell_idx),
        "container.kept_share": kept.get("container.kept_share"),
    }
    for name, sources in LAYER_SOURCES.items():
        if not seen.issuperset(sources):
            metrics[name] = None
    return metrics
