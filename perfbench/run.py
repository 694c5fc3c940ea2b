"""bvlcodec benchmark: seeded workloads, end-to-end rate and speed, per-layer spans.

    python3 perfbench/run.py --workload hollow_sphere --seed 1 --seconds 25 --trace 0

One run, from the root of a source checkout:

1. A child process generates the workload's cloud from the seed and hands
   back PLY bytes (corpus.py). This process never runs a generator.
2. Several fresh interpreters each import bvlcodec and round-trip a tiny
   cloud (probe.py); their median wall time, scaled as below, is setup_s.
3. This process runs a closed loop, one operation at a time, for about
   --seconds: parse_ply -> encode_cloud, then decode_cloud ->
   write_ply(binary=True). Every operation must decode to the input, write
   a PLY that parses back to it, and produce the same container bytes as
   the first one; any other outcome is a failed operation.
   A timer signal runs a small calibration loop every 0.1 s all through
   this step; every reported time is scaled by the machine speed it
   measured, to read as on the reference machine (calibration.py).
4. With --trace 1, every other operation runs with timing wrappers around
   the codec's layer functions (spans.py); the per-layer metrics are
   medians over the traced operations, and the untraced ones between them
   give the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1). A readable summary goes to standard error, and a record with
the environment, every operation and the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from calibration import REFERENCE_S, Calibration
from corpus import WORKLOADS
from spans import LAYER_SOURCES, Tracer, codec_targets, gate_counters, layer_metrics
from workloads import PERMUTATION, GateFacts, check_gate, gate_facts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "encode_vox_per_s": "vox/s",
    "decode_vox_per_s": "vox/s",
    "bpv": "bits/voxel",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "cloud.parse_ply_s": "s",
    "cloud.write_ply_s": "s",
    "cloud.permute_s": "s",
    "cloud.permute_calls": "count",
    "depthmap.project_s": "s",
    "depthmap.encode_s": "s",
    "depthmap.decode_s": "s",
    "depthmap.mask_pixels": "count",
    "depthmap.occupied_pixels": "count",
    "depthmap.encode_pixels_per_s": "1/s",
    "depthmap.bits": "bits",
    "sections.build_encode_s": "s",
    "sections.build_decode_s": "s",
    "sections.code_encode_s": "s",
    "sections.code_decode_s": "s",
    "sections.sweep_encode_s": "s",
    "sections.sweep_decode_s": "s",
    "sections.sections": "count",
    "sections.decisions": "count",
    "sections.decisions_per_s": "1/s",
    "sections.recon_per_decision": "ratio",
    "sections.bits": "bits",
    "sections.context_labels": "count",
    "sections.shells_encode_self_s": "s",
    "sections.shells_decode_self_s": "s",
    "sections.shells": "count",
    "sections.residual_encode_s": "s",
    "sections.residual_decode_s": "s",
    "sections.residual_points": "count",
    "container.encode_self_s": "s",
    "container.decode_self_s": "s",
    "container.permutations_tried": "count",
    "container.kept_share": "ratio",
    "contexts.tables_s": "s",
    "trace.overhead_share": "ratio",
}


@dataclass
class Op:
    """One operation's unscaled times and the machine speed during each."""

    traced: bool
    encode_s: float
    decode_s: float
    ok: bool
    problem: str | None = None
    encode_speed: float = 1.0
    decode_speed: float = 1.0
    layers: dict | None = None

    @property
    def scaled_s(self) -> float:
        return self.encode_s * self.encode_speed + self.decode_s * self.decode_speed

    @property
    def speed(self) -> float:
        return self.scaled_s / (self.encode_s + self.decode_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def generate(workload: str, seed: int) -> bytes:
    cmd = [sys.executable, str(HERE / "corpus.py"), workload, str(seed)]
    return subprocess.run(cmd, capture_output=True, check=True).stdout


def probe_setup(count: int) -> list[dict]:
    """Time fresh interpreters from outside, without calibration running.

    A probe takes a fifth of a second, too short to sample the speed in;
    the run's mean speed scales these times instead.
    """
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py")], capture_output=True, text=True, check=True
        )
        samples.append({"wall_s": time.perf_counter() - start, **json.loads(proc.stdout)})
    return samples


def run_op(ply: bytes, permutation, tracer: Tracer):
    """One closed-loop operation: PLY bytes -> container -> PLY bytes."""
    from bvlcodec import cloud as cloud_mod
    from bvlcodec import container

    clock = tracer.clock
    tracer.phase = "encode"
    t0 = clock()
    cloud = cloud_mod.parse_ply(ply)
    blob, report = container.encode_cloud(cloud, permutation=permutation)
    t1 = clock()
    tracer.phase = "decode"
    decoded = container.decode_cloud(blob)
    written = cloud_mod.write_ply(decoded, binary=True)
    t2 = clock()
    tracer.phase = None
    return cloud, blob, report, decoded, written, (t0, t1, t2)


class Measurement:
    """The closed loop of one run and everything it observed."""

    def __init__(self, workload: str, ply: bytes, trace: bool, calibration: Calibration):
        self.workload = workload
        self.calibration = calibration
        self.ply = ply
        self.trace = trace
        self.ops: list[Op] = []
        self.traced_spans: list[list] = []
        self.reference: bytes | None = None
        self.voxels = 0
        self.gate: GateFacts | None = None
        self.counter = Tracer(clock=calibration.clock)
        self.tracer = Tracer(clock=calibration.clock)

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.step(traced=self.trace and len(self.ops) % 2 == 1)
            durations = [op.encode_s + op.decode_s for op in self.ops]
            need_traced = self.trace and not any(op.traced and op.ok for op in self.ops)
            if need_traced and len(self.ops) < 6:
                continue
            if time.perf_counter() + statistics.median(durations) > deadline:
                break

    def step(self, traced: bool) -> None:
        from bvlcodec import cloud as cloud_mod

        tracer = self.tracer if traced else self.counter
        targets = codec_targets() if traced else gate_counters()
        start = tracer.clock()
        try:
            with tracer.installed(targets):
                cloud, blob, report, decoded, written, (t0, t1, t2) = run_op(
                    self.ply, PERMUTATION[self.workload], tracer
                )
        except Exception:  # a failing operation is counted, never dropped
            tracer.take()
            elapsed = tracer.clock() - start
            self.ops.append(Op(traced, elapsed, 0.0, False, traceback.format_exc()))
            print(self.ops[-1].problem, file=sys.stderr)
            return
        spans = tracer.take()
        if self.reference is None:
            self.reference = blob
            self.voxels = len(cloud.points)
            self.gate = gate_facts(self.voxels, report, spans)
            check_gate(self.workload, self.gate)
        problem = None
        if decoded != cloud:
            problem = "decoded cloud differs from the input"
        elif cloud_mod.parse_ply(written) != cloud:
            problem = "written PLY parses to a different cloud"
        elif blob != self.reference:
            problem = "container bytes differ from the first operation's"
        if problem:
            print(f"operation {len(self.ops)} failed: {problem}", file=sys.stderr)
        speed = self.calibration.speed
        self.ops.append(Op(traced, t1 - t0, t2 - t1, problem is None, problem,
                           speed(t0, t1), speed(t1, t2)))
        if traced and problem is None:
            self.traced_spans.append([s.as_list() for s in spans])
            self.ops[-1].layers = layer_metrics(spans)

    def good(self, traced: bool) -> list[Op]:
        return [op for op in self.ops if op.ok and op.traced == traced]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(m: Measurement, probes: list[dict]) -> dict:
    ops = m.good(traced=False)
    speed = m.calibration.speed()
    return {
        "encode_vox_per_s": _median([m.voxels / (op.encode_s * op.encode_speed) for op in ops]),
        "decode_vox_per_s": _median([m.voxels / (op.decode_s * op.decode_speed) for op in ops]),
        "bpv": 8 * len(m.reference) / m.voxels if m.reference else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": _median([p["wall_s"] for p in probes]) * speed,
    }


def _at_reference_speed(value, unit: str, speed: float):
    if value is None:
        return None
    return value * speed if unit == "s" else value / speed if unit == "1/s" else value


def per_layer(m: Measurement, probes: list[dict]) -> dict:
    traced_ops = m.good(traced=True)
    metrics = {
        name: _median([_at_reference_speed(op.layers[name], unit, op.speed) for op in traced_ops])
        for name, unit in PER_LAYER_UNITS.items() if name in LAYER_SOURCES
    }
    tables = _median([p["tables_s"] for p in probes])
    metrics["contexts.tables_s"] = _at_reference_speed(tables, "s", m.calibration.speed())
    traced = _median([op.scaled_s for op in traced_ops])
    untraced = _median([op.scaled_s for op in m.good(traced=False)])
    metrics["trace.overhead_share"] = traced / untraced - 1 if traced and untraced else None
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bvlcodec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bvlcodec" / "__init__.py").is_file():
        print(f"bvlcodec sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bvlcodec

    if Path(bvlcodec.__file__).resolve().parent != SRC / "bvlcodec":
        print(f"imported bvlcodec from {bvlcodec.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    ply = generate(args.workload, args.seed)
    probes = probe_setup(SETUP_PROBES)
    calibration = Calibration()
    with calibration.sampling():
        m = Measurement(args.workload, ply, bool(args.trace), calibration)
        m.run(args.seconds)

    warnings = [f"wrapped function not found: {name}" for name in m.tracer.missing]
    if args.trace:
        metrics, units = per_layer(m, probes), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(m, probes), END_TO_END_UNITS
    warnings += [f"{name} is null: its layer saw no call" for name, v in metrics.items() if v is None]
    failed = sum(not op.ok for op in m.ops)
    result = {
        "correct": failed == 0,
        "attempted": len(m.ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "voxels": m.voxels,
        "error_rate": failed / len(m.ops),
        "gate": asdict(m.gate) if m.gate else None,
        "calibration_reference_s": REFERENCE_S,
        "calibration_s": calibration.samples,
        "speed": calibration.speed(),
        "setup_probes": probes,
        "operations": [asdict(op) for op in m.ops],
        "warnings": warnings,
        "result": result,
        "spans": m.traced_spans,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    print(json.dumps(env), file=sys.stderr)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    ops = m.good(traced=False)
    print(f"{args.workload} seed {args.seed}: {m.voxels} voxels, {len(m.ops)} operations "
          f"({len(m.good(traced=True))} traced), error_rate {failed / len(m.ops):.4g}",
          file=sys.stderr)
    for name in units:
        value = metrics[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {units[name]}", file=sys.stderr)
    if ops:
        raw = statistics.median(m.voxels / op.encode_s for op in ops)
        print(f"  times scaled by machine speed {calibration.speed():.3f}; {len(ops)} untraced "
              f"operations; unscaled encode {raw:.6g} vox/s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
