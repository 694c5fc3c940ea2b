"""Every benchmark workload's cloud passes its gate.

perfbench/run.py checks each workload's gate on its first operation and
exits 1 when it trips, which fails the whole run. The gates read counters
wrapped around codec functions by name (sparse_scatter's reads the mask
pixels of encode_depthmaps and the decisions of sweep_encode), so a codec
change can trip one without breaking any codec test. This runs the same
gate on the seeded corpus, reading perfbench's modules without changing
them, and decodes each container back to its cloud.

A run also exits 1 when one of its set-up probes (probe.py, a fresh
interpreter that round-trips a tiny cloud) fails, so the probe runs here
too, with glibc filling each allocation and each freed block with a byte
pattern, so that a read of memory the codec never wrote shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import corpus  # noqa: E402
from spans import Tracer, gate_counters  # noqa: E402
from workloads import PERMUTATION, check_gate, gate_facts  # noqa: E402

from bvlcodec import VoxelCloud, decode_cloud, encode_cloud  # noqa: E402


# Every nested_solid seed takes two shells and a residual; of the
# sparse_scatter seeds, 2, 6, 7 and 9 leave one or two points to the
# residual, which its first shell's leftover rows carry on to the second.
@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_workload_cloud_passes_its_gate(workload, seed):
    points, dims = corpus.generate(workload, seed)
    cloud = VoxelCloud.from_points(points, dims)
    tracer = Tracer()
    with tracer.installed(gate_counters()):
        blob, report = encode_cloud(cloud, permutation=PERMUTATION[workload])
    check_gate(workload, gate_facts(len(cloud.points), report, tracer.take()))
    assert decode_cloud(blob) == cloud


def test_setup_probe_exits_cleanly_with_perturbed_memory():
    # glibc fills each malloc'd block with 0x5A and each freed one with 0xA5.
    env = {**os.environ, "MALLOC_PERTURB_": "165"}
    for run in range(20):
        proc = subprocess.run([sys.executable, str(PERFBENCH / "probe.py")], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, f"run {run}: {proc.stderr}"
