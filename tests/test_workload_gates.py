"""Every benchmark workload's cloud passes its gate.

perfbench/run.py checks each workload's gate on its first operation and
exits 1 when it trips, which fails the whole run. The gates read counters
wrapped around codec functions by name (sparse_scatter's reads the mask
pixels of encode_depthmaps and the decisions of sweep_encode), so a codec
change can trip one without breaking any codec test. This runs the same
gate on the seeded corpus, reading perfbench's modules without changing
them.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
from spans import Tracer, gate_counters  # noqa: E402
from workloads import PERMUTATION, check_gate, gate_facts  # noqa: E402

from bvlcodec import VoxelCloud, encode_cloud  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_workload_cloud_passes_its_gate(workload, seed):
    points, dims = corpus.generate(workload, seed)
    cloud = VoxelCloud.from_points(points, dims)
    tracer = Tracer()
    with tracer.installed(gate_counters()):
        _, report = encode_cloud(cloud, permutation=PERMUTATION[workload])
    check_gate(workload, gate_facts(len(cloud.points), report, tracer.take()))
