"""Set-up probe: a fresh interpreter imports bvlcodec and round-trips a tiny cloud.

Prints one JSON object with the time spent importing, building the context
tables on first use, and coding the tiny cloud. The caller times the whole
process from outside, which is the benchmark's setup_s.
"""

import itertools
import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bvlcodec  # noqa: E402
from bvlcodec import contexts  # noqa: E402

imported = time.perf_counter()
get_norm_lists = getattr(contexts, "get_norm_lists", None)
if get_norm_lists is not None:
    get_norm_lists()
tables = time.perf_counter()

points = [
    p for p in itertools.product(range(16), repeat=3)
    if 25.0 <= sum((c - 7.5) ** 2 for c in p) <= 36.0
]
cloud = bvlcodec.VoxelCloud.from_points(points, (16, 16, 16))
blob, _ = bvlcodec.encode_cloud(cloud, permutation=0)
if bvlcodec.decode_cloud(blob) != cloud:
    sys.exit("tiny round trip is not exact")
done = time.perf_counter()

print(json.dumps({
    "import_s": imported - start,
    "tables_s": tables - imported if get_norm_lists is not None else None,
    "codec_s": done - tables,
}))
