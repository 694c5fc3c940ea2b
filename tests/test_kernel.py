"""The native kernel against the Python loops it replaces.

Every test skips when the kernel cannot be built or loaded here, so none
passes without running it. The Python path is forced by replacing the
kernel loader.
"""

import numpy as np
import pytest

from bvlcodec import CodecError, decode_cloud, encode_cloud, rangecoder
from bvlcodec.depthmap import DepthmapPair
from bvlcodec.rangecoder import RangeDecoder, count_tables
from bvlcodec.sections import build_section, code_section

import shapes


@pytest.fixture
def kernel():
    lib, where = rangecoder.load_kernel()
    if lib is None:
        pytest.skip(f"native kernel unavailable: {where}")
    return lib


def _force_python(monkeypatch):
    monkeypatch.setattr(rangecoder, "load_kernel", lambda: (None, "forced by the test"))


def _outcome(data: bytes):
    try:
        return decode_cloud(data)
    except CodecError as exc:
        return type(exc)


def test_corrupt_containers_end_alike_on_both_paths(kernel, monkeypatch):
    # Two concentric sphere shells: both shells code sections, and flips land
    # in the header, the length table and every payload.
    cloud = shapes.nested_hollow_spheres(24, (10, 5))
    blob, report = encode_cloud(cloud, permutation=0)
    assert report.shells == 2
    rng = np.random.default_rng(10)
    cases = []
    for _ in range(300):
        data = bytearray(blob)
        data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        cases.append(bytes(data))
    native = [_outcome(data) for data in cases]
    _force_python(monkeypatch)
    python = [_outcome(data) for data in cases]
    errors = 0
    for k, (a, b) in enumerate(zip(native, python)):
        if isinstance(a, type) or isinstance(b, type):
            assert a is b, f"case {k}: {a} natively, {b} in Python"
            errors += 1
        else:
            assert a == b, f"case {k}: the two paths decode different clouds"
    # Most flips are caught, some decode to a cloud: both outcomes are compared.
    assert 0 < errors < len(cases)


def test_containers_are_byte_identical_on_both_paths(kernel, monkeypatch):
    suite = shapes.fuzz_suite()
    native = [encode_cloud(cloud, permutation=k % 6)[0] for k, (_, cloud) in enumerate(suite)]
    _force_python(monkeypatch)
    python = [encode_cloud(cloud, permutation=k % 6)[0] for k, (_, cloud) in enumerate(suite)]
    for (name, _), a, b in zip(suite, native, python):
        assert a == b, name


def test_kernel_refuses_section_buffers_that_break_their_layout(kernel):
    # A listed cell on the border ring would read outside the run, and prev
    # bytes above 1 would index outside the context tables.
    pair = DepthmapPair(np.ones((4, 1), np.uint8), np.zeros((4, 1), np.int32), np.full((4, 1), 5, np.int32))
    spoilers = (
        lambda buf: setattr(buf, "queue", np.concatenate(([0], buf.queue))),
        lambda buf: buf.prev.__setitem__(slice(None), b"\x07" * len(buf.prev)),
    )
    for spoil in spoilers:
        buf = build_section(pair, 0, 6)
        spoil(buf)
        with pytest.raises(ValueError):
            code_section(buf, {}, decoder=RangeDecoder(bytes(8), *count_tables(0)))
