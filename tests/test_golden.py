"""Byte identity of containers and PLY output over the fuzz suite.

The digests pin the exact bytes the codec writes. A change to the point-set
representation must leave them alone; a deliberate format change updates
them together with the format version.
"""

import hashlib

from bvlcodec import encode_cloud, write_ply

import shapes

CONTAINERS_SHA256 = "4b70cc01a3fefcdde2012ce5fc2060fefe82a44d3bd0083f646580420870b136"
PLY_SHA256 = "eaafdb4b2fb3d4540b2d3d85fe329aeda4684faf8a5ce9dde2cd74a9184dc25e"


def test_fuzz_suite_containers_are_byte_identical():
    digest = hashlib.sha256()
    for k, (_, cloud) in enumerate(shapes.fuzz_suite()):
        blob, _ = encode_cloud(cloud, permutation=k % 6)
        digest.update(blob)
    assert digest.hexdigest() == CONTAINERS_SHA256


def test_fuzz_suite_ply_output_is_byte_identical():
    digest = hashlib.sha256()
    for _, cloud in shapes.fuzz_suite():
        digest.update(write_ply(cloud) + write_ply(cloud, binary=True))
    assert digest.hexdigest() == PLY_SHA256
