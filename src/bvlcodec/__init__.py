"""Lossless geometry codec for voxelized point clouds.

Encodes a cloud in two stages: min/max depth surfaces over the xy plane,
then a y-sweep over zOx sections that codes the points the surfaces missed
with rotation-normalized 3D contexts and adaptive binary arithmetic coding.
Disconnected leftovers are handled by extra shells and a raw residual.
"""

from .cloud import (
    AxisPermutation,
    VoxelCloud,
    parse_ply,
    quantize,
    source_bit_depth,
    write_ply,
)
from .container import RateReport, decode_cloud, encode_cloud
from .errors import (
    BitstreamError,
    CodecError,
    ContainerError,
    EmptyCloudError,
    PlyError,
    TruncatedStreamError,
)

__version__ = "0.1.0"

__all__ = [
    "AxisPermutation",
    "BitstreamError",
    "CodecError",
    "ContainerError",
    "EmptyCloudError",
    "PlyError",
    "RateReport",
    "TruncatedStreamError",
    "VoxelCloud",
    "decode_cloud",
    "encode_cloud",
    "parse_ply",
    "quantize",
    "source_bit_depth",
    "write_ply",
]
