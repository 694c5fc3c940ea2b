"""Command line interface: encode, decode, bench, selftest."""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from pathlib import Path

import numpy as np

from . import depthmap, rangecoder, sections
from .cloud import VoxelCloud, parse_ply, quantize, source_bit_depth, write_ply
from .container import CSV_COLUMNS, decode_cloud, encode_cloud
from .contexts import build_norm_tables, check_norm_tables
from .errors import CodecError, PlyError
from .rangecoder import RangeDecoder, RangeEncoder, count_tables


def _permutation(value: str):
    if value == "auto":
        return value
    pid = int(value)
    if not 0 <= pid <= 5:
        raise argparse.ArgumentTypeError("permutation must be auto or 0..5")
    return pid


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return number


def _add_encode_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--permutation", type=_permutation, default="auto",
                   help="axis ordering: auto (try all 6, keep the smallest) or 0..5")
    p.add_argument("--max-shells", type=_positive_int, default=2, metavar="N",
                   help="surface+section passes before raw-coding leftovers, "
                        "at most 255 (default 2)")
    p.add_argument("--bits", type=_positive_int, default=None, metavar="N",
                   help="quantize coordinates to N bits per axis before encoding")
    p.add_argument("--report", choices=("text", "csv"), default="text")


def _load_cloud(path: Path, bits: int | None) -> tuple[VoxelCloud, bool]:
    cloud = parse_ply(path.read_bytes())
    noop = False
    if bits is not None:
        noop = bits > source_bit_depth(cloud)
        cloud = quantize(cloud, bits)
    return cloud, noop


def _cmd_encode(args) -> int:
    path = Path(args.input)
    cloud, noop = _load_cloud(path, args.bits)
    blob, report = encode_cloud(cloud, permutation=args.permutation,
                                max_shells=args.max_shells)
    report.quantize_noop = noop
    out = Path(args.output) if args.output else path.with_name(path.name + ".bvl")
    out.write_bytes(blob)
    if args.report == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        writer.writerow(report.csv_row(path.name))
        print(buf.getvalue(), end="")
    else:
        print(f"input:          {path}")
        print(f"output:         {out}")
        print(report.text())
    return 0


def _cmd_decode(args) -> int:
    path = Path(args.input)
    start = time.perf_counter()
    cloud = decode_cloud(path.read_bytes())
    elapsed = (time.perf_counter() - start) * 1000.0
    out = Path(args.output) if args.output else path.with_name(path.name + ".ply")
    out.write_bytes(write_ply(cloud, binary=args.binary))
    print(f"decoded {len(cloud.to_array())} points (dims {cloud.dims}) "
          f"in {elapsed:.1f} ms -> {out}")
    return 0


def _cmd_bench(args) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.ply"))
    if not files:
        print(f"no .ply files in {directory}", file=sys.stderr)
        return 2
    rows = []
    failures = 0
    for path in files:
        try:
            cloud, noop = _load_cloud(path, args.bits)
        except (OSError, PlyError, ValueError) as exc:
            print(f"skip {path.name}: {exc}", file=sys.stderr)
            continue
        try:
            blob, report = encode_cloud(cloud, permutation=args.permutation,
                                        max_shells=args.max_shells)
            report.quantize_noop = noop
            start = time.perf_counter()
            decoded = decode_cloud(blob)
            report.decode_ms = (time.perf_counter() - start) * 1000.0
        except CodecError as exc:
            print(f"error {path.name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        if decoded != cloud:
            print(f"MISMATCH {path.name}: decode differs from input", file=sys.stderr)
            failures += 1
            continue
        rows.append((path.name, report))
    if args.report == "csv":
        out = open(args.output, "w", newline="") if args.output else sys.stdout
        try:
            writer = csv.writer(out)
            writer.writerow(CSV_COLUMNS)
            for name, report in rows:
                writer.writerow(report.csv_row(name))
            if rows:
                mean_bpv = sum(r.bpv for _, r in rows) / len(rows)
                writer.writerow([
                    "average", sum(r.points for _, r in rows), "", "",
                    sum(r.stage1_bits for _, r in rows),
                    sum(r.stage2_bits for _, r in rows),
                    sum(r.residual_bits for _, r in rows),
                    sum(r.total_bits for _, r in rows),
                    f"{mean_bpv:.6f}", "", "",
                ])
        finally:
            if args.output:
                out.close()
    else:
        width = max((len(name) for name, _ in rows), default=4)
        print(f"{'file':<{width}}  {'points':>8}  {'perm':>4}  {'shells':>6}  "
              f"{'total_bits':>10}  {'bpv':>7}  {'enc_ms':>8}  {'dec_ms':>8}")
        for name, r in rows:
            print(f"{name:<{width}}  {r.points:>8}  {r.permutation:>4}  {r.shells:>6}  "
                  f"{r.total_bits:>10}  {r.bpv:>7.4f}  {r.encode_ms:>8.1f}  {r.decode_ms:>8.1f}")
        if rows:
            mean_bpv = sum(r.bpv for _, r in rows) / len(rows)
            print(f"average bpv over {len(rows)} files: {mean_bpv:.4f}")
    return 1 if failures else 0


def _selftest_coder() -> list[str]:
    """Round-trip the coder."""
    rng = np.random.default_rng(20240911)
    bits = (rng.random(30000) < 0.2).astype(int).tolist()
    picks = rng.integers(0, 16, size=len(bits)).tolist()
    enc = RangeEncoder(count_tables(16))
    enc.encode_many(picks, bits)
    dec = RangeDecoder(enc.finish(), count_tables(16))
    return [] if [dec.decode(pick) for pick in picks] == bits else ["coder round trip mismatch"]


def _selftest_cloud() -> VoxelCloud:
    rng = np.random.default_rng(7)
    pts = np.vstack((rng.integers(0, 32, size=(300, 3)), [(0, 0, 0), (31, 31, 31)]))
    return VoxelCloud.from_points(pts, (32, 32, 32))


def _selftest_depthmaps() -> list[str]:
    """The projection holds the points' z extrema, and the depth-map coder gives its maps back exactly."""
    cloud = _selftest_cloud()
    points = cloud.to_array()
    nx, ny, nz = cloud.dims
    pair = depthmap.project_array(points, cloud.dims)
    problems = []
    # Each point lies in its pixel's band, and each occupied pixel's band ends
    # at a point on either side: the points are distinct, so at most one per
    # pixel sits on each end.
    x, y, z = points.T
    lows, highs = pair.zmin[x, y], pair.zmax[x, y]
    ends = np.count_nonzero(pair.occ)
    if not (pair.occ[x, y].all() and (lows <= z).all() and (z <= highs).all()
            and np.count_nonzero(z == lows) == ends == np.count_nonzero(z == highs)):
        problems.append("the projection does not hold the points' z extrema")
    again = depthmap.decode_depthmaps(depthmap.encode_depthmaps(pair, nz).data, nx, ny, nz)
    if not all(np.array_equal(getattr(pair, name), getattr(again, name)) for name in ("occ", "zmin", "zmax")):
        problems.append("the decoded maps differ from the projection")
    return problems


def _selftest_sections() -> list[str]:
    """The decoder reconstructs the rows the encoder reached."""
    cloud = _selftest_cloud()
    points = cloud.to_array()
    pair = depthmap.project_array(points, cloud.dims)
    tables = count_tables(sections.SECTION_CONTEXTS)
    encoder = RangeEncoder(tables)
    reached, coded = sections.code_section(sections.build_section(pair, cloud.dims, points), tables, encoder=encoder)
    tables = count_tables(sections.SECTION_CONTEXTS)
    decoded, decoded_count = sections.code_section(sections.build_section(pair, cloud.dims), tables,
                                                   decoder=RangeDecoder(encoder.finish(), tables))
    problems = []
    rows = {tuple(row) for row in points[reached].tolist()}
    if coded != decoded_count or len(rows) != len(reached) or rows != {tuple(p) for p in decoded.tolist()}:
        problems.append("the decoded points differ from the rows the encoder reached")
    return problems


def _selftest_end_to_end() -> list[str]:
    problems = []
    cloud = _selftest_cloud()
    blob, _ = encode_cloud(cloud, permutation=0)
    if decode_cloud(blob) != cloud:
        problems.append("end-to-end round trip mismatch")
    return problems


def _cmd_selftest(_args) -> int:
    rangecoder.native()
    print(f"coder: native kernel {rangecoder.load_kernel()[1]}")
    checks = (
        ("normalization tables", lambda: check_norm_tables(build_norm_tables())),
        ("arithmetic coder", _selftest_coder),
        ("depth-map encoder", _selftest_depthmaps),
        ("section sweep", _selftest_sections),
        ("end-to-end round trip", _selftest_end_to_end),
    )
    failed = False
    for name, check in checks:
        try:
            problems = check()
        except (CodecError, ValueError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed = True
            for problem in problems:
                print(f"FAIL {name}: {problem}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvlcodec",
        description="Lossless geometry codec for voxelized point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a PLY file into a .bvl container")
    p.add_argument("input")
    p.add_argument("--output", "-o", default=None)
    _add_encode_options(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a .bvl container back to PLY")
    p.add_argument("input")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--binary", action="store_true", help="write binary PLY")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("bench", help="encode/decode every .ply in a directory")
    p.add_argument("directory")
    p.add_argument("--output", "-o", default=None, help="CSV output path (needs --report csv)")
    _add_encode_options(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.output is not None and args.report != "csv":
        parser.error("bench --output needs --report csv")
    try:
        return args.func(args)
    except (OSError, CodecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
