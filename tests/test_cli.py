"""End-to-end CLI tests."""

import csv

import numpy as np
import pytest

from bvlcodec import VoxelCloud, decode_cloud, depthmap, parse_ply, rangecoder, sections, write_ply
from bvlcodec.cli import main
from bvlcodec.container import CSV_COLUMNS
from bvlcodec.depthmap import DepthmapPair
from bvlcodec.rangecoder import CodedStream

import shapes


def _write_cloud(path, cloud, binary=False):
    path.write_bytes(write_ply(cloud, binary=binary))


def test_encode_decode_round_trip(tmp_path, capsys):
    cloud = shapes.hollow_sphere(32, 10)
    src = tmp_path / "sphere.ply"
    _write_cloud(src, cloud)
    packed = tmp_path / "sphere.bvl"
    assert main(["encode", str(src), "-o", str(packed), "--permutation", "0"]) == 0
    out = tmp_path / "restored.ply"
    assert main(["decode", str(packed), "-o", str(out)]) == 0
    assert parse_ply(out.read_bytes()) == cloud
    stdout = capsys.readouterr().out
    assert "bpv" in stdout


def test_encode_csv_report(tmp_path, capsys):
    cloud = shapes.solid_cube(8, 1, 7)
    src = tmp_path / "cube.ply"
    _write_cloud(src, cloud)
    assert main(["encode", str(src), "--report", "csv", "--permutation", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = list(csv.reader(lines))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][0] == "cube.ply"
    assert int(rows[1][1]) == len(cloud.points)
    assert (tmp_path / "cube.ply.bvl").exists()


def test_quantize_option(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = set(map(tuple, (rng.integers(0, 256, size=(200, 3))).tolist()))
    cloud = VoxelCloud.from_points(pts, (256, 256, 256))
    src = tmp_path / "cloud.ply"
    _write_cloud(src, cloud)
    packed = tmp_path / "q.bvl"
    assert main(["encode", str(src), "-o", str(packed), "--bits", "6",
                 "--permutation", "0"]) == 0
    out = tmp_path / "q.ply"
    assert main(["decode", str(packed), "-o", str(out)]) == 0
    decoded = parse_ply(out.read_bytes())
    assert decoded.points == {(x >> 2, y >> 2, z >> 2) for x, y, z in pts}
    assert decoded.dims == (64, 64, 64)


def test_quantize_noop_is_flagged(tmp_path, capsys):
    cloud = VoxelCloud.from_points({(1, 2, 3)}, (8, 8, 8))
    src = tmp_path / "tiny.ply"
    _write_cloud(src, cloud)
    assert main(["encode", str(src), "--bits", "12", "--permutation", "0"]) == 0
    assert "no-op" in capsys.readouterr().out


def test_bench_csv(tmp_path, capsys):
    rng = np.random.default_rng(1)
    clouds = {
        "a.ply": shapes.solid_cube(8, 2, 6),
        "b.ply": shapes.random_cloud((16, 16, 16), 5e-3, rng),
    }
    for name, cloud in clouds.items():
        _write_cloud(tmp_path / name, cloud)
    (tmp_path / "broken.ply").write_bytes(b"ply\nnot really")
    report = tmp_path / "report.csv"
    assert main(["bench", str(tmp_path), "--report", "csv", "-o", str(report),
                 "--permutation", "0"]) == 0
    err = capsys.readouterr().err
    assert "broken.ply" in err
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    names = [row[0] for row in rows[1:]]
    assert names == ["a.ply", "b.ply", "average"]
    for row in rows[1:3]:
        assert float(row[8]) > 0  # bpv column


def test_bench_text(tmp_path, capsys):
    _write_cloud(tmp_path / "one.ply", shapes.solid_cube(8, 1, 7))
    assert main(["bench", str(tmp_path), "--permutation", "0"]) == 0
    out = capsys.readouterr().out
    assert "average bpv" in out


def test_bench_output_needs_csv_report(tmp_path, capsys):
    # The text report goes to stdout, so an output path would be dropped unwritten.
    _write_cloud(tmp_path / "one.ply", shapes.solid_cube(8, 1, 7))
    report = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(tmp_path), "-o", str(report), "--permutation", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--report csv" in err
    assert not report.exists()


def test_binary_ply_decode_output(tmp_path):
    cloud = shapes.solid_cube(8, 2, 6)
    src = tmp_path / "c.ply"
    _write_cloud(src, cloud, binary=True)
    packed = tmp_path / "c.bvl"
    assert main(["encode", str(src), "-o", str(packed), "--permutation", "1"]) == 0
    out = tmp_path / "c.out.ply"
    assert main(["decode", str(packed), "-o", str(out), "--binary"]) == 0
    assert parse_ply(out.read_bytes()) == cloud


def test_missing_file_is_reported(capsys):
    assert main(["encode", "/nonexistent/cloud.ply"]) == 2
    assert "error" in capsys.readouterr().err


def test_directory_input_is_reported(tmp_path, capsys):
    assert main(["encode", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_oversized_dims_are_reported(tmp_path, capsys):
    src = tmp_path / "far.ply"
    src.write_bytes(
        b"ply\nformat ascii 1.0\nelement vertex 1\n"
        b"property int x\nproperty int y\nproperty int z\nend_header\n"
        b"4294967296 0 0\n"
    )
    assert main(["encode", str(src), "--permutation", "0"]) == 2
    assert "cells per plane" in capsys.readouterr().err
    assert not (tmp_path / "far.ply.bvl").exists()


@pytest.mark.parametrize("element, first_property", [
    (b"element vertex 1", b"property"),
    (b"element vertex -2", b"property int x"),
])
def test_malformed_ply_header_is_reported(tmp_path, capsys, element, first_property):
    src = tmp_path / "bad.ply"
    src.write_bytes(
        b"ply\nformat ascii 1.0\n" + element + b"\n" + first_property + b"\n"
        b"property int y\nproperty int z\nend_header\n0 0 0\n"
    )
    assert main(["encode", str(src), "--permutation", "0"]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "bad.ply.bvl").exists()


def test_corrupt_container_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.bvl"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    assert main(["decode", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "PASS depth-map encoder" in out and "PASS section sweep" in out
    assert "FAIL" not in out


def test_selftest_compares_the_depthmap_paths(capsys, monkeypatch):
    if rangecoder.native() is None:
        pytest.skip("native kernel unavailable")
    encode = depthmap._encode

    def spoiled(pair, nz, lib):
        stream = encode(pair, nz, lib)
        return stream if lib is not None else CodedStream(stream.data, stream.bit_length + 1)

    monkeypatch.setattr(depthmap, "_encode", spoiled)
    assert main(["selftest"]) == 1
    assert "FAIL depth-map encoder" in capsys.readouterr().out


def test_selftest_compares_the_section_paths(capsys, monkeypatch):
    if rangecoder.native() is None:
        pytest.skip("native kernel unavailable")
    code_buffers = sections._code_buffers

    def spoiled(buf, coder, truth=None):
        # The Python loop alone codes the first listed cell of each section wrong.
        if truth is not None and len(buf.queue):
            truth[buf.queue[0]] ^= 1
        return code_buffers(buf, coder, truth)

    monkeypatch.setattr(sections, "_code_buffers", spoiled)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL section sweep" in out and "PASS end-to-end round trip" in out


def test_selftest_compares_the_reached_points(capsys, monkeypatch):
    if rangecoder.native() is None:
        pytest.skip("native kernel unavailable")
    code_section = sections.code_section

    def spoiled(shell, tables, **coders):
        # The Python loop alone reports one reached point too few; its stream is right.
        reached, coded = code_section(shell, tables, **coders)
        return (reached[1:] if shell.buffers is None else reached), coded

    monkeypatch.setattr(sections, "code_section", spoiled)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL section sweep: native and Python reached points differ" in out
    assert "section streams differ" not in out and "PASS end-to-end round trip" in out


@pytest.mark.parametrize("module, name, spoil, problem", [
    (depthmap, "_project", lambda pair: DepthmapPair(pair.occ, pair.zmin, pair.zmax + 1),
     "FAIL depth-map encoder: native and numpy projections differ"),
    (sections, "_group", lambda groups: (groups[0], groups[1], groups[2][::-1]),
     "FAIL section sweep: native and numpy section groupings differ"),
    (sections, "_leftovers", lambda rows: rows[:-1], "FAIL section sweep: native and numpy leftovers differ"),
], ids=["projection", "grouping", "leftovers"])
def test_selftest_compares_the_row_passes(capsys, monkeypatch, module, name, spoil, problem):
    if rangecoder.native() is None:
        pytest.skip("native kernel unavailable")
    real = getattr(module, name)

    def spoiled(*args):
        # numpy's pass alone goes wrong; the codec runs the kernel's.
        result = real(*args)
        return spoil(result) if args[-1] is None else result

    monkeypatch.setattr(module, name, spoiled)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert problem in out and out.count("FAIL") == 1 and "PASS end-to-end round trip" in out


@pytest.mark.parametrize("option", ["--max-shells", "--bits"])
def test_encode_rejects_non_positive_integer_options(tmp_path, capsys, option):
    src = tmp_path / "tiny.ply"
    _write_cloud(src, VoxelCloud.from_points({(1, 2, 3)}, (8, 8, 8)))
    with pytest.raises(SystemExit) as exc:
        main(["encode", str(src), option, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and option in err


def test_encode_caps_max_shells_at_the_header_byte(tmp_path, capsys):
    cloud = VoxelCloud.from_points([(0, 0, z) for z in range(0, 1200, 2)], (1, 1, 1200))
    src = tmp_path / "column.ply"
    _write_cloud(src, cloud)
    packed = tmp_path / "column.bvl"
    args = ["encode", str(src), "-o", str(packed), "--permutation", "0", "--max-shells", "300"]
    assert main(args) == 0
    assert "shells:         255" in capsys.readouterr().out
    assert decode_cloud(packed.read_bytes()) == cloud
