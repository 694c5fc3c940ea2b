"""End-to-end CLI tests."""

import csv

import numpy as np
import pytest

from bvlcodec import VoxelCloud, decode_cloud, depthmap, encode_cloud, parse_ply, rangecoder, sections, write_ply
from bvlcodec.cli import main
from bvlcodec.container import CSV_COLUMNS
from bvlcodec.depthmap import DepthmapPair

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


def _spoil_coder_output(side, spoil):
    """Apply spoil to the points or rows that code_section returns on one side, encoder or decoder, only."""
    return lambda result, coders: (spoil(result[0]), result[1]) if side in coders else result


def _assert_selftest_reports(capsys, monkeypatch, module, name, spoil, problem):
    """Spoil what module.name returns, by spoil(result, keyword arguments); the self-test must report problem."""
    real = getattr(module, name)

    def spoiled(*args, **kwargs):
        return spoil(real(*args, **kwargs), kwargs)

    monkeypatch.setattr(module, name, spoiled)
    assert main(["selftest"]) == 1
    assert problem in capsys.readouterr().out


def test_selftest_compares_the_depthmap_paths(capsys, monkeypatch):
    # The decoder's maps against the encoder's.
    _assert_selftest_reports(capsys, monkeypatch, depthmap, "decode_depthmaps",
                             lambda pair, _: DepthmapPair(pair.occ, pair.zmin, pair.zmax + 1),
                             "FAIL depth-map encoder: the decoded maps differ from the projection")


def test_selftest_compares_the_section_paths(capsys, monkeypatch):
    # The decoder's points against the encoder's reached rows.
    _assert_selftest_reports(capsys, monkeypatch, sections, "code_section",
                             _spoil_coder_output("decoder", lambda points: points[:-1]),
                             "FAIL section sweep: the decoded points differ from the rows the encoder reached")


def test_selftest_compares_the_reached_points(capsys, monkeypatch):
    # The encoder reports one reached row too few; its stream is right.
    _assert_selftest_reports(capsys, monkeypatch, sections, "code_section",
                             _spoil_coder_output("encoder", lambda rows: rows[1:]),
                             "FAIL section sweep: the decoded points differ from the rows the encoder reached")


@pytest.mark.parametrize("module, name, spoil, problem", [
    (depthmap, "project_array", lambda pair, _: DepthmapPair(pair.occ, pair.zmin, pair.zmax - (pair.zmax > pair.zmin)),
     "FAIL depth-map encoder: the projection does not hold the points' z extrema"),
    # Every column's cursor starts past its first row, a seed of the sweep.
    (sections, "_column_starts", lambda starts, _: starts + 1,
     "FAIL section sweep: the decoded points differ from the rows the encoder reached"),
], ids=["projection", "grouping"])
def test_selftest_compares_the_row_passes(capsys, monkeypatch, module, name, spoil, problem):
    _assert_selftest_reports(capsys, monkeypatch, module, name, spoil, problem)


def test_a_kernel_that_cannot_load_ends_in_one_error_line(tmp_path, capsys, monkeypatch):
    # Building a cloud needs the kernel too, so the cloud and its file come first.
    cloud = shapes.hollow_sphere(16, 5)
    src = tmp_path / "sphere.ply"
    _write_cloud(src, cloud)
    monkeypatch.setattr(rangecoder, "load_kernel", lambda: (None, "forced by the test"))
    with pytest.raises(OSError, match="forced by the test"):
        encode_cloud(cloud)
    for args in (["encode", str(src)], ["selftest"]):
        assert main(args) == 2
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:"), args
        assert "forced by the test" in errors[0] and "gcc" in errors[0]
        assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "sphere.ply.bvl").exists()


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
