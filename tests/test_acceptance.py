"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bvlcodec import decode_cloud, encode_cloud, parse_ply
from bvlcodec.contexts import PATCH_COUNT, build_norm_tables, check_norm_tables
from bvlcodec.depthmap import DepthmapPair
from bvlcodec.rangecoder import RangeDecoder, RangeEncoder, count_tables
from bvlcodec.sections import SECTION_CONTEXTS, build_section, code_section

import shapes
from oracles import (
    binary_entropy,
    encode_section_decisions,
    flood_fill_shell,
    rotation_orbit_count,
    table_bytes,
)

_SUITE = None


def _fuzz_suite():
    global _SUITE
    if _SUITE is None:
        _SUITE = shapes.fuzz_suite()
    return _SUITE


@contextmanager
def _criterion(num, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL {name}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[criterion {num}] PASS {name} ({elapsed:.1f} s)")


def test_criterion_1_losslessness():
    with _criterion(1, "bit-exact round trip over the fuzz suite"):
        suite = _fuzz_suite()
        assert len(suite) >= 200
        names = [name for name, _ in suite]
        assert any("128" in n for n in names)
        assert any(n.startswith("triple") for n in names)
        assert any(n.startswith("z0_plane") for n in names)
        started = time.perf_counter()
        shell_counts = set()
        residuals = 0
        for k, (name, cloud) in enumerate(suite):
            blob, report = encode_cloud(cloud, permutation=k % 6)
            decoded = decode_cloud(blob)
            assert decoded == cloud, f"round trip mismatch on {name}"
            shell_counts.add(report.shells)
            if report.residual_bits > 32:
                residuals += 1
        elapsed = time.perf_counter() - started
        assert 2 in shell_counts, "no cloud exercised a second shell"
        assert residuals > 0, "no cloud exercised the raw residual"
        assert elapsed < 300.0, f"suite took {elapsed:.1f} s"


def test_criterion_2_normalization_tables():
    with _criterion(2, "exhaustive normalization-table checks"):
        started = time.perf_counter()
        tables = build_norm_tables()
        assert check_norm_tables(tables) == []
        assert np.array_equal(tables.i_star[tables.i_star], tables.i_star)
        sizes = np.bincount(tables.i_star, minlength=PATCH_COUNT)
        assert int((sizes > 0).sum()) == rotation_orbit_count()
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"table checks took {elapsed:.3f} s"


def test_criterion_3_coder_rate():
    with _criterion(3, "arithmetic coder rate within 2% of entropy"):
        n = 1_000_000
        for p, seed in ((0.5, 11), (0.1, 22), (0.01, 33)):
            rng = np.random.default_rng(seed)
            bits = (rng.random(n) < p).astype(int).tolist()
            enc = RangeEncoder(count_tables(1))
            enc.encode_many([0] * n, bits)
            rate = enc.finish().bit_length / n
            target = binary_entropy(p)
            assert abs(rate - target) <= 0.02 * target, (
                f"p={p}: rate {rate:.5f} vs entropy {target:.5f}"
            )
            print(f"  p={p}: rate {rate:.5f} bits/symbol, entropy {target:.5f}")


_PAPER_TARGETS = {
    "longdress": 0.91,
    "loot": 0.88,
    "redandblack": 1.03,
    "soldier": 0.96,
}


def test_criterion_4_dataset_rates():
    directory = os.environ.get("BVL_8I_DIR", "")
    frames = []
    if directory and Path(directory).is_dir():
        for path in sorted(Path(directory).glob("*.ply")):
            for sequence, target in _PAPER_TARGETS.items():
                if sequence in path.name.lower():
                    frames.append((path, sequence, target))
    if not frames:
        print("\n[criterion 4] WAIVED no 8i frame available "
              "(set BVL_8I_DIR to a directory of frames to enable)")
        pytest.skip("no dataset available; criterion waived per spec")
    with _criterion(4, "rate within 1.30x of the reference on 8i frames"):
        for path, sequence, target in frames:
            cloud = parse_ply(path.read_bytes())
            _, report = encode_cloud(cloud)
            print(f"  {path.name}: bpv {report.bpv:.4f} (target {target}, "
                  f"limit {1.30 * target:.4f}); stage1 {report.stage1_bits}, "
                  f"stage2 {report.stage2_bits}, residual {report.residual_bits}")
            assert report.bpv <= 1.30 * target


def test_criterion_5_section_oracle_equivalence():
    with _criterion(5, "section coder matches the flood-fill oracle"):
        rng = np.random.default_rng(515)
        checked = 0
        while checked < 50:
            nz = int(rng.integers(4, 33))
            nx = int(rng.integers(4, 33))
            section = shapes.random_section(rng, nz, nx, 0.55, 0.4)
            if not section[0]:
                continue
            # The section alone as a shell, then after a random section 0,
            # whose reconstruction is the previous section of its contexts.
            for shell in ([section], [shapes.random_section(rng, nz, nx, 0.8, 0.4), section]):
                occ = np.zeros((nx, len(shell)), np.uint8)
                zmin = np.zeros(occ.shape, np.int32)
                zmax = np.zeros(occ.shape, np.int32)
                for y, (columns, _) in enumerate(shell):
                    for x, (lo, hi) in columns.items():
                        occ[x, y], zmin[x, y], zmax[x, y] = 1, lo, hi
                pair = DepthmapPair(occ=occ, zmin=zmin, zmax=zmax)
                dims = (nx, len(shell), nz)
                points = np.array(sorted((x, y, z) for y, (_, cells) in enumerate(shell) for z, x in cells))
                labels, bits, oracle_occupied = flood_fill_shell(nz, nx, shell)
                oracle_stream, oracle_tables = encode_section_decisions(labels, bits)
                # Both sides code the shell in the kernel, in one code_section call each.
                enc_tables = count_tables(SECTION_CONTEXTS)
                enc = RangeEncoder(enc_tables)
                reached, n_enc = code_section(build_section(pair, dims, points), enc_tables, encoder=enc)
                stream = enc.finish()
                dec_tables = count_tables(SECTION_CONTEXTS)
                recon, n_dec = code_section(build_section(pair, dims), dec_tables,
                                            decoder=RangeDecoder(stream, dec_tables))
                occupied = set(map(tuple, recon.tolist()))
                assert set(map(tuple, points[reached].tolist())) == occupied and len(reached) == len(recon)
                assert n_enc == n_dec == len(labels)
                assert occupied == oracle_occupied
                assert stream == oracle_stream
                assert len(enc_tables) == len(set(labels))
                assert table_bytes(enc_tables) == table_bytes(oracle_tables) == table_bytes(dec_tables)
            checked += 1
        print(f"  verified {checked} random sections")


def test_criterion_6_permutation_search():
    with _criterion(6, "auto permutation equals the minimum fixed run"):
        for name, cloud in _fuzz_suite():
            fixed = [encode_cloud(cloud, permutation=pid)[1].total_bits
                     for pid in range(6)]
            _, auto = encode_cloud(cloud)
            assert auto.total_bits == min(fixed), name
            assert list(auto.permutation_totals) == fixed, name
        cube = shapes.solid_cube(16, 4, 12)
        cube_totals = [encode_cloud(cube, permutation=pid)[1].total_bits
                       for pid in range(6)]
        assert len(set(cube_totals)) == 1


def test_criterion_7_throughput():
    with _criterion(7, "64^3 hollow sphere encode+decode under 5 s"):
        cloud = shapes.hollow_sphere(64, 20)
        started = time.perf_counter()
        blob, _ = encode_cloud(cloud)
        decoded = decode_cloud(blob)
        elapsed = time.perf_counter() - started
        assert decoded == cloud
        print(f"  encode+decode took {elapsed:.2f} s")
        assert elapsed < 5.0
