"""Tests of the machine-speed calibration."""

import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import calibration  # noqa: E402
from calibration import REFERENCE_S, Calibration  # noqa: E402


def test_speed_uses_the_samples_inside_the_interval():
    cal = Calibration()
    cal.samples = [(1.0, REFERENCE_S), (2.0, 2 * REFERENCE_S), (3.0, 4 * REFERENCE_S)]
    assert cal.speed(1.5, 3.5) == pytest.approx(1 / 3)
    assert cal.speed(0.5, 1.5) == pytest.approx(1.0)
    # No sample inside, or no interval: the whole run's mean.
    assert cal.speed(5.0, 6.0) == pytest.approx(3 / 7)
    assert cal.speed() == pytest.approx(3 / 7)


def test_sampling_takes_its_own_time_out_of_the_clock_and_restores_the_signal(monkeypatch):
    monkeypatch.setattr(calibration, "PERIOD_S", 0.01)
    before = signal.getsignal(signal.SIGALRM)
    cal = Calibration()
    with cal.sampling():
        start, wall = cal.clock(), calibration.time.perf_counter()
        calibration.calibration_loop(400_000)
        busy, wall = cal.clock() - start, calibration.time.perf_counter() - wall
    assert len(cal.samples) >= 2
    assert busy < wall
    assert busy == pytest.approx(wall - cal.stolen, abs=0.01)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
