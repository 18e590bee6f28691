"""A Clock scales each lap by its probes' slowdown against nominal."""

import time

import pytest

import refspeed


def test_lap_divides_wall_time_by_the_weighted_probe_slowdown(monkeypatch):
    blas, interp = refspeed.REF_NOMINAL_S

    def times(b, i):  # probe parts at b and i times their nominal
        return (b * blas, i * interp)

    probes = iter([times(1, 1)] * refspeed.WARMUP_PROBES
                  + [times(2, 2), times(2, 2), times(2, 4), times(1, 1)])
    monkeypatch.setattr(refspeed, "probe", lambda: next(probes))
    clock = refspeed.Clock()
    clock.start()
    time.sleep(0.02)
    wall, ref = clock.lap(0.5)  # both parts at 2x: half the wall time
    assert wall >= 0.02
    assert ref == pytest.approx(wall / 2)
    time.sleep(0.02)
    wall, ref = clock.lap(0.0)  # BLAS part only, 2x on both sides
    assert ref == pytest.approx(wall / 2)
    clock.start()  # reuses the probe it just took
    wall, ref = clock.lap(0.5)  # BLAS 2x -> 1x, interpreter 4x -> 1x
    assert ref == pytest.approx(wall / (0.5 * 1.5 + 0.5 * 2.5))
    assert len(clock.probes) == 4


def test_probe_parts_are_positive_and_short():
    assert all(0.0 < t < 1.0 for t in refspeed.probe())
