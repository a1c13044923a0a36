import time

import pytest

import refspeed


def test_scale_is_nominal_over_the_mean_sample_in_the_window():
    nominal = refspeed.REF_NOMINAL_S
    meter = refspeed.Speedometer(interval_s=1.0)
    meter.samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 3 * nominal), (3.0, 9 * nominal)]
    assert meter.scale((1.0, 2.5)) == pytest.approx(1 / 2.5)
    # A window between two samples takes the one before it.
    assert meter.scale((0.2, 0.8)) == pytest.approx(1.0)
    assert meter.scale((10.0, 11.0)) == pytest.approx(1 / 9)
    with pytest.raises(ValueError):
        meter.scale((-2.0, -1.0))


def test_speedometer_samples_until_stopped():
    calls = []

    def reference():
        calls.append(time.perf_counter())
        return refspeed.REF_NOMINAL_S

    meter = refspeed.Speedometer(reference=reference, interval_s=0.01).start()
    start = time.perf_counter()
    time.sleep(0.1)
    meter.stop()
    assert len(meter.samples) == len(calls) >= 2
    assert meter.scale((start, time.perf_counter())) == pytest.approx(1.0)


def test_reference_loop_uses_cpu_time():
    assert refspeed.reference_cpu_s() > 0.0
