import pytest

from stats import percentile, quartiles, rel_spread, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (27, 50.0), (99, 50.0), (100, 90.0), (120, 90.0),
     (999, 90.0), (1000, 99.0), (3215, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 0) == 1.0 and percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)


def test_spread_is_quartile_distance_over_median():
    values = list(range(1, 11))
    q1, med, q3 = quartiles(values)
    assert med == 5.5
    assert rel_spread(values) == pytest.approx((q3 - q1) / 5.5)
