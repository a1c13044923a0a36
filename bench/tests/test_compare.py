from compare import verdict

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]


def test_improved_needs_nine_in_ten_wins_beyond_the_parent_spread():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.05) == "improved"
    assert verdict([1 / v for v in PARENT], [1 / v for v in change], "higher", 0.05) == "improved"


def test_improved_is_withheld_with_more_failures_or_too_few_pairs():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.05, more_failures=True) == "unchanged"
    assert verdict(PARENT[:9], change[:9], "lower", 0.05) == "unchanged"


def test_unchanged_within_the_bound():
    change = PARENT[1:] + PARENT[:1]
    assert verdict(PARENT, change, "lower", 0.05) == "unchanged"
    assert verdict(PARENT, [v * 1.03 for v in PARENT], "lower", 0.05) == "unchanged"


def test_regressed_beyond_the_bound():
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.05) == "regressed"
    assert verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.05) == "regressed"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.05) == "unresolved"
    # ...unless every change run beats every parent run; a gain still has
    # to clear the parent's quartile distance (6.5 here).
    assert verdict(noisy, [4.9] * 10, "lower", 0.05) == "unchanged"
    assert verdict(noisy, [3.0] * 10, "lower", 0.05) == "improved"
