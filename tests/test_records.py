from ddlab.records import lower_median


def test_median_is_lower_middle():
    assert lower_median([1, 2, 3, 4]) == 2
    assert lower_median([3.0]) == 3.0
