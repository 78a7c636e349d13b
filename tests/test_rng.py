import pytest

from altia.rng import SplitMix64


def test_below_needs_a_positive_bound():
    rng = SplitMix64(1)
    for n in (0, -3):
        with pytest.raises(ValueError) as err:
            rng.below(n)
        assert str(err.value) == "below() needs a positive bound"
    assert {rng.below(3) for _ in range(60)} == {0, 1, 2}
