from fractions import Fraction as F

import pytest

from fampersist.rational import format_rational


@pytest.mark.parametrize("value, text", [
    (0, "0"), (5, "5"), (-3, "-3"), (F(6, 8), "3/4"), (F(-3, 4), "-3/4")])
def test_format_rational(value, text):
    assert format_rational(value) == text
