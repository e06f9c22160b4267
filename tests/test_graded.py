import json

import pytest
from hypothesis import given, strategies as st

from nodalcat.graded import GradedDim, dual, euler, shift


def gd(d):
    return GradedDim.from_dict(d)


class TestShift:
    def test_bracket_arithmetic(self):
        assert shift(gd({2: 1}), 2) == gd({0: 1})  # C[-2] shifted by [2] is C

    def test_zero(self):
        assert shift(GradedDim.zero(), 7) == GradedDim.zero()

    def test_two_terms(self):
        # C + C[-3] shifted by [1] is C[1] + C[-2]
        assert shift(gd({0: 1, 3: 1}), 1) == gd({-1: 1, 2: 1})


class TestDual:
    def test_single(self):
        assert dual(gd({1: 1})) == gd({-1: 1})

    def test_degree_zero(self):
        assert dual(gd({0: 1})) == gd({0: 1})

    def test_mixed(self):
        assert dual(gd({2: 2, 0: 1})) == gd({-2: 2, 0: 1})


class TestEuler:
    def test_even_degrees(self):
        assert euler(gd({0: 1, 2: 1})) == 2

    def test_cancel(self):
        assert euler(gd({0: 1, 3: 1})) == 0

    def test_odd(self):
        assert euler(gd({1: 4})) == -4


def test_invalid_negative_multiplicity():
    with pytest.raises(ValueError):
        GradedDim.from_dict({0: -1})


def test_zero_entries_dropped():
    assert gd({0: 0, 1: 2}) == gd({1: 2})


def test_render_golden():
    assert GradedDim.zero().render() == "0"
    assert gd({0: 4}).render() == "C^4"
    assert gd({0: 1, 2: 1}).render() == "C + C[-2]"
    assert gd({-1: 1, 3: 2}).render() == "C[1] + C^2[-3]"


def test_json_golden():
    g = gd({0: 1, 2: 3})
    assert g.to_json() == {"0": 1, "2": 3}
    assert json.dumps(g.to_json()) == '{"0": 1, "2": 3}'


entries = st.dictionaries(st.integers(-6, 6), st.integers(1, 5), max_size=5)


@given(entries, st.integers(-4, 4), st.integers(-4, 4))
def test_shift_composes(d, a, b):
    g = gd(d)
    assert shift(shift(g, a), b) == shift(g, a + b)
    assert shift(g, 0) == g


@given(entries)
def test_dual_involution_and_euler(d):
    g = gd(d)
    assert dual(dual(g)) == g
    assert euler(dual(g)) == euler(g)


@given(entries, entries)
def test_addition_and_euler_additive(d1, d2):
    g, h = gd(d1), gd(d2)
    assert g + h == h + g
    assert g + GradedDim.zero() == g
    assert euler(g + h) == euler(g) + euler(h)


@given(entries, entries)
def test_tensor_euler_multiplicative(d1, d2):
    g, h = gd(d1), gd(d2)
    assert euler(g.tensor(h)) == euler(g) * euler(h)
