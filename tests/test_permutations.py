"""Permutation carrier: composition, cycles, parity, text round trips."""

import numpy as np
import pytest

import oracles
from qrg.errors import ParseError
from qrg.permutations import (
    Permutation,
    cycle_string,
    is_exceptional,
    parse_cycles,
)


def random_permutations(count, max_degree, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_degree + 1))
        out.append(Permutation(rng.permutation(n)))
    return out


def test_identity():
    assert Permutation.identity(4).images == (0, 1, 2, 3)


def test_images_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_parity_against_inversion_count():
    for p in random_permutations(60, 9, seed=3):
        want_even = oracles.parity_by_inversions(p.images) == "even"
        assert p.is_even() == want_even
        assert p.cycle_type().is_even == want_even


def test_cycles_partition_and_order():
    p = Permutation.from_cycles([(0, 1, 2), (3, 4)], 6)
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.cycles(include_fixed=True) == [(0, 1, 2), (3, 4), (5,)]
    assert p.cycle_type().lengths == (3, 2, 1)
    assert p.cycle_type().fixed_points == 1


def test_from_cycles_rejects_reuse_and_range():
    with pytest.raises(ValueError):
        Permutation.from_cycles([(0, 1), (1, 2)], 4)
    with pytest.raises(ValueError):
        Permutation.from_cycles([(0, 5)], 4)


@pytest.mark.parametrize(
    "lengths,expected",
    [
        ((7,), True),  # one odd cycle, trivially distinct
        ((5, 3, 1), True),
        ((3, 3, 1), False),  # repeat
        ((4, 4), False),  # even length present
        ((2, 2), False),
    ],
)
def test_exceptional_is_distinct_odd_lengths(lengths, expected):
    cycles = []
    start = 0
    for ln in lengths:
        cycles.append(tuple(range(start, start + ln)))
        start += ln
    p = Permutation.from_cycles(cycles, start)
    assert is_exceptional(p) == expected


def test_exceptional_rejects_odd_permutations():
    from qrg.permutations import OddPermutation

    with pytest.raises(OddPermutation):
        is_exceptional(Permutation.from_cycles([(0, 1, 2, 3)], 4))


def test_fixed_point_free():
    assert Permutation.from_cycles([(0, 1), (2, 3)], 4).is_fixed_point_free()
    assert not Permutation.from_cycles([(0, 1)], 3).is_fixed_point_free()


def test_parse_cycles_one_indexed():
    p = parse_cycles("(1 2 3)(4 5) degree=6")
    assert p.images == (1, 2, 0, 4, 3, 5)
    assert p.degree == 6


def test_parse_cycles_degree_kwarg_and_conflict():
    p = parse_cycles("(1 2)", degree=4)
    assert p.degree == 4
    with pytest.raises(ParseError):
        parse_cycles("(1 2) degree=3", degree=4)
    # matching suffix and kwarg is allowed
    assert parse_cycles("(1 2) degree=4", degree=4).degree == 4


def test_parse_cycles_requires_some_degree():
    with pytest.raises(ParseError):
        parse_cycles("(1 2 3)")


def test_parse_cycles_malformed():
    for bad in ["(1 2", "1 2) degree=3", "(a b) degree=3", "(0 1) degree=3"]:
        with pytest.raises(ParseError):
            parse_cycles(bad)


def test_parse_cycles_identity():
    p = parse_cycles("() degree=5")
    assert p.images == (0, 1, 2, 3, 4)


def test_cycle_string_round_trip():
    for p in random_permutations(30, 8, seed=4):
        assert parse_cycles(cycle_string(p)).images == p.images


def test_cycle_string_forms():
    p = Permutation.from_cycles([(0, 1, 2), (3, 4)], 6)
    assert cycle_string(p) == "(1 2 3)(4 5) degree=6"
    assert cycle_string(p, with_degree=False) == "(1 2 3)(4 5)"
    assert cycle_string(Permutation.identity(3)) == "() degree=3"


def test_immutability():
    p = Permutation.identity(3)
    with pytest.raises(AttributeError):
        p.images = (1, 0, 2)
