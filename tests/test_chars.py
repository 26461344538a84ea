"""Character degrees by modular class-algebra splitting, against two
independent numerical oracles, plus exact Gowers mixing counts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qrg import chars, engine
from qrg.errors import CapExceeded
from qrg.groupspec import build_group, parse_spec
from qrg.permutations import Permutation


def build(text):
    return build_group(parse_spec(text))


def carrier_gens(g):
    if g.kind == "perm":
        return [g.element(i).images for i in g.gens], oracles.compose, oracles.invert
    p = g.field.p
    gens = [tuple(int(x) for x in g.element(i).entries.ravel()) for i in g.gens]
    return gens, oracles.sl2_mul(p), oracles.sl2_inv(p)


@pytest.mark.parametrize(
    "spec", ["C5", "S3", "S4", "A5", "A6", "A7", "SL2:5", "SL2:7", "SL2:11"]
)
def test_degrees_match_class_algebra_oracle(spec):
    g = build(spec)
    gens, mul, inv = carrier_gens(g)
    want = oracles.degrees_class_algebra(gens, mul, inv)
    assert chars.character_degrees(g).degrees == want


@pytest.mark.parametrize("spec", ["C5", "S3", "S4", "A5", "SL2:5"])
def test_degrees_match_regular_representation_oracle(spec):
    g = build(spec)
    gens, mul, inv = carrier_gens(g)
    want = oracles.degrees_regular_rep(gens, mul, inv)
    assert chars.character_degrees(g).degrees == want


@st.composite
def perm_generators(draw, max_degree=6):
    """One to three uniformly random permutations of a uniformly random
    degree 2..max_degree, at least one of them not the identity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degree = int(rng.integers(2, max_degree + 1))
    while True:
        gens = [tuple(rng.permutation(degree).tolist()) for _ in range(rng.integers(1, 4))]
        if any(x != tuple(range(degree)) for x in gens):
            return gens


@settings(max_examples=30, deadline=None)
@given(perm_generators())
@example([()])  # the degree-0 permutation group
def test_degrees_match_oracles_on_random_permutation_groups(gens):
    g = engine.enumerate_group([Permutation(x) for x in gens])
    got = chars.character_degrees(g).degrees
    assert got == oracles.degrees_class_algebra(gens, oracles.compose, oracles.invert)
    if g.order <= 60:
        assert got == oracles.degrees_regular_rep(gens, oracles.compose, oracles.invert)


def test_known_degree_tables():
    assert build_degrees("A5") == (1, 3, 3, 4, 5)
    assert build_degrees("A6") == (1, 5, 5, 8, 8, 9, 10)
    assert build_degrees("SL2:5") == (1, 2, 2, 3, 3, 4, 4, 5, 6)
    assert build_degrees("SL2:13") == (
        1, 6, 6, 7, 7, 12, 12, 12, 12, 12, 12, 13, 14, 14, 14, 14, 14,
    )


def build_degrees(spec):
    return chars.character_degrees(build(spec)).degrees


def test_abelian_shortcut():
    assert build_degrees("C6") == (1,) * 6
    assert build_degrees("C1") == (1,)


def test_degree_cap_and_override():
    g = build("A8")
    with pytest.raises(CapExceeded):
        chars.character_degrees(g)
    got = chars.character_degrees(g, cap=25000).degrees
    gens, mul, inv = carrier_gens(g)
    assert got == oracles.degrees_class_algebra(gens, mul, inv)
    assert got == (1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64, 70)


def test_character_degrees_validation():
    with pytest.raises(ValueError):
        chars.CharacterDegrees(degrees=(1, 2), group_order=6)
    with pytest.raises(ValueError):
        chars.CharacterDegrees(degrees=(2, 2), group_order=8)


def test_charpoly_int64_limit():
    # sums of 2 products of residues below ell: 2 * (ell - 1)**2 < 2**63 holds
    # for the prime 2**31 - 1 and reaches 2**63 at ell = 2**31 + 1
    ell = 2**31 - 1
    assert chars._charpoly_mod(np.eye(2, dtype=np.int64), ell) == [1, ell - 2, 1]
    chars._check_residue_sums(2, 2**31)
    for past in (2**31 + 1, 2**31 + 11):
        with pytest.raises(OverflowError):
            chars._charpoly_mod(np.eye(2, dtype=np.int64), past)


def test_degree_normalization_int64_limit():
    # |G| * (ell - 1)**2 < 2**63 bounds the sum of |C_j| v_j v_j*; for S3 the
    # largest ell allowed is isqrt((2**63 - 1) // 6) + 1
    s3 = build("S3")
    top = math.isqrt((2**63 - 1) // 6) + 1
    chars._check_residue_sums(s3.order, top)
    with pytest.raises(OverflowError):
        chars._check_residue_sums(s3.order, top + 1)
    with pytest.raises(OverflowError):
        chars._degrees_at_prime(s3, top + 1)
    assert chars._degrees_at_prime(s3, 7) == [1, 1, 2]


def test_quasirandom_degree():
    assert chars.quasirandom_degree(build("A5")) == 3
    assert chars.quasirandom_degree(build("A6")) == 5
    assert chars.quasirandom_degree(build("S4")) == 1
    assert chars.quasirandom_degree(build("C1")) == math.inf


def test_min_normal_index():
    assert chars.min_normal_index(build("S4")) == 2
    assert chars.min_normal_index(build("A5")) == 60  # simple
    assert chars.min_normal_index(build("SL2:5")) == 60  # the center
    assert chars.min_normal_index(build("C6")) == 2
    with pytest.raises(engine.TrivialGroup):
        chars.min_normal_index(build("C1"))


def test_element_count_bound():
    # |G| > (D(G) - 1)^2
    assert chars.element_count_bound_check(build("A5"))  # 60 > 4
    assert chars.element_count_bound_check(build("S4"))  # 24 > 0
    assert not chars.element_count_bound_check(build("C1"))  # inf sentinel


def test_mixing_hand_computed_case():
    # C4 with A = {0, 1}: the pair counts |A n xA| are (2, 1, 0, 1)
    g = build("C4")
    rep = chars.gowers_mixing(g, [0, 1], Fraction(1, 2), Fraction(1, 2))
    assert rep.alpha == Fraction(1, 2)
    assert rep.threshold_pairs == 1  # ceil((1/2) * (1/4) * 4)
    assert rep.good_x_count == 3
    assert rep.passes  # 3 > (1/2) * (1/4) * 4 = 1/2


def test_mixing_strict_inequality_at_the_boundary():
    # A = G makes good_x_count = |G| = alpha^2 |G|; strict > must fail
    g = build("S3")
    rep = chars.gowers_mixing(g, range(6), 0, Fraction(1, 2))
    assert rep.good_x_count == 6
    assert not rep.passes


def test_mixing_counts_match_bruteforce():
    g = build("S4")
    rng = np.random.default_rng(8)
    gens, mul, _ = carrier_gens(g)
    elements = sorted(oracles.group_closure(gens, mul))
    for _ in range(10):
        size = int(rng.integers(1, g.order + 1))
        idxs = np.sort(rng.choice(g.order, size=size, replace=False))
        eps1, eps2 = Fraction(1, 10), Fraction(1, 4)
        rep = chars.gowers_mixing(g, idxs, eps1, eps2)

        subset = {g.element(int(i)).images for i in idxs}
        alpha = Fraction(size, g.order)
        threshold = (1 - eps2) * alpha * alpha * g.order
        good = 0
        for x in elements:
            inter = sum(oracles.compose(x, a) in subset for a in subset)
            good += Fraction(inter) >= threshold
        assert rep.good_x_count == good
        assert rep.passes == (Fraction(good) > (1 - eps1) * alpha * alpha * g.order)


def test_mixing_dense_and_fallback_paths_agree(monkeypatch):
    g = build("S4")
    idxs = list(range(0, 24, 2))
    dense_rep = chars.gowers_mixing(g, idxs, 0.1, 0.1)
    monkeypatch.setattr(g, "dense", lambda: None)
    slow_rep = chars.gowers_mixing(g, idxs, 0.1, 0.1)
    assert dense_rep == slow_rep


def test_mixing_float_eps_means_the_decimal():
    g = build("C4")
    rep = chars.gowers_mixing(g, [0, 1], 0.1, 0.1)
    assert rep.eps1 == Fraction(1, 10)
    assert rep.eps2 == Fraction(1, 10)


def test_mixing_input_validation():
    g = build("C4")
    with pytest.raises(ValueError):
        chars.gowers_mixing(g, [], 0.1, 0.1)
    with pytest.raises(ValueError):
        chars.gowers_mixing(g, [7], 0.1, 0.1)
