"""Character degrees by modular class-algebra splitting, against two
independent numerical oracles, plus exact Gowers mixing counts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qrg import chars, covering, engine, gf
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
    "spec",
    [
        "C5", "S3", "S4", "S5", "S6", "S7", "D12", "A5", "A6", "A7",
        "SL2:5", "SL2:7", "SL2:11", "SL2:13", "SL2:17",
    ],
)
def test_degrees_match_class_algebra_oracle(spec):
    g = build(spec)
    gens, mul, inv = carrier_gens(g)
    want = oracles.degrees_class_algebra(gens, mul, inv)
    assert chars.character_degrees(g).degrees == want


_DEFECTIVE = "defective action at class {}".format
_INVALID = "degree multiset failed validation"
_A5 = (1, 3, 3, 4, 5)
_S5 = (1, 1, 4, 4, 5, 5, 6)
_SL2_5 = (1, 2, 2, 3, 3, 4, 4, 5, 6)
_A6 = (1, 5, 5, 8, 8, 9, 10)
_D12 = (1, 1, 1, 1, 2, 2, 2, 2, 2)
_SL2_7 = (1, 3, 3, 4, 4, 6, 6, 6, 7, 8, 8)

# _degrees_at_prime at every prime 11 <= ell <= 43 above the class count:
# the degrees, or the message of the split failure.  Most of these primes
# are not 1 mod exp(G), so the split fails at some of them, and the class
# and the reason it fails at are part of the outcome.
_SPLIT_OUTCOMES = {
    "A5": {
        11: _A5, 13: _DEFECTIVE(1), 17: _DEFECTIVE(1), 19: _A5, 23: _DEFECTIVE(1),
        29: _A5, 31: _A5, 37: _DEFECTIVE(1), 41: _A5, 43: _DEFECTIVE(1),
    },
    "S5": {11: _INVALID, **{ell: _S5 for ell in (13, 17, 19, 23, 29, 31, 37, 41, 43)}},
    "SL2:5": {
        11: _INVALID, 13: _DEFECTIVE(2), 17: _DEFECTIVE(2), 19: _SL2_5, 23: _DEFECTIVE(2),
        29: _SL2_5, 31: _SL2_5, 37: _DEFECTIVE(2), 41: _SL2_5, 43: _DEFECTIVE(2),
    },
    "A6": {
        11: _INVALID, 13: _DEFECTIVE(4), 17: _DEFECTIVE(4), 19: _INVALID, 23: _DEFECTIVE(4),
        29: _A6, 31: _A6, 37: _DEFECTIVE(4), 41: _A6, 43: _DEFECTIVE(4),
    },
    "D12": {
        11: _D12, 13: _D12, 17: _DEFECTIVE(2), 19: _DEFECTIVE(2), 23: _D12,
        29: _DEFECTIVE(2), 31: _DEFECTIVE(2), 37: _D12, 41: _DEFECTIVE(2), 43: _DEFECTIVE(2),
    },
    "SL2:7": {
        13: _DEFECTIVE(2), 17: _DEFECTIVE(2), 19: _DEFECTIVE(2), 23: _SL2_7,
        29: _DEFECTIVE(6), 31: _DEFECTIVE(2), 37: _DEFECTIVE(6), 41: _DEFECTIVE(2),
        43: _DEFECTIVE(6),
    },
}


@pytest.mark.parametrize("spec", sorted(_SPLIT_OUTCOMES))
def test_split_outcomes_at_small_primes(spec):
    g = build(spec)
    got = {}
    for ell in _SPLIT_OUTCOMES[spec]:
        assert ell > len(g.classes)
        try:
            got[ell] = tuple(chars._degrees_at_prime(g, ell))
        except chars._SplitFailure as exc:
            got[ell] = str(exc)
    assert got == _SPLIT_OUTCOMES[spec]


@pytest.mark.parametrize("spec", ["A6", "SL2:7", "D12"])
def test_class_by_class_split_without_the_generic_element(monkeypatch, spec):
    # with all coefficients zero the generic element splits nothing, so the
    # classes after class 1 do all the work
    monkeypatch.setattr(
        chars, "_generic_coefficients", lambda r, ell: np.zeros(r - 1, dtype=np.int64)
    )
    g = build(spec)
    gens, mul, inv = carrier_gens(g)
    assert chars.character_degrees(g).degrees == oracles.degrees_class_algebra(gens, mul, inv)
    test_split_outcomes_at_small_primes(spec)


@pytest.mark.parametrize("spec", ["S5", "A6", "D12", "SL2:7", "SL2:13"])
def test_one_elimination_per_split_space(monkeypatch, spec):
    # every space of dimension > 1 is split by one characteristic polynomial
    # and one elimination of its shifts by all the eigenvalues
    g = build(spec)
    calls = {"charpoly": 0, "eliminate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(chars, "_charpoly_mod", counted("charpoly", chars._charpoly_mod))
    monkeypatch.setattr(gf, "_eliminate", counted("eliminate", gf._eliminate))
    chars.character_degrees(g)
    assert calls["charpoly"] > 0
    assert calls["eliminate"] == calls["charpoly"]


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


CLOSED_FORMS = (
    [(f"A{n}", oracles.alternating_degrees(n)) for n in range(5, 10)]
    + [(f"S{n}", oracles.symmetric_degrees(n)) for n in range(5, 8)]
    + [(f"SL2:{p}", oracles.sl2_degrees(p)) for p in (5, 7, 11, 13, 17, 29, 31)]
    + [(f"PSL2:{p}", oracles.psl2_degrees(p)) for p in (7, 11, 29, 31)]
    + [
        ("prod(A5,A6)", oracles.product_degrees(
            oracles.alternating_degrees(5), oracles.alternating_degrees(6))),
        ("C12", oracles.cyclic_degrees(12)),
        ("D12", oracles.dihedral_degrees(12)),
    ]
)


@pytest.mark.parametrize("spec, degrees", CLOSED_FORMS, ids=[s for s, _ in CLOSED_FORMS])
def test_degrees_match_closed_forms(spec, degrees):
    # one degree per class, and SL2(p) has center {1, -1}
    g = build(spec)
    assert chars.character_degrees(g, cap=10**6).degrees == degrees
    assert len(g.classes) == len(degrees)
    if spec.startswith("SL2:"):
        assert engine.center(g).order == 2


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


@pytest.mark.parametrize("spec", ["S4", "S5", "D12", "SL2:3", "prod(A5,C3)"])
def test_quasirandom_degree_of_a_non_perfect_group_needs_no_split(monkeypatch, spec):
    # G != G' has a nontrivial linear character, so D(G) = 1 is read off
    # the derived subgroup, and no degree is computed
    want = chars.character_degrees(build(spec)).degrees[1]

    def forbidden(*args, **kwargs):
        raise AssertionError("character degrees computed")

    monkeypatch.setattr(chars, "character_degrees", forbidden)
    assert chars.quasirandom_degree(build(spec)) == want == 1


def test_quasirandom_degree_of_perfect_groups_and_cached_degrees(monkeypatch):
    calls = []
    character_degrees = chars.character_degrees

    def counted(g, cap=chars.DEGREE_ORDER_CAP):
        calls.append(g.label)
        return character_degrees(g, cap=cap)

    monkeypatch.setattr(chars, "character_degrees", counted)
    # perfect groups still reach the split
    assert chars.quasirandom_degree(build("A5")) == 3
    assert chars.quasirandom_degree(build("SL2:5")) == 2
    assert len(calls) == 2
    # cached degrees are read as they are, with no derived subgroup formed
    s4 = build("S4")
    counted(s4)
    monkeypatch.setattr(chars, "is_perfect", lambda g: pytest.fail("is_perfect called"))
    assert chars.quasirandom_degree(s4) == 1
    # above the cap D(G) is not known, perfect or not
    with pytest.raises(CapExceeded):
        chars.quasirandom_degree(build("S5"), cap=100)


def _walked_classes(monkeypatch):
    """Calls to GroupTable._row_products, each the list of classes whose
    rows x * G it walked."""
    walks = []
    row_products = engine.GroupTable._row_products

    def counted(self, xs):
        walks.append(self.class_of[np.atleast_1d(xs)].tolist())
        return row_products(self, xs)

    monkeypatch.setattr(engine.GroupTable, "_row_products", counted)
    return walks


@pytest.mark.parametrize("spec", ["A6", "SL2:7"])
@pytest.mark.parametrize("lattice_first", [True, False])
def test_each_structure_row_is_walked_once_per_group(monkeypatch, spec, lattice_first):
    # the lattice, the exponent, the degrees and every retried prime read
    # one store; the lattice and the exponent each walk all missing rows in
    # one call.  The classes read the inverses, whose walk is not a
    # structure row, so the count starts after them
    g = build(spec)
    r = len(g.classes)
    walks = _walked_classes(monkeypatch)
    if lattice_first:
        engine.cosocle(g)
    chars.character_degrees(g)
    # the lattice, or else the exponent that picks the primes, walks first
    assert walks == [list(range(1, r))]
    engine.cosocle(g)
    for ell, want in _SPLIT_OUTCOMES[spec].items():
        try:
            assert tuple(chars._degrees_at_prime(g, ell)) == want
        except chars._SplitFailure as exc:
            assert str(exc) == want
    assert sorted(sum(walks, [])) == list(range(1, r))


@pytest.mark.parametrize("spec", ["A6", "SL2:7", "PSL2:7", "prod(A5,C3)"])
def test_power_maps_and_derived_subgroup_read_the_lattice_rows(monkeypatch, spec):
    # the power maps are read off the structure rows as they are walked, and
    # the commutators are the pair products C^-1 * C, so once the lattice has
    # walked every row nothing below walks one
    g = build(spec)
    engine.normal_subgroups(g)
    walks = _walked_classes(monkeypatch)
    g.exponent()
    engine.commutator_subgroup(g)
    for x in range(g.order):
        g.order_of(x)
    for c in range(len(g.classes)):
        g.power_classes(c)
    assert walks == []


@pytest.mark.parametrize("spec", ["A6", "SL2:7"])
def test_covering_walks_only_the_rows_of_its_class(monkeypatch, spec):
    g = build(spec)
    g.classes
    walks = _walked_classes(monkeypatch)
    seen = []
    for c in g.classes[1:4]:
        covering.covering_number(g, c.rep)
        seen.append(c.index)
        assert sorted(sum(walks, [])) == seen


def test_min_normal_index():
    assert chars.min_normal_index(build("S4")) == 2
    assert chars.min_normal_index(build("A5")) == 60  # simple
    assert chars.min_normal_index(build("SL2:5")) == 60  # the center
    assert chars.min_normal_index(build("C6")) == 2
    with pytest.raises(engine.TrivialGroup):
        chars.min_normal_index(build("C1"))


def test_mixing_hand_computed_case():
    # C4 with A = {0, 1}: the pair counts |A n xA| are (2, 1, 0, 1)
    g = build("C4")
    (rep,) = chars.gowers_mixing(g, [[0, 1]], Fraction(1, 2), Fraction(1, 2))
    assert rep.alpha == Fraction(1, 2)
    assert rep.threshold_pairs == 1  # ceil((1/2) * (1/4) * 4)
    assert rep.good_x_count == 3
    assert rep.passes  # 3 > (1/2) * (1/4) * 4 = 1/2


def test_mixing_strict_inequality_at_the_boundary():
    # A = G makes good_x_count = |G| = alpha^2 |G|; strict > must fail
    g = build("S3")
    (rep,) = chars.gowers_mixing(g, [range(6)], 0, Fraction(1, 2))
    assert rep.good_x_count == 6
    assert not rep.passes


def _mixing_oracle(g, elements, idxs, eps1, eps2):
    """(good_x_count, passes) by composing every x with every a in A."""
    subset = {g.element(int(i)).images for i in idxs}
    alpha = Fraction(len(subset), g.order)
    threshold = (1 - eps2) * alpha * alpha * g.order
    good = 0
    for x in elements:
        inter = sum(oracles.compose(x, a) in subset for a in subset)
        good += Fraction(inter) >= threshold
    return good, Fraction(good) > (1 - eps1) * alpha * alpha * g.order


def test_mixing_counts_match_bruteforce():
    g = build("S4")
    rng = np.random.default_rng(8)
    gens, mul, _ = carrier_gens(g)
    elements = sorted(oracles.group_closure(gens, mul))
    for _ in range(10):
        size = int(rng.integers(1, g.order + 1))
        idxs = np.sort(rng.choice(g.order, size=size, replace=False))
        eps1, eps2 = Fraction(1, 10), Fraction(1, 4)
        (rep,) = chars.gowers_mixing(g, [idxs], eps1, eps2)
        assert (rep.good_x_count, rep.passes) == _mixing_oracle(g, elements, idxs, eps1, eps2)


def test_mixing_counts_every_subset_in_one_walk_of_the_rows(monkeypatch):
    # S5's rows read 6 at a time, in 20 blocks, once per call however many
    # subsets; each report equals a call of its own and the oracle
    g = build("S5")
    monkeypatch.setattr(engine, "_ROW_BLOCK", 6 * g.order)
    assert [len(rows) for rows in g.row_blocks()] == [6] * 20
    walks = []
    row_blocks = g.row_blocks

    def counted():
        walks.append(1)
        return row_blocks()

    monkeypatch.setattr(g, "row_blocks", counted)
    rng = np.random.default_rng(5)
    subsets = [rng.choice(g.order, size=int(rng.integers(1, g.order + 1)), replace=False)
               for _ in range(6)]
    eps1, eps2 = Fraction(1, 10), Fraction(1, 3)
    reps = chars.gowers_mixing(g, subsets, eps1, eps2)
    assert len(walks) == 1
    assert reps == [chars.gowers_mixing(g, [a], eps1, eps2)[0] for a in subsets]
    assert len(walks) == 1 + len(subsets)
    gens, mul, _ = carrier_gens(g)
    elements = sorted(oracles.group_closure(gens, mul))
    for rep, a in zip(reps, subsets):
        assert (rep.good_x_count, rep.passes) == _mixing_oracle(g, elements, a, eps1, eps2)
    # no product table is left behind: no field of g holds order**2 entries
    assert all(
        np.size(v) < g.order**2 for v in vars(g).values() if isinstance(v, np.ndarray)
    )
    assert chars.gowers_mixing(g, [], eps1, eps2) == []


def test_mixing_float_eps_means_the_decimal():
    g = build("C4")
    (rep,) = chars.gowers_mixing(g, [[0, 1]], 0.1, 0.1)
    assert rep.eps1 == Fraction(1, 10)
    assert rep.eps2 == Fraction(1, 10)


def test_mixing_input_validation():
    g = build("C4")
    with pytest.raises(ValueError):
        chars.gowers_mixing(g, [[0], []], 0.1, 0.1)
    with pytest.raises(ValueError):
        chars.gowers_mixing(g, [[0], [7]], 0.1, 0.1)
