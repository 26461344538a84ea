"""Exact class-product covering analysis, cross-checked by set brute force."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qrg import covering, engine, gf
from qrg.gf import PrimeField
from qrg.groupspec import build_group, parse_spec
from qrg.permutations import Permutation, parse_cycles


def build(text):
    return build_group(parse_spec(text))


def elem(g, cycles):
    return g.index_of(parse_cycles(cycles, degree=g.degree))


def tuple_class_of(g, x):
    """The class of x as raw image tuples, for oracle-side products."""
    c = g.classes[int(g.class_of[x])]
    return {g.element(int(i)).images for i in c.members}


def test_a6_triple_triple_growth():
    g = build("A6")
    x = elem(g, "(1 2 3)(4 5 6)")
    rep = covering.covering_number(g, x)
    assert rep.K == 3
    assert rep.property_holds
    assert rep.growth_trace == [(1, 40), (2, 270), (3, 360)]

    sizes = oracles.exact_product_sizes(tuple_class_of(g, x), oracles.compose, 3)
    assert sizes == [40, 270, 360]
    assert (
        oracles.covering_number_bruteforce(
            tuple_class_of(g, x), oracles.compose, g.order
        )
        == 3
    )


def test_a5_five_cycle_both_variants():
    g = build("A5")
    x = elem(g, "(1 2 3 4 5)")
    assert covering.covering_number(g, x).K == 3
    assert covering.covering_number(g, x, symmetric=True).K == 3
    assert (
        oracles.covering_number_bruteforce(
            tuple_class_of(g, x), oracles.compose, 60
        )
        == 3
    )


def test_s3_transposition_is_periodic():
    g = build("S3")
    x = elem(g, "(1 2)")
    rep = covering.covering_number(g, x)
    assert rep.K is None
    assert not rep.property_holds
    assert rep.reason == "periodic growth without covering"
    assert rep.growth_trace == [(1, 3), (2, 3), (3, 3)]
    assert (
        oracles.covering_number_bruteforce(tuple_class_of(g, x), oracles.compose, 6)
        is None
    )


def test_s5_five_cycles_stay_in_the_alternating_part():
    g = build("S5")
    rep = covering.covering_number(g, elem(g, "(1 2 3 4 5)"))
    assert rep.K is None
    assert rep.reason == "proper normal closure"


@pytest.mark.parametrize(
    "spec, cycles, reason",
    [
        ("S5", "(1 2 3 4 5)", "proper normal closure"),
        ("C100", "(" + " ".join(map(str, range(1, 101))) + ")", "max_k exceeded"),
        ("A5", "(1 2 3)", None),
    ],
    ids=["S5", "C100", "A5"],
)
def test_covering_number_reads_the_closure_from_the_powers(monkeypatch, spec, cycles, reason):
    # the closure check forms no products of its own: one set product per
    # power of the class, the last one the first repeat
    g = build(spec)
    x = elem(g, cycles)
    calls = []
    product = engine.GroupTable.class_set_product_bits
    monkeypatch.setattr(engine.GroupTable, "normal_closure_bits", None)
    monkeypatch.setattr(
        engine.GroupTable, "class_set_product_bits",
        lambda self, a, b: calls.append((a, b)) or product(self, a, b),
    )
    rep = covering.covering_number(g, x)
    assert rep.reason == reason
    if reason == "proper normal closure":
        assert rep.growth_trace == []
    assert len(calls) == len(g.class_set_powers(1 << int(g.class_of[x]))[0])


def test_identity_inputs():
    assert covering.covering_number(build("C1"), 0).K == 1
    rep = covering.covering_number(build("S3"), 0)
    assert rep.K is None
    assert rep.reason == "trivial class"


def test_symmetric_class_set():
    # A4 three-cycles: inversion swaps the two split classes
    g = build("A4")
    x = elem(g, "(1 2 3)")
    c = int(g.class_of[x])
    plain = covering._class_bits(g, c, False)
    sym = covering._class_bits(g, c, True)
    assert g.class_bits_size(plain) == 4
    assert g.class_bits_size(sym) == 8
    assert bin(sym).count("1") == 2

    # A5 is ambivalent: every class already contains its inverses
    a5 = build("A5")
    c = int(a5.class_of[elem(a5, "(1 2 3 4 5)")])
    assert (
        a5.class_bits_size(covering._class_bits(a5, c, True))
        == a5.class_bits_size(covering._class_bits(a5, c, False))
        == 12
    )


def test_covering_property_includes_identity_power():
    g = build("A6")
    x = elem(g, "(1 2 3)(4 5 6)")
    assert covering.covering_property(g, x, 4, 2)
    # power 3 is the identity, so m = 3 must fail under the exact reading
    assert not covering.covering_property(g, x, 4, 3)


def test_resolve_m():
    g = build("A5")
    x = elem(g, "(1 2 3 4 5)")
    assert covering.resolve_m(g, x, math.inf) == 5
    assert covering.resolve_m(g, x, 2) == 2
    with pytest.raises(ValueError):
        covering.resolve_m(g, x, 0)


def test_double_covering_on_a5():
    g = build("A5")
    x = elem(g, "(1 2 3 4 5)")
    assert covering.double_covering_feasible(g, x, x, 2, 4, 2, 4)
    assert not covering.double_covering_feasible(g, x, x, 1, 4, 1, 4)

    # oracle recomputation of the k1 = k2 = 2 case at one power pair
    cls = tuple_class_of(g, x)
    sym = cls | {oracles.invert(t) for t in cls}
    two = {oracles.compose(a, b) for a in sym for b in sym}
    four = {oracles.compose(a, b) for a in two for b in two}
    assert len(four) == 60


def test_covering_mod_center_of_sl25():
    g = build("SL2:5")
    x = g.index_of(gf.parse_matrix("mat:p=5:[[1,1],[0,1]]"))
    q = engine.quotient(g, engine.center(g))
    assert covering.covering_property(q, int(q.proj[x]), 3, 1)
    assert not covering.covering_property(q, int(q.proj[x]), 2, 1)
    # absolutely, the unipotent class needs more depth than mod center
    assert not covering.covering_property(g, x, 3, 1)


def test_inflation_report_on_sl25():
    g = build("SL2:5")
    x = g.index_of(gf.parse_matrix("mat:p=5:[[1,1],[0,1]]"))
    factor, mod, minimal = covering.cosocle_inflation(g, [x], [1], [2], [x], [1], [2])
    assert engine.cosocle(g).num_classes == 2
    assert factor == 4  # 3n - 2 with n = 2
    assert mod.shape == minimal.shape == (1,) * 6
    assert mod.item()
    # holding mod the cosocle, it lifts at some f <= factor
    f = int(minimal.item())
    assert 1 <= f <= factor
    # the reported minimum really is minimal
    assert covering.double_covering_feasible(g, x, x, 2 * f, 1, 2 * f, 1)
    if f > 1:
        assert not covering.double_covering_feasible(
            g, x, x, 2 * (f - 1), 1, 2 * (f - 1), 1
        )


@pytest.mark.parametrize("spec", ["SL2:5", "SL2:7"])
def test_inflation_lift_is_read_from_the_minimal_factor(spec):
    """mod is the double covering in G / cosocle, and minimal the least f
    at which the double covering at f * k1, f * k2 holds in G, or 0:
    feasibility only grows with f, as A^a B^b = G gives A^(a+i) B^(b+j) = G.
    Each cell of the grid over every exponent at once is checked against
    single feasibility calls."""
    g = build(spec)
    q = engine.quotient(g, engine.cosocle(g))
    reps = [c.rep for c in g.classes]
    ks = ms = [1, 2, 3]
    factor, mod, minimal = covering.cosocle_inflation(g, reps, ms, ks, reps, ms, ks)
    assert factor == covering.inflation_factor(engine.cosocle(g).num_classes)
    lifted = 0
    for a, x in enumerate(reps):
        for b, y in enumerate(reps):
            for k1, m1, k2, m2 in [(1, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 3)]:
                cell = (a, ms.index(m1), ks.index(k1), b, ms.index(m2), ks.index(k2))
                mod_holds = covering.double_covering_feasible(
                    q, int(q.proj[x]), int(q.proj[y]), k1, m1, k2, m2
                )
                assert mod[cell] == mod_holds
                if not mod_holds:
                    continue
                feasible = [
                    covering.double_covering_feasible(g, x, y, f * k1, m1, f * k2, m2)
                    for f in range(1, factor + 1)
                ]
                want = feasible.index(True) + 1 if True in feasible else 0
                assert minimal[cell] == want
                # monotone in f: once it holds, it keeps holding
                assert feasible == sorted(feasible)
                # the bound: holding mod the cosocle, it holds at the factor
                assert feasible[-1]
                lifted += 1
    assert lifted > 0


def test_inflation_mod_failure_leaves_lift_unchecked():
    g = build("SL2:5")
    # the central involution's class is a single element; nothing covers
    z = engine.center(g)
    central = [int(i) for i in z.members if i != 0][0]
    _, mod, minimal = covering.cosocle_inflation(
        g, [central], [1], [1], [central], [1], [1]
    )
    assert not mod.item()
    assert minimal.item() == 0


def test_product_witness_index():
    a5 = build("A5")
    c2 = build("C2")
    prod = engine.direct_product(a5, c2)
    for i in (0, 7, 59):
        for j in (0, 1):
            idx = covering.product_witness_index([a5, c2], [i, j])
            e1, e2 = prod.element(idx)
            assert e1 == a5.element(i)
            assert e2 == c2.element(j)


def test_product_preservation_round_trip():
    a5 = build("A5")
    x = elem(a5, "(1 2 3 4 5)")
    prod = engine.direct_product(a5, a5)
    xt = covering.product_witness_index([a5, a5], [x, x])
    assert covering.double_covering_feasible(a5, x, x, 2, 4, 2, 4)
    assert covering.double_covering_feasible(prod, xt, xt, 2, 4, 2, 4)
    # (1,4,1,4) fails on the factor, so it cannot transfer
    assert not covering.double_covering_feasible(a5, x, x, 1, 4, 1, 4)


# -- power-range covering against brute force on random groups -----------------


@st.composite
def perm_generators(draw, max_degree=6):
    """One to three uniformly random permutations of a uniformly random
    degree 2..max_degree, half the time all made even (an odd one is
    composed with a transposition), so that alternating groups, where
    classes cover, turn up too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degree = int(rng.integers(2, max_degree + 1))
    gens = [tuple(rng.permutation(degree).tolist()) for _ in range(rng.integers(1, 4))]
    if draw(st.booleans()):
        swap = (1, 0) + tuple(range(2, degree))
        gens = [x if oracles.parity_by_inversions(x) == "even" else oracles.compose(x, swap)
                for x in gens]
    return gens


POWER_RANGES = st.sampled_from([1, 2, 3, math.inf])
DEPTHS = st.integers(1, 3)


def _index_oracle(g):
    """Elements 0..|G|-1 with the oracle product of image tuples; a quotient
    multiplies its coset representatives, the smallest member of each coset,
    in the parent and projects."""
    if g.kind == "quot":
        parent = _index_oracle(g.parent)[1]
        reps = np.unique(g.proj, return_index=True)[1].tolist()
        proj = g.proj.tolist()
        return list(range(g.order)), lambda a, b: proj[parent(reps[a], reps[b])]
    images = [g.element(i).images for i in range(g.order)]
    index = {x: i for i, x in enumerate(images)}
    return list(range(g.order)), lambda a, b: index[oracles.compose(images[a], images[b])]


@settings(max_examples=60, deadline=None)
@given(
    perm_generators(),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.tuples(POWER_RANGES, DEPTHS, st.booleans()),
    st.tuples(POWER_RANGES, DEPTHS, POWER_RANGES, DEPTHS),
)
@example([()], 0, False, (math.inf, 1, False), (math.inf, 1, math.inf, 1))
def test_power_covering_matches_bruteforce_on_random_groups(gens, seed, quotient, single, double):
    g = engine.enumerate_group([Permutation(x) for x in gens])
    rng = np.random.default_rng(seed)
    if quotient:
        # any normal subgroup but G itself, the last one listed
        normals = engine.normal_subgroups(g)[:-1] or [engine.NormalSubgroup(g, 1)]
        g = engine.quotient(g, normals[rng.integers(len(normals))])
    elements, mul = _index_oracle(g)
    x, y = (int(v) for v in rng.integers(g.order, size=2))
    m, k, symmetric = single
    assert covering.covering_property(g, x, k, m, symmetric) == (
        oracles.power_covering_bruteforce(elements, mul, [(x, k, m, symmetric)])
    )
    m1, k1, m2, k2 = double
    assert covering.double_covering_feasible(g, x, y, k1, m1, k2, m2) == (
        oracles.power_covering_bruteforce(elements, mul, [(x, k1, m1, True), (y, k2, m2, True)])
    )


@settings(max_examples=30, deadline=None)
@given(perm_generators(), st.integers(0, 2**32 - 1), st.booleans())
@example([()], 0, False)
def test_covering_number_matches_bruteforce_on_random_groups(gens, seed, symmetric):
    g = engine.enumerate_group([Permutation(x) for x in gens])
    x = int(np.random.default_rng(seed).integers(g.order))
    elements, mul = _index_oracle(g)
    cls = set(g.classes[int(g.class_of[x])].members.tolist())
    if symmetric:
        cls |= {int(g.inv[z]) for z in cls}
    rep = covering.covering_number(g, x, symmetric, max_k=16)
    assert rep.K == oracles.covering_number_bruteforce(cls, mul, g.order)
    if rep.growth_trace:
        sizes = oracles.exact_product_sizes(cls, mul, len(rep.growth_trace))
        assert rep.growth_trace == list(enumerate(sizes, start=1))


@settings(max_examples=25, deadline=None)
@given(
    perm_generators(max_degree=5),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(POWER_RANGES, min_size=1, max_size=2, unique=True),
)
@example([()], 0, False, [math.inf])
def test_double_covering_grid_matches_bruteforce_on_random_groups(gens, seed, quotient, ms):
    """Sampled cells of a 2 x m x 2 grid on each side against brute force,
    with an exponent past the end of a base's cycle of powers; then every
    cell asked one at a time, as its own 1 x 1 grid, on a fresh copy of the
    group."""

    def build():
        g = engine.enumerate_group([Permutation(x) for x in gens])
        if quotient:
            normals = engine.normal_subgroups(g)[:-1] or [engine.NormalSubgroup(g, 1)]
            g = engine.quotient(g, normals[seed % len(normals)])
        return g

    g = build()
    rng = np.random.default_rng(seed)
    xs, ys = rng.integers(g.order, size=(2, 2)).tolist()
    powers, _ = g.class_set_powers(covering._class_bits(g, int(g.class_of[xs[0]]), True))
    ks = [1, len(powers) + 1 + int(rng.integers(3))]
    grid = covering.double_covering_grid(g, xs, ms, ks, ys, ms, ks)
    assert grid.shape == (2, len(ms), 2, 2, len(ms), 2)
    cells = list(np.ndindex(grid.shape))
    elements, mul = _index_oracle(g)
    for i in rng.choice(len(cells), size=6, replace=False):
        a, b, c, d, e, f = cells[i]
        sides = [(xs[a], ks[c], ms[b], True), (ys[d], ks[f], ms[e], True)]
        assert grid[cells[i]] == oracles.power_covering_bruteforce(elements, mul, sides)
    fresh = build()
    for a, b, c, d, e, f in cells:
        assert covering.double_covering_feasible(
            fresh, xs[a], ys[d], ks[c], ms[b], ks[f], ms[e]
        ) == grid[a, b, c, d, e, f]


def test_minimal_factor_matches_element_oracle_on_sl25():
    """cosocle_inflation's minimal is the first f at which the double
    covering at f * k1, f * k2 holds, by brute force over SL2(5) as entry
    4-tuples, on each cell that holds modulo the cosocle."""
    g = build("SL2:5")
    mul = oracles.sl2_mul(5)
    elements = sorted(oracles.group_closure(oracles.sl2_gens(5), mul))
    tuples = [tuple(g.element(i).entries.ravel().tolist()) for i in range(g.order)]
    assert sorted(tuples) == elements
    reps = [c.rep for c in g.classes]
    ks = ms = [1, 2, 3]
    factor, mod, minimal = covering.cosocle_inflation(g, reps, ms, ks, reps, ms, ks)
    factors = set()
    for (a, x), (b, y) in itertools.combinations_with_replacement(enumerate(reps), 2):
        for k1, m1, k2, m2 in [(1, 1, 1, 1), (2, 1, 1, 2), (1, 3, 2, 1)]:
            cell = (a, ms.index(m1), ks.index(k1), b, ms.index(m2), ks.index(k2))
            if not mod[cell]:
                continue
            want = next((f for f in range(1, factor + 1) if oracles.power_covering_bruteforce(
                elements, mul, [(tuples[x], f * k1, m1, True), (tuples[y], f * k2, m2, True)]
            )), 0)
            assert minimal[cell] == want
            factors.add(want)
    assert {1, 2} <= factors
