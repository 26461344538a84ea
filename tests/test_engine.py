"""Group enumeration, conjugacy machinery, quotients, and cosocles."""

import copy
import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qrg import chars, engine, gf
from qrg.errors import CapExceeded
from qrg.gf import FFMatrix, PrimeField
from qrg.groupspec import build_group, parse_spec
from qrg.permutations import Permutation, parse_cycles


def s4():
    return engine.enumerate_group(
        [Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))]
    )


def a5():
    return engine.enumerate_group(
        [Permutation((1, 2, 0, 3, 4)), Permutation((0, 1, 3, 4, 2))]
    )


def sl25():
    return engine.enumerate_group(gf.classical_generators("SL", 2, PrimeField(5)))


def _product_table(g):
    """Every row x * G, walked along the tree: the whole product table."""
    return np.concatenate(list(g.row_blocks()))


def test_enumerate_s4():
    g = s4()
    assert g.order == 24
    assert g.kind == "perm"
    assert g.element(0) == Permutation.identity(4)
    # every listed generator index multiplies correctly against the oracle
    table = _product_table(g)
    for i in range(g.order):
        for j in g.gens:
            got = g.element(int(table[i, j]))
            want = oracles.compose(g.element(i).images, g.element(j).images)
            assert got.images == want


def test_inverses_and_powers():
    g = s4()
    assert not _products(g, np.arange(g.order), g.inv).any()
    for i in range(g.order):
        assert g.power(i, g.order_of(i)) == 0
        assert g.power(i, -1) == int(g.inv[i])


def test_batched_multiplication_matches_scalar():
    # rows x * G walked three at a time equal the rows walked one at a time
    g = a5()
    rng = np.random.default_rng(5)
    xs = rng.integers(0, g.order, size=40)
    with mock.patch.object(engine, "_ROW_BLOCK", 3 * g.order):
        blocks = list(g.row_blocks(xs))
    assert [len(rows) for rows in blocks] == [3] * 13 + [1]
    for x, row in zip(xs.tolist(), np.concatenate(blocks)):
        assert row.tolist() == g._row_products(x).tolist()


def test_index_of_round_trip():
    g = sl25()
    for i in (0, 1, 17, 119):
        assert g.index_of(g.element(i)) == i
    with pytest.raises(KeyError):
        g.index_of(FFMatrix(PrimeField(5), [[2, 0], [0, 2]]))  # det 4, not in SL2
    with pytest.raises(KeyError, match="does not belong"):
        g.index_of(FFMatrix.identity(PrimeField(5), 3))


def test_index_of_refuses_a_transposition():
    # A5 is keyed by int64 codes, the dihedral group on 17 points by bytes
    rot = Permutation(tuple((i + 1) % 17 for i in range(17)))
    ref = Permutation(tuple((17 - i) % 17 for i in range(17)))
    for g in (build_group(parse_spec("A5")), engine.enumerate_group([rot, ref])):
        swap = Permutation((1, 0, *range(2, g.degree)))
        with pytest.raises(KeyError, match="element not in group"):
            g.index_of(swap)


def test_conjugacy_classes_match_bruteforce():
    g = s4()
    sizes = sorted(c.size for c in g.classes)
    assert sizes == [1, 3, 6, 6, 8]

    gens = [g.element(i).images for i in g.gens]
    elements = oracles.group_closure(gens, oracles.compose)
    want = oracles.conjugacy_partition(
        elements, gens, oracles.compose, oracles.invert
    )
    got = {
        frozenset(g.element(int(x)).images for x in c.members) for c in g.classes
    }
    assert got == set(want)


def test_class_of_and_inverse_class():
    g = a5()
    for c in g.classes:
        for x in c.members:
            assert int(g.class_of[x]) == c.index
        xinv = int(g.inv[c.rep])
        assert int(g.class_inverses[c.index]) == int(g.class_of[xinv])


def test_exponent():
    assert s4().exponent() == 12
    assert a5().exponent() == 30


def test_direct_product():
    a4 = engine.enumerate_group(
        [Permutation((1, 2, 0, 3)), Permutation((0, 2, 3, 1))]
    )
    c2 = engine.enumerate_group([Permutation((1, 0))])
    prod = engine.direct_product(a4, c2)
    assert prod.order == 24
    assert len(prod.classes) == len(a4.classes) * len(c2.classes)
    # index arithmetic: (i1, i2) -> i1 * |G2| + i2
    for i1 in (0, 3, 7):
        for i2 in (0, 1):
            idx = i1 * c2.order + i2
            e1, e2 = prod.element(idx)
            assert e1 == a4.element(i1)
            assert e2 == c2.element(i2)
    assert engine.direct_product(a4, c2, cap=24).order == 24
    with pytest.raises(CapExceeded, match="product order 24 exceeds cap 23"):
        engine.direct_product(a4, c2, cap=23)


def test_quotient_s4_by_v4():
    g = s4()
    v4_members = [
        i
        for i in range(g.order)
        if g.element(i).cycle_type().lengths in [(1, 1, 1, 1), (2, 2)]
    ]
    n = engine.normal_subgroup_from_elements(g, v4_members)
    assert n.order == 4
    q = engine.quotient(g, n)
    assert q.order == 6
    assert sorted(c.size for c in q.classes) == [1, 2, 3]
    # proj is a homomorphism
    rng = np.random.default_rng(6)
    xs, ys = rng.integers(0, g.order, size=(2, 50))
    want = q.proj[_products(g, xs, ys)]
    assert _products(q, q.proj[xs], q.proj[ys]).tolist() == want.tolist()


def test_normal_subgroups_of_s4():
    g = s4()
    orders = sorted(n.order for n in engine.normal_subgroups(g))
    assert orders == [1, 4, 12, 24]


def test_not_normal_rejected():
    g = s4()
    swap = g.index_of(Permutation((1, 0, 2, 3)))
    with pytest.raises(engine.NotNormal):
        engine.normal_subgroup_from_elements(g, [0, swap])
    # class unions that reach the subgroup check itself: the identity with
    # the transpositions (not closed), and V4's double transpositions
    # without the identity class
    one = int(g.class_of[0])
    transpositions = int(g.class_of[swap])
    doubles = int(g.class_of[g.index_of(Permutation((1, 0, 3, 2)))])
    for class_idxs in ([one, transpositions], [doubles]):
        with pytest.raises(engine.NotNormal, match="not closed under multiplication"):
            engine.normal_subgroup_from_classes(g, class_idxs)
        bits = sum(1 << c for c in class_idxs)
        with pytest.raises(engine.NotNormal, match="not a subgroup"):
            engine.quotient(g, engine.NormalSubgroup(g, bits))
    v4 = engine.normal_subgroup_from_classes(g, [one, doubles])
    assert engine.quotient(g, v4).order == 6


def test_center_and_cosocle():
    g = sl25()
    z = engine.center(g)
    assert z.order == 2
    cos = engine.cosocle(g)
    assert cos.order == 2
    assert cos.members.tolist() == z.members.tolist()

    s = s4()
    assert engine.cosocle(s).order == 12  # the alternating subgroup


def test_perfectness():
    assert engine.is_perfect(a5())
    assert engine.is_perfect(sl25())
    assert not engine.is_perfect(s4())
    assert engine.commutator_subgroup(s4()).order == 12  # the alternating subgroup


def test_enumeration_cap():
    # CapExceeded exactly when the order passes the cap, on both carriers
    a5_gens = [Permutation((1, 2, 0, 3, 4)), Permutation((0, 1, 3, 4, 2))]
    sl25_gens = gf.classical_generators("SL", 2, PrimeField(5))
    for gens, order in ((a5_gens, 60), (sl25_gens, 120)):
        cap = order - 1
        with pytest.raises(CapExceeded) as err:
            engine.enumerate_group(gens, cap=cap)
        assert str(err.value) == (
            f"group enumeration passed cap {cap}; raise the cap to continue"
        )
        assert engine.enumerate_group(gens, cap=order).order == order


def test_matrix_sets_past_the_row_table_are_refused(monkeypatch):
    # matrices are enumerated only on the table of all p**n row vectors,
    # with n row codes in one int64 key, and refused before any table is
    # built past either: SL2(5) at cap 24 < 5**2, monomial matrices of order
    # 32 mod 101 at cap 100 < 101**2, the 3 x 3 diagonal group mod 127
    # (order 126, 127**3 = 2048383 past the default cap, 127**9 > 2**62)
    # and S4 as 4 x 4 permutation matrices mod 17 (17**16 > 2**62)
    def no_table(*args):
        raise AssertionError("row table built")

    monkeypatch.setattr(engine, "_row_table", no_table)
    monomial = matrices(101, 2, [(10, 0, 0, 1), (0, 1, 1, 0)])
    cases = [
        (gf.classical_generators("SL", 2, PrimeField(5)), 24, ["p**n = 25", "cap 24"]),
        (monomial, 100, ["p**n = 10201", "cap 100"]),
        (matrices(127, 3, [(3, 0, 0, 0, 9, 0, 0, 0, 5)]), engine.DEFAULT_ORDER_CAP,
         ["p**n = 2048383", f"cap {engine.DEFAULT_ORDER_CAP}", "127**9 <= 2**62"]),
        (matrices(17, 4, _S4_MATRICES), engine.DEFAULT_ORDER_CAP, ["17**16 <= 2**62"]),
    ]
    for gens, cap, parts in cases:
        with pytest.raises(CapExceeded) as err:
            engine.enumerate_group(gens, cap=cap)
        for part in parts:
            assert part in str(err.value)
    # a cap that admits the row table builds the monomial group
    monkeypatch.undo()
    assert engine.enumerate_group(monomial, cap=101**2).order == 32


def test_mixed_carriers_rejected():
    with pytest.raises(engine.MixedCarriers):
        engine.enumerate_group(
            [Permutation((1, 0)), FFMatrix.identity(PrimeField(5), 2)]
        )


def test_singular_generator_rejected():
    with pytest.raises(gf.SingularMatrix):
        engine.enumerate_group([FFMatrix(PrimeField(5), [[1, 2], [2, 4]])])


# -- enumeration against a plain element-by-element BFS ------------------------


def _table(g):
    """Element i of a perm or mat group as a flat tuple, for every i."""
    if g.kind == "perm":
        return [g.element(i).images for i in range(g.order)]
    return [tuple(int(x) for x in g.element(i).entries.ravel()) for i in range(g.order)]


def _check_against_bfs(g, gens, mul):
    """Same elements in the same order, the same generator indices,
    inverses that multiply to the identity, and index_of inverting element."""
    want = oracles.bfs_enumeration(gens, mul)
    assert _table(g) == want
    index = {x: i for i, x in enumerate(want)}
    want_gens = []
    for h in gens:
        if index[h] != 0 and index[h] not in want_gens:
            want_gens.append(index[h])
    assert g.gens == (want_gens or [0])
    assert all(mul(x, want[i]) == want[0] for x, i in zip(want, g.inv.tolist()))
    assert all(g.index_of(g.element(i)) == i for i in range(g.order))


@st.composite
def perm_generators(draw, max_degree=7):
    """One to three uniformly random permutations of a uniformly random
    degree 2..max_degree, at least one of them not the identity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degree = int(rng.integers(2, max_degree + 1))
    while True:
        gens = [tuple(rng.permutation(degree).tolist()) for _ in range(rng.integers(1, 4))]
        if any(x != tuple(range(degree)) for x in gens):
            return gens


# (p, n) for random matrix groups; |GL_3(5)| = 1,488,000 is past the default
# cap, so n = 3 stops at p = 3
MATRIX_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


@st.composite
def matrix_generators(draw, shapes=MATRIX_SHAPES):
    p, n = draw(st.sampled_from(shapes))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n).filter(
        lambda e: oracles.det_mod_p([e[i * n : i * n + n] for i in range(n)], p)
    )
    return p, n, draw(st.lists(entries.map(tuple), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(perm_generators())
def test_enumeration_matches_bfs_oracle_on_random_permutation_groups(gens):
    g = engine.enumerate_group([Permutation(x) for x in gens])
    _check_against_bfs(g, gens, oracles.compose)


@settings(max_examples=40, deadline=None)
@given(matrix_generators())
def test_enumeration_matches_bfs_oracle_on_random_matrix_groups(drawn):
    p, n, gens = drawn
    field = PrimeField(p)
    g = engine.enumerate_group([FFMatrix(field, np.reshape(x, (n, n))) for x in gens])
    _check_against_bfs(g, gens, oracles.matmul_mod(p))


def matrices(p, n, gens):
    return [FFMatrix(PrimeField(p), np.reshape(x, (n, n))) for x in gens]


_S4_MATRICES = [
    tuple(int(x) for x in np.eye(4, dtype=np.int64)[list(perm)].ravel())
    for perm in ((1, 2, 3, 0), (1, 0, 2, 3))
]


def test_wide_keys_match_bfs_oracle():
    # codes would overflow int64 here (16**16 and 17**17 are past 2**62),
    # so rows are keyed by their bytes
    c16 = [tuple((i + 1) % 16 for i in range(16))]
    d17 = [
        tuple((i + 1) % 17 for i in range(17)),
        tuple((17 - i) % 17 for i in range(17)),
    ]
    for gens in (c16, d17):
        g = engine.enumerate_group([Permutation(x) for x in gens])
        assert g._pow is None
        _check_against_bfs(g, gens, oracles.compose)
    assert engine._radix_powers(15, 15) is not None
    assert engine._radix_powers(16, 16) is None


@pytest.mark.parametrize(
    "p, n, gens, cap",
    [
        # GL2(7)
        (7, 2, [(3, 0, 0, 5), (1, 1, 0, 1), (0, 6, 1, 0)], engine.DEFAULT_ORDER_CAP),
    ],
)
def test_matrix_build_looks_up_only_the_generators(monkeypatch, p, n, gens, cap):
    # inverses are read off R, so the one key search of a build is the one
    # that indexes the generators, and products after it search no keys
    calls = []
    find = engine.GroupTable._find_keys

    def counted(self, keys):
        calls.append(keys.shape)
        return find(self, keys)

    monkeypatch.setattr(engine.GroupTable, "_find_keys", counted)
    g = engine.enumerate_group(matrices(p, n, gens), cap=cap)
    assert calls == [(len(gens),)]
    assert not _products(g, np.arange(g.order), g.inv).any()
    assert calls == [(len(gens),)]
    assert g.index_of(g.element(g.order - 1)) == g.order - 1
    assert calls == [(len(gens),), ()]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=60),
    st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=1, max_size=40),
)
def test_first_unique_matches_np_unique(ints, rows):
    # int64 codes, negative ones too, and the byte keys of rows past the
    # int64 limit, all with many repeats
    for keys in (
        np.array(ints, dtype=np.int64),
        engine._row_keys(np.array(rows, dtype=np.int64), None),
    ):
        _check_stable_order(keys)


def _check_stable_order(keys):
    """_stable_order against a stable argsort, and _first_unique against
    np.unique."""
    ordered, at = engine._stable_order(keys)
    want = np.argsort(keys, kind="stable")
    assert at.dtype == want.dtype and np.array_equal(at, want)
    assert ordered.dtype == keys.dtype and np.array_equal(ordered, keys[want])
    uniq, first = engine._first_unique(keys)
    want_uniq, want_first = np.unique(keys, return_index=True)
    assert np.array_equal(uniq, want_uniq)
    assert np.array_equal(first, want_first)


@pytest.mark.parametrize("n", [2, 3, 5, 64, 1000, 1025])
def test_stable_order_at_the_packing_limit(n):
    # n keys leave room for their positions below 2**(63 - s), s the bit
    # length of n - 1, and from -2**(63 - s): keys at both ends pack, and a
    # key one past either end takes the argsort; each drawn with repeats
    s = (n - 1).bit_length()
    top = 2 ** (63 - s) - 1
    rng = np.random.default_rng(n)
    for lo, hi in ((-top - 1, top), (-top - 2, top), (-top - 1, top + 1)):
        values = np.array([lo, lo + 1, -1, 0, 1, hi - 1, hi], dtype=np.int64)
        keys = rng.choice(values, size=n)
        keys[:2] = hi, lo
        _check_stable_order(keys)


def _tree_layers(steps, order):
    """A tree's steps (new, parent, via * order) as index arrays (new,
    parent, via), slices expanded."""
    return [(np.arange(order)[new], parent, offset // order) for new, parent, offset in steps]


def _check_bfs_numbering(g):
    """The BFS over R picks each new element where enumeration numbered it."""
    layers = _tree_layers(engine._bfs_steps(g._right), g.order)
    want = _tree_layers(g._steps, g.order)
    assert len(layers) == len(want)
    for got, expected in zip(layers, want):
        assert all(np.array_equal(x, y) for x, y in zip(got, expected))


@settings(max_examples=40, deadline=None)
@given(perm_generators())
def test_bfs_layers_match_enumeration_on_int_keyed_permutations(gens):
    # drawn generating sets may repeat a generator or hold the identity
    g = engine.enumerate_group([Permutation(x) for x in gens])
    assert g._pow is not None
    _check_bfs_numbering(g)


def test_bfs_layers_match_enumeration_with_byte_keys():
    # degrees 16 and 17 are past the int64 codes; C4 x C4 reaches most of
    # its elements twice a layer, and the repeated generator and the
    # identity are dropped from gens but not from the enumeration
    c16 = Permutation(tuple((i + 1) % 16 for i in range(16)))
    a16 = Permutation(tuple(i - i % 4 + (i + 1) % 4 for i in range(16)))
    b16 = Permutation(tuple((i + 4) % 16 for i in range(16)))
    r17 = Permutation(tuple((i + 1) % 17 for i in range(17)))
    s17 = Permutation(tuple((17 - i) % 17 for i in range(17)))
    for gens in ([c16], [a16, b16], [r17, s17], [s17, Permutation.identity(17), r17, s17]):
        g = engine.enumerate_group(gens)
        assert g._pow is None
        _check_bfs_numbering(g)


@settings(max_examples=40, deadline=None)
@given(matrix_generators())
def test_bfs_layers_match_enumeration_on_matrix_groups(drawn):
    p, n, gens = drawn
    carriers = [FFMatrix(PrimeField(p), np.reshape(x, (n, n))) for x in gens]
    _check_bfs_numbering(engine.enumerate_group(carriers))


@pytest.mark.parametrize("spec", ["A7", "SL2:13"])
def test_build_forms_only_the_new_elements_rows(monkeypatch, spec):
    # products are keyed off one gather of their base images per layer,
    # which also holds the new elements' rows: the only rows keyed by
    # _row_keys are the identity's and the generators', never the products'
    # or the inverses'
    keyed, given = [], []
    action, row_keys = engine._action, engine._row_keys

    def counted_action(gens, cap):
        given.append(len(gens))
        return action(gens, cap)

    def counted_keys(rows, powers):
        keyed.append(len(np.atleast_2d(rows)))
        return row_keys(rows, powers)

    monkeypatch.setattr(engine, "_action", counted_action)
    monkeypatch.setattr(engine, "_row_keys", counted_keys)
    build_group(parse_spec(spec))
    assert sum(keyed) == 1 + given[0]


@pytest.mark.parametrize("spec", ["SL2:7", "SL3:3", "Sp4:3", "GL2:7"])
def test_inverses_match_elimination(spec):
    if spec == "GL2:7":
        g = engine.enumerate_group(matrices(7, 2, [(3, 0, 0, 5), (1, 1, 0, 1), (0, 6, 1, 0)]))
    else:
        g = build_group(parse_spec(spec))
    p = g.field.p
    rng = np.random.default_rng(2)
    for i in rng.choice(g.order, size=200, replace=False):
        want = gf.ff_inv(g.element(int(i)).entries, p)
        assert np.array_equal(g.element(int(g.inv[i])).entries, want)


def test_inverses_on_deep_trees():
    # element i of C1000 is r^i, the tree one path of 999 layers
    g = build_group(parse_spec("C1000"))
    assert g.inv.tolist() == [(-i) % 1000 for i in range(1000)]
    g = build_group(parse_spec("D500"))
    identity = tuple(range(500))
    for i, j in enumerate(g.inv.tolist()):
        assert oracles.compose(g.element(i).images, g.element(j).images) == identity


@pytest.mark.parametrize("spec", ["prod(A5,C3)", "prod(SL2:5,A4)", "SL2:7", "S5"])
def test_product_and_quotient_inverses_match_their_factors(spec):
    # a product's inverses are the pairs of its factors' inverses, and a
    # quotient's the cosets of its parent's inverses of the representatives
    g = build_group(parse_spec(spec))
    if g.kind == "prod":
        g1, g2 = g.factors
        assert np.array_equal(g.inv, (g1.inv[:, None] * g2.order + g2.inv).reshape(-1))
    else:
        q = engine.quotient(g, engine.cosocle(g))
        assert q.order < g.order
        reps = np.unique(q.proj, return_index=True)[1]
        assert np.array_equal(q.inv, q.proj[g.inv[reps]])


@pytest.mark.parametrize("p", [7, 11])
def test_quotient_index_of_maps_the_parent_element_to_its_coset(p):
    sl2 = build_group(parse_spec(f"SL2:{p}"))
    psl2 = build_group(parse_spec(f"PSL2:{p}"))
    assert psl2.kind == "quot" and psl2.parent.order == sl2.order
    for i in range(sl2.order):
        assert psl2.index_of(sl2.element(i)) == psl2.proj[i]
    # a product has no carrier of its own: its elements are named by index
    with pytest.raises(KeyError, match="element does not belong to this group"):
        build_group(parse_spec("prod(A5,C3)")).index_of(Permutation(tuple(range(5))))


# -- class-level subgroup machinery against the oracles ------------------------


def _carrier(x):
    """Plain tuple form of a group element, as the oracles take it."""
    if isinstance(x, Permutation):
        return x.images
    if isinstance(x, FFMatrix):
        return tuple(int(v) for v in x.entries.ravel())
    return tuple(_carrier(y) for y in x)


def _oracle_mul(g):
    if g.kind == "perm":
        return oracles.compose
    if g.kind == "mat":
        return oracles.matmul_mod(g.field.p)
    if g.kind == "quot":
        parent_mul = _oracle_mul(g.parent)
        # the set product of two cosets of a normal subgroup is a coset
        return lambda a, b: frozenset(parent_mul(x, y) for x in a for y in b)
    mul1, mul2 = (_oracle_mul(f) for f in g.factors)
    return lambda a, b: (mul1(a[0], b[0]), mul2(a[1], b[1]))


def _check_normal_closures(g):
    """Every single-class normal closure is the subgroup the class generates."""
    mul = _oracle_mul(g)
    for c in g.classes:
        got = engine.NormalSubgroup(g, g.normal_closure_bits([c.index])).members
        want = oracles.group_closure([_carrier(g.element(int(x))) for x in c.members], mul)
        assert {_carrier(g.element(int(x))) for x in got} == want


def _check_lattice(g):
    """The lattice is every class union that holds the identity and is closed
    under the oracle product, ascending by (order, class bitmask), and the
    cosocle is the intersection of its maximal proper members (the whole
    group when there are none)."""
    mul = _oracle_mul(g)
    classes = [{_carrier(g.element(int(x))) for x in c.members} for c in g.classes]
    identity = next(x for x in set().union(*classes) if mul(x, x) == x)
    full = (1 << len(classes)) - 1
    want = {}
    for bits in range(1, full + 1):
        union = set().union(*(classes[c] for c in range(len(classes)) if bits >> c & 1))
        if identity in union and all(mul(a, b) in union for a in union for b in union):
            want[bits] = len(union)
    got = engine.normal_subgroups(g)
    assert [n.class_bits for n in got] == sorted(want, key=lambda b: (want[b], b))
    assert [n.order for n in got] == sorted(want.values())
    proper = [b for b in want if b != full]
    cosocle = full
    for b in proper:
        if not any(m != b and m & b == b for m in proper):
            cosocle &= b
    assert engine.cosocle(g).class_bits == cosocle


def _check_powers(g):
    """power(i, k) for k in [-o, 2o] and order_of(i), by repeated products."""
    mul = _oracle_mul(g)
    elements = [_carrier(g.element(i)) for i in range(g.order)]
    identity = next(x for x in elements if mul(x, x) == x)
    for i, x in enumerate(elements):
        ups = [identity]
        while len(ups) == 1 or ups[-1] != identity:
            ups.append(mul(ups[-1], x))
        o = len(ups) - 1
        assert g.order_of(i) == o
        for _ in range(o):
            ups.append(mul(ups[-1], x))
        downs = [identity]
        inverse = ups[o - 1]  # x^(o-1) x = 1
        for _ in range(o):
            downs.append(mul(downs[-1], inverse))
        for k in range(-o, 2 * o + 1):
            want = ups[k] if k >= 0 else downs[-k]
            assert elements[g.power(i, k)] == want


FIXED_SPECS = ["S4", "A5", "SL2:5", "D7", "prod(A5,C2)"]


@pytest.mark.parametrize("spec", FIXED_SPECS)
def test_normal_closures_match_oracle(spec):
    _check_normal_closures(build_group(parse_spec(spec)))


# groups with rich lattices: 19, 16 and 10 normal subgroups
LATTICE_SPECS = FIXED_SPECS + ["prod(D4,C2)", "prod(prod(C2,C2),C2)", "prod(S3,S3)"]


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_lattice_matches_bruteforce_class_unions(spec):
    g = build_group(parse_spec(spec))
    assert len(g.classes) <= 10
    _check_lattice(g)


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "spec, n, total",
    [
        ("prod(prod(C2,C2),prod(C2,C2))", 4, 67),
        ("prod(prod(C2,C2),prod(C2,prod(C2,C2)))", 5, 374),
    ],
)
def test_elementary_abelian_lattice_counts(spec, n, total):
    # every subgroup of C2^n is normal, and [n choose k]_2 of them have order 2^k
    g = build_group(parse_spec(spec))
    orders = [m.order for m in engine.normal_subgroups(g)]
    assert len(orders) == total
    assert [orders.count(2**k) for k in range(n + 1)] == [
        _gaussian_binomial(n, k, 2) for k in range(n + 1)
    ]


@pytest.mark.parametrize("spec", FIXED_SPECS)
def test_powers_match_repeated_products(spec):
    _check_powers(build_group(parse_spec(spec)))


@settings(max_examples=30, deadline=None)
@given(perm_generators(max_degree=6))
def test_class_algebra_matches_oracle_on_random_permutation_groups(gens):
    g = engine.enumerate_group([Permutation(x) for x in gens])
    _check_normal_closures(g)
    if len(g.classes) <= 10:
        _check_lattice(g)
    _check_powers(g)


def _check_derived_subgroup(g):
    """The derived subgroup is the subgroup the brute-force commutators
    generate."""
    elements = [g.element(i).images for i in range(g.order)]
    want = oracles.group_closure(list(oracles.commutator_set(elements)), oracles.compose)
    got = engine.commutator_subgroup(g).members
    assert {elements[int(x)] for x in got} == want


@settings(max_examples=30, deadline=None)
@given(perm_generators(max_degree=6))
def test_commutators_match_bruteforce_on_random_permutation_groups(gens):
    _check_derived_subgroup(engine.enumerate_group([Permutation(x) for x in gens]))


@pytest.mark.parametrize("spec", ["C60", "D50"])
def test_commutators_match_bruteforce_on_thin_groups(spec):
    """Many classes and a deep tree, 59 layers on C60 and 26 on D50: the
    derived subgroup, the rows x * G of 40 seeded x, and every class's
    power map, read off its row, against the oracle products."""
    g = build_group(parse_spec(spec))
    _check_derived_subgroup(g)
    elements = [g.element(i).images for i in range(g.order)]
    index = {x: i for i, x in enumerate(elements)}
    xs = np.random.default_rng(3).integers(g.order, size=40)
    for x, row in zip(xs.tolist(), np.concatenate(list(g.row_blocks(xs)))):
        assert row.tolist() == [index[oracles.compose(elements[x], y)] for y in elements]
    for c in g.classes:
        x = y = elements[c.rep]
        want = [c.index]
        while y != elements[0]:
            y = oracles.compose(y, x)
            want.append(int(g.class_of[index[y]]))
        assert g.power_classes(c.index) == tuple(want)


# -- classes, center and quotients against the oracles -------------------------


def _elements(g):
    """Every element of g in index order, in the oracles' plain form; a
    coset is the frozenset of its members' forms."""
    if g.kind == "quot":
        parent = _elements(g.parent)
        return [frozenset(parent[int(x)] for x in g.element(i)) for i in range(g.order)]
    return [_carrier(g.element(i)) for i in range(g.order)]


def _oracle_inverse(mul, identity, x):
    y = x
    while mul(y, x) != identity:
        y = mul(y, x)
    return y


def _check_classes_and_center(g):
    """Classes are the oracle's conjugation orbits, numbered by ascending
    (size, smallest member); the center is every element that commutes with
    all generators."""
    mul = _oracle_mul(g)
    elements = _elements(g)
    identity = next(x for x in elements if mul(x, x) == x)
    gens = [elements[h] for h in g.gens]
    inverses = {h: _oracle_inverse(mul, identity, h) for h in gens}
    want = oracles.conjugacy_partition(elements, gens, mul, inverses.__getitem__)
    got = [frozenset(elements[int(x)] for x in c.members) for c in g.classes]
    assert len(got) == len(want) and set(got) == set(want)

    index = {x: i for i, x in enumerate(elements)}
    numbering = sorted((len(c), min(index[x] for x in c)) for c in want)
    assert [(c.size, c.rep) for c in g.classes] == numbering
    for k, c in enumerate(g.classes):
        assert c.index == k
        assert c.members.tolist() == sorted(c.members.tolist())
        assert (g.class_of[c.members] == k).all()

    central = [i for i, x in enumerate(elements) if all(mul(x, h) == mul(h, x) for h in gens)]
    assert engine.center(g).members.tolist() == central


def _check_quotients(g):
    """G/N for every normal N: x and y share a coset iff x^-1 y is in N,
    cosets are numbered by their smallest member, and inverses, generators
    and products agree with the oracle."""
    mul = _oracle_mul(g)
    elements = _elements(g)
    index = {x: i for i, x in enumerate(elements)}
    normals = engine.normal_subgroups(g)
    assert normals[0].order == 1 and normals[-1].order == g.order
    rng = np.random.default_rng(3)
    for n in normals:
        q = engine.quotient(g, n)
        members = [elements[int(x)] for x in n.members]
        coset = [-1] * g.order
        reps = []
        for i, x in enumerate(elements):
            if coset[i] < 0:
                for m in members:
                    coset[index[mul(x, m)]] = len(reps)
                reps.append(i)
        assert q.order == len(reps)
        assert q.proj.tolist() == coset

        def coset_of_product(a, b):
            return coset[index[mul(elements[reps[a]], elements[reps[b]])]]

        for c in range(q.order):
            assert coset_of_product(c, int(q.inv[c])) == 0
        want_gens = list(dict.fromkeys(coset[h] for h in g.gens if coset[h] != 0))
        assert q.gens == (want_gens or [0])
        if q.order**2 <= 4096:
            a, b = np.divmod(np.arange(q.order**2), q.order)
        else:
            a, b = rng.integers(0, q.order, size=(2, 500))
        got = _products(q, a, b).tolist()
        assert got == [coset_of_product(int(x), int(y)) for x, y in zip(a, b)]


# in prod(S3,S3) classes of equal size are told apart only by their
# smallest member; PSL2:7 is a quotient group
QUOTIENT_SPECS = FIXED_SPECS + ["prod(S3,S3)", "PSL2:7"]


@pytest.mark.parametrize("spec", QUOTIENT_SPECS)
def test_classes_center_and_quotients_match_oracle(spec):
    g = build_group(parse_spec(spec))
    _check_classes_and_center(g)
    _check_quotients(g)


@settings(max_examples=40, deadline=None)
@given(perm_generators())
def test_classes_center_and_quotients_match_oracle_on_random_permutation_groups(gens):
    g = engine.enumerate_group([Permutation(x) for x in gens])
    _check_classes_and_center(g)
    _check_quotients(g)


@settings(max_examples=30, deadline=None)
@given(matrix_generators())
def test_classes_center_and_quotients_match_oracle_on_random_matrix_groups(drawn):
    p, n, gens = drawn
    field = PrimeField(p)
    g = engine.enumerate_group([FFMatrix(field, np.reshape(x, (n, n))) for x in gens])
    _check_classes_and_center(g)
    _check_quotients(g)


# -- the rows x * G on every carrier ------------------------------------------


def _oracle_index_mul(g):
    """(i, j) -> index of element(i) * element(j) by the oracle products; a
    quotient projects the product of its coset representatives, the smallest
    member of each coset."""
    if g.kind == "quot":
        parent = _oracle_index_mul(g.parent)
        reps = np.unique(g.proj, return_index=True)[1].tolist()
        return lambda i, j: int(g.proj[parent(reps[i], reps[j])])
    mul = _oracle_mul(g)
    elements = _elements(g)
    index = {x: k for k, x in enumerate(elements)}
    return lambda i, j: index[mul(elements[i], elements[j])]


def _products(g, xs, ys):
    """element(x) * element(y) for each pair, read off the rows x * G."""
    rows = np.concatenate(list(g.row_blocks(xs)))
    return rows[np.arange(len(rows)), ys]


def _check_products(g, rng):
    """The rows x * G of sampled x, walked one at a time and together, agree
    with each other everywhere and with the oracle at sampled y and at the
    identity."""
    mul = _oracle_index_mul(g)
    xs = rng.integers(0, g.order, size=3)
    ys = [0, *rng.integers(0, g.order, size=12).tolist()]
    rows = np.concatenate(list(g.row_blocks(xs)))
    assert rows.shape == (3, g.order)
    for x, row in zip(xs.tolist(), rows):
        assert g._row_products(x).tolist() == row.tolist()
        assert row[ys].tolist() == [mul(x, y) for y in ys]


@settings(max_examples=30, deadline=None)
@given(
    perm_generators(max_degree=5),
    perm_generators(max_degree=4),
    matrix_generators(),
    st.integers(0, 2**32 - 1),
)
@example([()], [()], (2, 1, [(1,)]), 0)  # width-0 permutation rows
def test_products_match_oracle_on_every_carrier(gens_a, gens_b, drawn, seed):
    rng = np.random.default_rng(seed)
    p, n, mat_gens = drawn
    field = PrimeField(p)
    perm = engine.enumerate_group([Permutation(x) for x in gens_a])
    mat = engine.enumerate_group([FFMatrix(field, np.reshape(x, (n, n))) for x in mat_gens])
    prod = engine.direct_product(perm, engine.enumerate_group([Permutation(x) for x in gens_b]))
    groups = [prod, perm, mat]
    for g in list(groups):
        seed_class = int(rng.integers(len(g.classes)))
        normal = engine.NormalSubgroup(g, g.normal_closure_bits([seed_class]))
        groups.insert(0, engine.quotient(g, normal))
    for g in groups:
        _check_products(g, rng)


# -- class structure rows against brute-force structure constants -------------


def _rows_in_blocks(g, rows_per_block):
    """Every structure row of a copy of g that keeps no rows yet, read by
    one class_structure_rows call with _ROW_BLOCK set so that each block
    walks rows_per_block rows; the blocks' sizes are checked."""
    fresh = copy.copy(g)
    fresh._structure_rows, fresh._row_bits = {}, {}
    sizes = []
    row_products = fresh._row_products

    def counted(xs):
        sizes.append(np.size(xs))
        return row_products(xs)

    fresh._row_products = counted
    r = len(g.classes)
    with mock.patch.object(engine, "_ROW_BLOCK", rows_per_block * g.order):
        rows = fresh.class_structure_rows(range(r))
    full, rest = divmod(r, rows_per_block)
    assert sizes == [rows_per_block] * full + [rest] * (rest > 0)
    return rows


def _check_structure_rows(g, rng):
    """Every structure row, pair bitmask and class coefficient matrix
    against the brute-force constants.  The oracle takes each class's
    largest member as its representative where g takes the smallest, so
    the rows' independence of that choice is checked too.  The rows are
    read one at a time and all at once, in blocks of one row, of three
    rows and of every row."""
    r = len(g.classes)
    classes = [c.members.tolist()[::-1] for c in g.classes]
    n, a = oracles.class_structure_constants(
        list(range(g.order)), _oracle_index_mul(g), classes
    )
    # the identity class's row sends each class to itself
    assert n[0].tolist() == np.diag([c.size for c in g.classes]).tolist()
    supports = [
        [sum(1 << int(k) for k in np.flatnonzero(n[j, i])) for i in range(r)] for j in range(r)
    ]
    batched = [_rows_in_blocks(g, rows_per_block) for rows_per_block in (1, 3, r)]
    for j in range(r):
        codes, counts = g.class_structure_rows([j])[0]
        assert (np.diff(codes) > 0).all() and (counts > 0).all()
        assert len(codes) <= min(g.order, r * r)
        row = np.zeros(r * r, dtype=np.int64)
        row[codes] = counts
        assert row.reshape(r, r).tolist() == n[j].tolist()
        for rows in batched:
            assert rows[j][0].tolist() == codes.tolist()
            assert rows[j][1].tolist() == counts.tolist()
        for i in range(r):
            assert g.class_pair_product_bits(i, j) == supports[j][i]
            assert g.class_pair_product_bits(j, i) == supports[j][i]
    for i in range(r):
        assert chars._class_coefficients(g, i).tolist() == a[i].tolist()
    # set products read the rows of either side
    for _ in range(5):
        bits_a, bits_b = (
            sum(1 << int(i) for i in np.flatnonzero(m)) for m in rng.integers(0, 2, size=(2, r))
        )
        want = 0
        for i in range(r):
            for j in range(r):
                if bits_a >> i & 1 and bits_b >> j & 1:
                    want |= supports[j][i]
        assert g.class_set_product_bits(bits_a, bits_b) == want
        assert g.class_set_product_bits(bits_b, bits_a) == want


def test_structure_rows_where_r_squared_exceeds_the_order():
    # D12: 9 classes, so a row's r**2 = 81 counts outnumber its 24 products,
    # but not 4 |G| = 96, so the rows are still counted by bincount
    g = build_group(parse_spec("D12"))
    assert g.order < len(g.classes) ** 2 <= 4 * g.order
    _check_structure_rows(g, np.random.default_rng(12))


def test_structure_rows_counted_by_sorting():
    # C60: r = |G| = 60, and r**2 = 3,600 > 4 |G|, so each row's codes are
    # sorted and counted by runs
    g = build_group(parse_spec("C60"))
    assert len(g.classes) == g.order and len(g.classes) ** 2 > 4 * g.order
    _check_structure_rows(g, np.random.default_rng(60))


def _every_carrier(gens_a, gens_b, gens_c, drawn, rng):
    """A perm group, a matrix group, a direct product of perm groups, and a
    quotient of the first and of the third by a random single-class normal
    closure."""
    p, n, mat_gens = drawn
    field = PrimeField(p)
    perm = engine.enumerate_group([Permutation(x) for x in gens_a])
    mat = engine.enumerate_group([FFMatrix(field, np.reshape(x, (n, n))) for x in mat_gens])
    prod = engine.direct_product(
        engine.enumerate_group([Permutation(x) for x in gens_b]),
        engine.enumerate_group([Permutation(x) for x in gens_c]),
    )
    groups = [perm, mat, prod]
    for g in (perm, prod):
        seed_class = int(rng.integers(len(g.classes)))
        normal = engine.NormalSubgroup(g, g.normal_closure_bits([seed_class]))
        groups.append(engine.quotient(g, normal))
    return groups


# GL_3(3) left out: the oracles take about 10 s on its 11,232 elements
EVERY_CARRIER = (
    perm_generators(max_degree=6),
    perm_generators(max_degree=4),
    perm_generators(max_degree=3),
    matrix_generators(shapes=[s for s in MATRIX_SHAPES if s != (3, 3)]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=30, deadline=None)
@given(*EVERY_CARRIER)
@example([()], [()], [()], (2, 1, [(1,)]), 0)  # the degree-0 permutation group
def test_structure_rows_match_oracle_on_every_carrier(gens_a, gens_b, gens_c, drawn, seed):
    rng = np.random.default_rng(seed)
    for g in _every_carrier(gens_a, gens_b, gens_c, drawn, rng):
        _check_structure_rows(g, rng)


# -- the regular action and the whole-group products read from it -----------


def _check_regular_action(g, rng):
    """R_h(x) = x h for every generator h and element x; the tree reaches
    every element once, layer by layer, with new = parent * gens[via]; the
    conjugation maps are x -> h x h^-1; at sampled i, the rows read from
    row_blocks hold i * G in row i and G * i in column i; and the derived
    subgroup is the
    normal closure of the classes of a x a^-1 x^-1 for a over the class
    representatives and x over G, enough as the commutators are invariant
    under conjugation."""
    mul = _oracle_index_mul(g)
    every = range(g.order)

    def inverse(x):
        y = x
        while mul(y, x) != 0:
            y = mul(y, x)
        return y

    inverses = [inverse(x) for x in every]
    assert g._right.shape == (len(g.gens), g.order)
    for t, h in enumerate(g.gens):
        assert g._right[t].tolist() == [mul(x, h) for x in every]
        assert g._conjugation_map(t).tolist() == [mul(mul(h, x), inverses[h]) for x in every]
    # the inverses above walked the tree, so a group that was not
    # enumerated has found its steps
    layers = _tree_layers(g._steps, g.order)
    depth = {0: 0}
    for layer, (new, parent, via) in enumerate(layers, 1):
        assert [depth[x] for x in parent.tolist()] == [layer - 1] * len(new)
        assert [mul(x, g.gens[t]) for x, t in zip(parent.tolist(), via.tolist())] == new.tolist()
        depth.update(dict.fromkeys(new.tolist(), layer))
    assert sorted(depth) == list(every)
    assert len(depth) == sum(len(new) for new, _, _ in layers) + 1

    sample = rng.choice(g.order, size=min(g.order, 4), replace=False).tolist()
    table = _product_table(g)
    for i in sample:
        assert table[i].tolist() == [mul(i, y) for y in every]
        assert table[:, i].tolist() == [mul(x, i) for x in every]

    met = set()
    for c in g.classes:
        a = c.rep
        for x in every:
            met.add(int(g.class_of[mul(mul(a, x), mul(inverses[a], inverses[x]))]))
    assert engine.commutator_subgroup(g).class_bits == g.normal_closure_bits(met)


@settings(max_examples=30, deadline=None)
@given(*EVERY_CARRIER)
@example([()], [()], [()], (2, 1, [(1,)]), 0)  # the degree-0 permutation group
def test_regular_action_matches_oracle_on_every_carrier(gens_a, gens_b, gens_c, drawn, seed):
    rng = np.random.default_rng(seed)
    for g in _every_carrier(gens_a, gens_b, gens_c, drawn, rng):
        _check_regular_action(g, rng)


def test_regular_action_with_wide_keys():
    # rows keyed by their bytes: degrees 16 and 17
    rng = np.random.default_rng(4)
    groups = [
        engine.enumerate_group([Permutation(tuple((i + 1) % 16 for i in range(16)))]),
        engine.enumerate_group([
            Permutation(tuple((i + 1) % 17 for i in range(17))),
            Permutation(tuple((17 - i) % 17 for i in range(17))),
        ]),
    ]
    for g in groups:
        assert g._pow is None
        _check_structure_rows(g, rng)
        _check_regular_action(g, rng)


class _NoRows:
    """Stands in for a group's carrier rows and fails on any read."""

    def __getitem__(self, key):
        raise AssertionError("carrier rows read after enumeration")


def _forbid_rows(monkeypatch, g):
    """Swap the carrier rows of g, of its factors and of its parent for _NoRows."""
    if g._rows is not None:
        monkeypatch.setattr(g, "_rows", _NoRows())
    for h in [*(g.factors or ()), g.parent]:
        if h is not None:
            _forbid_rows(monkeypatch, h)


def test_whole_group_products_form_no_carrier_products(monkeypatch):
    # perm, mat, prod and quot carriers; after the build every product is
    # a walk over R, so nothing below reads a carrier row
    specs = ("A5", "SL2:5", "prod(A5,C2)", "S5", "PSL2:7")
    groups = [build_group(parse_spec(s)) for s in specs]
    for g in groups:
        _forbid_rows(monkeypatch, g)
    quotients = []
    for g in groups:
        g.class_structure_rows(range(len(g.classes)))
        assert g.exponent() > 1
        engine.commutator_subgroup(g)
        quotients.append(engine.quotient(g, engine.cosocle(g)))
        assert not _products(g, np.arange(g.order), g.inv).any()
        chars.gowers_mixing(g, [range(0, g.order, 3)], 0.1, 0.1)
    assert [q.order for q in quotients] == [60, 60, 120, 2, 168]
    for q in quotients:
        assert q.exponent() >= 1 and q.classes


@pytest.mark.parametrize("spec", ["S4", "SL2:5", "prod(S3,C2)", "prod(A5,C3)", "PSL2:7"])
def test_lattice_and_cosocle_leave_no_reference_cycle(spec):
    g = build_group(parse_spec(spec))
    lattice = [(n.order, n.class_bits) for n in engine.normal_subgroups(g)]
    # built again from the rows and class-set powers the group keeps
    assert [(n.order, n.class_bits) for n in engine.normal_subgroups(g)] == lattice
    # a quotient points at its parent and nothing points back; PSL2:7 is
    # itself the quotient of SL2:7 by its center
    q = engine.quotient(g, engine.cosocle(g))
    refs = [weakref.ref(x) for x in (g, q, g.parent) if x is not None]
    gc.disable()
    try:
        del g, q
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


# -- the class power map against repeated products ----------------------------


def _check_power_map(g):
    """From every x in every class c, the oracle's products x, x^2, ...
    until the identity: power(x, i) is x^i and power_classes(c)[i - 1] its
    class for i = 1..o, o is order_of(x), and the exponent is the lcm of
    the orders."""
    mul = _oracle_index_mul(g)
    orders = set()
    for c in g.classes:
        want = g.power_classes(c.index)
        for x in c.members.tolist():
            y, got = x, []
            while not got or got[-1] != 0:
                got.append(int(g.class_of[y]))
                assert g.power(x, len(got)) == y
                y = mul(y, x)
            assert tuple(got) == want
            assert g.order_of(x) == len(got)
            orders.add(len(got))
    assert g.exponent() == math.lcm(*orders)


@settings(max_examples=25, deadline=None)
@given(*EVERY_CARRIER)
@example([()], [()], [()], (2, 1, [(1,)]), 0)  # the degree-0 permutation group
def test_power_map_matches_repeated_products_on_every_carrier(
    gens_a, gens_b, gens_c, drawn, seed
):
    rng = np.random.default_rng(seed)
    for g in _every_carrier(gens_a, gens_b, gens_c, drawn, rng):
        _check_power_map(g)


# -- class-set powers against element-set powers ------------------------------


def _members(g, bits):
    return frozenset(int(i) for c in g.classes if bits >> c.index & 1 for i in c.members)


def _check_set_powers(g, bits, mul):
    """class_set_powers holds the oracle's distinct powers and repeat
    position, and class_set_power(S, k) is the oracle's S^k up to two
    periods past the repeat and at k = 10^9."""
    want, start = oracles.set_powers(_members(g, bits), mul)
    powers, got_start = g.class_set_powers(bits)
    assert [_members(g, p) for p in powers] == want
    assert got_start == start
    period = len(want) - start
    for k in [*range(1, len(want) + 2 * period + 1), 10**9]:
        assert _members(g, g.class_set_power(bits, k)) == oracles.set_power(want, start, k)
    return start, period


@settings(max_examples=30, deadline=None)
@given(*EVERY_CARRIER)
@example([()], [()], [()], (2, 1, [(1,)]), 0)  # the degree-0 permutation group
def test_class_set_powers_match_element_set_powers_on_every_carrier(
    gens_a, gens_b, gens_c, drawn, seed
):
    rng = np.random.default_rng(seed)
    for g in _every_carrier(gens_a, gens_b, gens_c, drawn, rng):
        mul = _oracle_index_mul(g)
        c = int(rng.integers(len(g.classes)))
        # with the identity the powers only grow: the repeat is the last one
        start, period = _check_set_powers(g, 1 | 1 << c, mul)
        assert (start, period) == (len(g.class_set_powers(1 | 1 << c)[0]) - 1, 1)
        _check_set_powers(g, 1 << c, mul)
        _check_set_powers(g, 1 << c | 1 << int(g.class_inverses[c]), mul)


@pytest.mark.parametrize(
    "spec, cycles, start, period",
    [("S5", "(1 2)", 2, 2), ("C7", "(1 2 3 4 5 6 7)", 0, 7), ("C1", "()", 0, 1)],
)
def test_periodic_class_set_powers(spec, cycles, start, period):
    g = build_group(parse_spec(spec))
    x = g.index_of(parse_cycles(cycles, degree=g.degree))
    bits = 1 << int(g.class_of[x])
    got = _check_set_powers(g, bits, _oracle_index_mul(g))
    assert got == (start, period)
    # the generator's powers are x^k itself, for k past the cycle too
    if spec == "C7":
        for k in (1, 7, 8, 10**9, 10**18 + 3):
            assert g.class_set_power(bits, k) == 1 << int(g.class_of[g.power(x, k)])
    with pytest.raises(ValueError):
        g.class_set_power(bits, 0)
