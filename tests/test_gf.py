"""Exact mod-p linear algebra and the Jordan length, against slow oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from qrg import gf
from qrg.errors import CapExceeded, ParseError
from qrg.gf import FFMatrix, PrimeField
from qrg.permutations import Permutation


F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)


def random_square(rng, n, p):
    return rng.integers(0, p, size=(n, n)).astype(np.int64)


def random_invertible(rng, n, field):
    while True:
        entries = random_square(rng, n, field.p)
        if gf.ff_rank(entries, field.p) == n:
            return FFMatrix(field, entries)


def test_prime_field_validation():
    assert PrimeField(2).p == 2
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(65537)  # above the 2^16 cap
    assert PrimeField(65521).p == 65521  # largest prime below it


def test_rank_examples():
    assert gf.ff_rank(FFMatrix.identity(F5, 3).entries, 5) == 3
    assert gf.ff_rank(FFMatrix(F5, np.zeros((3, 3), dtype=np.int64)).entries, 5) == 0
    # second row is twice the first
    assert gf.ff_rank(FFMatrix(F5, [[1, 2], [2, 4]]).entries, 5) == 1


def test_rank_det_against_reference():
    rng = np.random.default_rng(10)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(1, 7))
        a = random_square(rng, n, p)
        assert gf.ff_rank(a, p) == oracles.rank_mod_p(a.tolist(), p)
        # invertibility is tested as full rank
        assert (gf.ff_rank(a, p) == n) == (oracles.det_mod_p(a.tolist(), p) != 0)


def test_inverse_round_trip_and_singular():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = int(rng.choice([2, 3, 5, 7, 11]))
        m = random_invertible(rng, int(rng.integers(1, 6)), PrimeField(p))
        eye = FFMatrix.identity(m.field, m.n)
        assert m * m.inverse() == eye
        assert m.inverse() * m == eye
    assert gf.ff_inv(np.array([[1, 2], [2, 4]], dtype=np.int64), 5) is None
    with pytest.raises(gf.SingularMatrix):
        FFMatrix(F5, [[1, 2], [2, 4]]).inverse()


def test_nullspace_kills_and_completes_rank():
    rng = np.random.default_rng(12)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 7))
        a = random_square(rng, n, p)
        ns, _ = gf.ff_nullspaces(a[None], p)[0]
        assert ns.shape[1] == n - gf.ff_rank(a, p)
        if ns.shape[1]:
            assert not ((a @ ns) % p).any()
            assert gf.ff_rank(ns, p) == ns.shape[1]


@st.composite
def stacks(draw, primes=(2, 3, 5, 7, 65521), max_dim=6):
    """(p, stack): a (b, n, m) stack mod p, some matrices zero or of low rank."""
    p = draw(st.sampled_from(primes))
    b = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    a = draw(arrays(np.int64, (b, n, m), elements=st.integers(0, p - 1)))
    if draw(st.booleans()):
        a[draw(st.integers(0, b - 1))] = 0
    if n > 1 and draw(st.booleans()):
        # the last row becomes a multiple of the first in every matrix
        a[:, -1] = a[:, 0] * draw(st.integers(0, p - 1)) % p
    return p, a


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_rank_and_det_match_oracle_on_stacks(case):
    p, a = case
    want = [oracles.rank_mod_p(x.tolist(), p) for x in a]
    assert gf.ff_rank(a, p).tolist() == want
    assert gf.ff_rank(np.asfortranarray(a), p).tolist() == want
    k = min(a.shape[1:])
    for x, rank in zip(a, want):
        assert gf.ff_rank(x, p) == rank
        square = x[:k, :k]
        assert (gf.ff_rank(square, p) == k) == (oracles.det_mod_p(square.tolist(), p) != 0)


def check_echelon(a, p):
    rows, pivots = gf._eliminate(a, p)
    assert rows.shape == (len(a), a.shape[2], a.shape[2])
    for x, *got in zip(a, rows, pivots):
        assert tuple(y.tolist() for y in got) == oracles.echelon_mod_p(x.tolist(), p)


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_eliminate_matches_echelon_oracle_on_stacks(case):
    p, a = case
    check_echelon(a, p)


def test_eliminate_matches_echelon_oracle_on_explicit_cases():
    # pivots inverted by pow above the inverse table, up to the prime limit;
    # [A | I] shapes, which stop after n pivots; an all-zero matrix
    rng = np.random.default_rng(17)
    for p in (65537, 2**31 - 1):
        a = rng.integers(0, p, size=(3, 4, 4))
        a[1] = 0
        a[2, -1] = a[2, 0] * 5 % p
        check_echelon(a, p)
    for p in (2, 7, 65521, 65537):
        for n in (1, 3, 5):
            a = rng.integers(0, p, size=(3, n, n))
            a[0, -1] = 0
            eye = np.broadcast_to(np.eye(n, dtype=np.int64), a.shape)
            check_echelon(np.concatenate([a, eye], axis=2), p)
    check_echelon(np.zeros((1, 3, 4), dtype=np.int64), 5)


def check_nullspaces(a, p):
    # each basis is the one its matrix gets alone, kills it, has
    # m - rank columns and is the identity on its free rows; the products
    # are Python ints, as residues near 2**31 overflow int64 sums
    got = gf.ff_nullspaces(a, p)
    assert len(got) == len(a)
    m = a.shape[2]
    for x, (basis, free) in zip(a, got):
        assert (basis == gf.ff_nullspaces(x[None], p)[0][0]).all()
        assert basis.shape == (m, m - oracles.rank_mod_p(x.tolist(), p))
        assert not ((x.astype(object) @ basis.astype(object)) % p).any()
        assert (basis[free] == np.eye(len(free), dtype=np.int64)).all()


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_nullspaces_match_oracle_on_stacks(case):
    p, a = case
    check_nullspaces(a, p)


def test_nullspaces_above_the_inverse_table():
    # 2**31 - 1 is past MAX_PRIME, so the pivots are inverted by pow
    p = 2**31 - 1
    a = np.array(
        [
            [[p - 1, 2, 3], [2, p - 4, p - 6], [5, 0, 7]],  # rank 2
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[3, p - 2, 1], [p - 3, 2, p - 1], [6, p - 4, 2]],  # rank 1
        ],
        dtype=np.int64,
    )
    check_nullspaces(a, p)
    assert [basis.shape[1] for basis, _ in gf.ff_nullspaces(a, p)] == [1, 3, 2]


def test_nullspaces_of_a_mixed_stack_match_single_calls():
    # nullity 0, 1 and m in one call: each kernel is padded to the widest,
    # and the padding must not reach any basis
    p = 7
    invertible = [[1, 2, 0], [0, 1, 3], [2, 0, 1]]
    rank_two = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    zero = [[0, 0, 0]] * 3
    a = np.array([invertible, rank_two, zero, rank_two[::-1]], dtype=np.int64)
    got = gf.ff_nullspaces(a, p)
    assert [basis.shape[1] for basis, _ in got] == [0, 1, 3, 1]
    for x, (basis, free) in zip(a, got):
        [(alone, alone_free)] = gf.ff_nullspaces(x[None], p)
        assert basis.shape == alone.shape and (basis == alone).all()
        assert (free == alone_free).all()


def test_inverse_table():
    for p in (2, 3, 7, 65521):
        table = gf._inverse_table(p)
        assert table[0] == 0
        assert (np.arange(1, p) * table[1:] % p == 1).all()


def test_inverse_table_cache_is_bounded_by_bytes():
    # the six primes of the Jordan queries fit the 2 MB bound together, so
    # shuffled passes over them build each table once
    primes = [2, 3, 5, 7, 11, 13]
    rng = np.random.default_rng(5)
    gf._inverse_table.cache_clear()
    try:
        for _ in range(10):
            for p in rng.permutation(primes).tolist():
                gf._inverse_table(p)
        assert gf._inverse_table.cache_info()[:2] == (54, 6)
        # tables at p near 2**16 hold 512 KB each: four fit, and a fifth
        # evicts the least recently used
        big = [65449, 65479, 65497, 65519, 65521]
        for p in big:
            gf._inverse_table(p)
        hits, misses, kept = gf._inverse_table.cache_info()
        assert kept <= 1 << 21 and kept == 8 * sum(big[1:])
        gf._inverse_table(big[0])
        assert gf._inverse_table.cache_info()[1] == misses + 1
    finally:
        gf._inverse_table.cache_clear()


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_inverse_round_trips_on_stacks(case):
    p, a = case
    k = min(a.shape[1:])
    for x in a[:, :k, :k]:
        inv = gf.ff_inv(x, p)
        if oracles.det_mod_p(x.tolist(), p) == 0:
            assert inv is None
        else:
            assert (x @ inv % p == np.eye(k, dtype=np.int64)).all()
            assert (inv @ x % p == np.eye(k, dtype=np.int64)).all()


@settings(max_examples=100, deadline=None)
@given(stacks(primes=(2, 3, 5, 7)), st.data())
def test_stacked_jordan_lengths_match_reference(case, data):
    p, a = case
    k = min(a.shape[1:])
    square = a[:, :k, :k]
    invertible = [x for x in square if oracles.det_mod_p(x.tolist(), p)]
    if invertible:
        got = gf.jordan_lengths(np.array(invertible), p)
        want = [oracles.jordan_length_reference(x.tolist(), p) for x in invertible]
        assert got == want
        assert gf.jordan_numerators(np.array(invertible), p).tolist() == [k * x for x in want]
    stack = np.array(invertible + [np.zeros((k, k), dtype=np.int64)])
    stack = np.roll(stack, data.draw(st.integers(0, len(stack) - 1)), axis=0)
    with pytest.raises(gf.SingularMatrix, match="requires an invertible matrix"):
        gf.jordan_lengths(stack, p)


def test_jordan_lengths_in_bounded_calls(monkeypatch):
    # 20 entries per rank call is two shifted 3 x 3 matrices, so the calls
    # split the shifts of one matrix and mix those of neighbours
    monkeypatch.setattr(gf, "_JORDAN_ENTRIES", 20)
    rng = np.random.default_rng(15)
    for p in (2, 5, 7):
        mats = [random_invertible(rng, 3, PrimeField(p)).entries for _ in range(4)]
        want = [oracles.jordan_length_reference(m.tolist(), p) for m in mats]
        assert gf.jordan_lengths(np.array(mats), p) == want


def test_shift_ranks_match_reference(monkeypatch):
    # singular matrices too, whose a = 0 column is the rank of -g; calls of
    # 20 entries split the shifts of one matrix as in the test above
    monkeypatch.setattr(gf, "_JORDAN_ENTRIES", 20)
    rng = np.random.default_rng(16)
    for p in (2, 5, 7):
        mats = [random_square(rng, 3, p) for _ in range(4)] + [np.zeros((3, 3), dtype=np.int64)]
        want = [
            [oracles.rank_mod_p(((a * np.eye(3, dtype=np.int64) - m) % p).tolist(), p)
             for a in range(p)]
            for m in mats
        ]
        assert gf.shift_ranks(np.array(mats), p).tolist() == want


def test_elimination_prime_limit():
    # p**2 must stay below 2**62: 2**31 - 1 is prime and allowed, 2**31 is refused.
    p = 2**31 - 1
    a = np.array([[p - 1, p - 2, 3], [p - 3, 5, p - 1], [2, p - 1, p - 4]], dtype=np.int64)
    assert gf.ff_rank(a, p) == oracles.rank_mod_p(a.tolist(), p) == 3
    # the pivots are past the inverse table, so they are inverted by pow;
    # the products are Python ints, as residues near 2**31 overflow int64 sums
    inv = gf.ff_inv(a, p)
    assert ((a.astype(object) @ inv.astype(object)) % p == np.eye(3, dtype=np.int64)).all()
    with pytest.raises(ValueError, match="2 <= p < 2\\*\\*31"):
        gf.ff_rank(a, 2**31)


def test_matrix_algebra_mod_p():
    a = FFMatrix(F5, [[1, 2], [3, 4]])
    b = FFMatrix(F5, [[0, 1], [1, 0]])
    assert (a * b).entries.tolist() == [[2, 1], [4, 3]]
    with pytest.raises(gf.FieldMismatch):
        a * FFMatrix(F7, [[1, 0], [0, 1]])


def test_jordan_length_examples():
    assert gf.jordan_length(FFMatrix.identity(F5, 4)) == 0
    assert gf.jordan_length(FFMatrix(F5, np.diag([2, 1, 1]))) == Fraction(1, 3)
    six_cycle = Permutation.from_cycles([(0, 1, 2, 3, 4, 5)], 6)
    m = np.zeros((6, 6), dtype=np.int64)
    for j, i in enumerate(six_cycle.images):
        m[i, j] = 1
    assert gf.jordan_length(FFMatrix(F7, m)) == Fraction(5, 6)


def test_jordan_length_against_reference():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = int(rng.choice([2, 3, 5, 7]))
        m = random_invertible(rng, int(rng.integers(1, 6)), PrimeField(p))
        assert gf.jordan_length(m) == oracles.jordan_length_reference(
            m.entries.tolist(), p
        )


def test_jordan_length_rejects_singular():
    with pytest.raises(gf.SingularMatrix):
        gf.jordan_length(FFMatrix(F5, [[0, 0], [0, 1]]))


def test_direct_sum():
    assert gf.direct_sum(
        FFMatrix.identity(F5, 2), FFMatrix.identity(F5, 3)
    ) == FFMatrix.identity(F5, 5)
    d = gf.direct_sum(FFMatrix(F5, [[2]]), FFMatrix(F5, [[3]]))
    assert d.entries.tolist() == [[2, 0], [0, 3]]
    with pytest.raises(gf.FieldMismatch):
        gf.direct_sum(FFMatrix.identity(F5, 2), FFMatrix.identity(F7, 2))


def test_direct_sum_jordan_bound_is_tight_for_equal_blocks():
    # 3-cycle permutation matrix over GF(7): x^3 - 1 splits with simple
    # roots, so P and P + P have the same length 2/3
    pm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    p_mat = FFMatrix(F7, pm)
    both = gf.direct_sum(p_mat, p_mat)
    assert gf.jordan_length(p_mat) == Fraction(2, 3)
    assert gf.jordan_length(both) == Fraction(2, 3)
    assert gf.jordan_length(both) >= gf.jordan_length(p_mat)


def test_classical_generators_orders():
    from qrg.engine import enumerate_group

    assert enumerate_group(gf.classical_generators("SL", 2, F5)).order == 120
    assert enumerate_group(gf.classical_generators("SL", 2, F2)).order == 6
    assert gf.sl_order(2, 5) == 120
    assert gf.sl_order(3, 2) == 168
    assert gf.sp_order(2, 3) == 24
    assert gf.sp_order(4, 2) == 720


def test_sp2_equals_sl2():
    from qrg.engine import enumerate_group

    f3 = PrimeField(3)
    sp = enumerate_group(gf.classical_generators("Sp", 2, f3))
    sl = enumerate_group(gf.classical_generators("SL", 2, f3))
    assert sp.order == sl.order == 24
    sp_set = {sp.element(i) for i in range(sp.order)}
    sl_set = {sl.element(i) for i in range(sl.order)}
    assert sp_set == sl_set


def test_sp_generators_preserve_form():
    f3 = PrimeField(3)
    j = gf.symplectic_form(f3, 4)
    for m in gf.classical_generators("Sp", 4, f3):
        assert m.transpose() * j * m == j


def test_classical_generators_errors():
    with pytest.raises(gf.UnsupportedFamily):
        gf.classical_generators("SU", 2, F5)
    with pytest.raises(CapExceeded):
        gf.classical_generators("SL", 4, PrimeField(11))


def test_symplectic_form_shape():
    j = gf.symplectic_form(F5, 6)
    assert j.n == 6
    assert gf.ff_rank(j.entries, 5) == 6
    with pytest.raises(ValueError):
        gf.symplectic_form(F5, 3)


def test_matrix_literal_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = int(rng.choice([2, 5, 13]))
        m = FFMatrix(PrimeField(p), random_square(rng, int(rng.integers(1, 5)), p))
        assert gf.parse_matrix(gf.matrix_literal(m)) == m


def test_parse_matrix_errors():
    for bad in [
        "mat:p=4:[[1]]",  # not prime
        "mat:p=5:[[1,2],[3]]",  # ragged
        "mat:p=5:[1,2]",  # not nested
        "p=5:[[1]]",  # missing prefix
        "mat:p=5:[[1.5,0],[0,1]]",  # not an integer
        "mat:p=5:[[1.0,0],[0,1]]",
        "mat:p=5:[[true,0],[0,1]]",  # a bool is not an integer
        'mat:p=5:[["1",0],[0,1]]',
        "mat:p=5:[[null,0],[0,1]]",
        "mat:p=5:[[[1],0],[0,1]]",
    ]:
        with pytest.raises(ParseError):
            gf.parse_matrix(bad)


def test_parse_matrix_reduces_integers_of_any_size():
    for entry, want in [(7, 2), (-3, 2), (10**23, 0), (10**23 + 1, 1)]:
        m = gf.parse_matrix(f"mat:p=5:[[{entry},0],[0,1]]")
        assert m == FFMatrix(PrimeField(5), [[want, 0], [0, 1]])


def test_format_rational_always_shows_denominator():
    assert gf.format_rational(Fraction(5, 7)) == "5/7"
    assert gf.format_rational(Fraction(0)) == "0/1"
    assert gf.format_rational(Fraction(4, 2)) == "2/1"
