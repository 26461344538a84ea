"""Two-prime witnesses, their matrices, and symplectic doubling."""

from fractions import Fraction

import pytest

import oracles
from qrg import constructions
from qrg.constructions import (
    Infeasible,
    brenner_sigma,
    double_embed,
    jordan_of_sigma,
    perm_matrix,
    solve_two_prime,
    symplectic_check,
)
from qrg.gf import FFMatrix, PrimeField, jordan_length
from qrg.permutations import OddPermutation, Permutation, cycle_string

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 7)])
def test_solve_two_prime_matches_bruteforce(p, q):
    for n in range(2, 81):
        got = solve_two_prime(n, p, q)
        assert got == oracles.solve_two_prime_bruteforce(n, p, q)
        if got is not None:
            a, b = got
            assert a * p + b * q == n and a >= 1 and b >= 1 and max(a, b) >= 2


def test_solve_two_prime_parameter_validation():
    with pytest.raises(ValueError):
        solve_two_prime(20, 2, 5)  # p even
    with pytest.raises(ValueError):
        solve_two_prime(20, 9, 11)  # p composite
    with pytest.raises(ValueError):
        solve_two_prime(20, 5, 3)  # q not larger
    with pytest.raises(ValueError):
        solve_two_prime(20, 3, 9)  # q composite


def test_sigma_17_5_7():
    sigma = brenner_sigma(17, 5, 7)
    assert solve_two_prime(17, 5, 7) == (2, 1)
    ct = sigma.cycle_type()
    assert ct.lengths == (7, 5, 5)
    assert ct.is_even
    assert sigma.is_fixed_point_free()
    # repeated length 5 rules out the all-odd-all-distinct exceptional shape
    assert len(set(ct.lengths)) < len(ct.lengths)


def test_sigma_31_5_7():
    sigma = brenner_sigma(31, 5, 7)
    assert solve_two_prime(31, 5, 7) == (2, 3)
    ct = sigma.cycle_type()
    assert ct.lengths == (7, 7, 7, 5, 5)
    assert ct.fixed_points == 0 and ct.is_even


def test_sigma_14_3_5_layout():
    sigma = brenner_sigma(14, 3, 5)
    assert cycle_string(sigma) == "(1 2 3)(4 5 6)(7 8 9)(10 11 12 13 14) degree=14"


@pytest.mark.parametrize("n", [7, 8])
def test_sigma_infeasible(n):
    with pytest.raises(Infeasible):
        brenner_sigma(n, 3, 5)


def test_perm_matrix_convention_and_determinant():
    p = Permutation((1, 2, 0))
    m = perm_matrix(p, F5)
    # column j carries the image of basis vector j
    assert m.entries[:, 0].tolist() == [0, 1, 0]
    assert m.entries.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    samples = [Permutation((1, 2, 0)), Permutation((0, 2, 1)), Permutation((3, 2, 1, 0))]
    for perm in samples:
        det = oracles.det_mod_p(perm_matrix(perm, F7).entries.tolist(), 7)
        want = 1 if oracles.parity_by_inversions(perm.images) == "even" else 7 - 1
        assert det == want


def test_perm_matrix_is_a_representation():
    a = Permutation((2, 0, 1, 3))
    b = Permutation((1, 0, 3, 2))
    ab = Permutation(oracles.compose(a.images, b.images))
    assert perm_matrix(a, F5) * perm_matrix(b, F5) == perm_matrix(ab, F5)


def test_double_embed_sizes_and_blocks():
    p = Permutation((1, 2, 0))  # 3-cycle, even
    for pad in (0, 1, 2):
        m = double_embed(p, pad, F5)
        assert m.n == 6 + pad
        block = perm_matrix(p, F5).entries
        assert (m.entries[:3, :3] == block).all()
        assert (m.entries[3:6, 3:6] == block).all()
        assert (m.entries[:3, 3:6] == 0).all()
        for j in range(6, 6 + pad):
            assert m.entries[j, j] == 1


def test_double_embed_rejects_odd():
    with pytest.raises(OddPermutation):
        double_embed(Permutation((1, 0, 2)), 0, F5)


def test_double_embed_is_symplectic_when_unpadded():
    sigma = brenner_sigma(14, 3, 5)
    assert symplectic_check(double_embed(sigma, 0, F5))
    assert symplectic_check(double_embed(sigma, 0, F2))
    # padding shifts the blocks off the form's Lagrangian split
    assert not symplectic_check(double_embed(sigma, 2, F5))


def test_symplectic_check_rejections():
    bad = FFMatrix(F5, [[2, 0], [0, 1]])  # scales the form by 2
    assert not symplectic_check(bad)
    with pytest.raises(ValueError):
        symplectic_check(FFMatrix(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


@pytest.mark.parametrize("field_p", [2, 3, 5, 11])
def test_jordan_of_sigma_17(field_p):
    assert jordan_of_sigma(17, 5, 7, PrimeField(field_p)) == Fraction(14, 17)


@pytest.mark.parametrize("field_p", [2, 3, 13])
def test_jordan_of_sigma_31(field_p):
    assert jordan_of_sigma(31, 5, 7, PrimeField(field_p)) == Fraction(26, 31)


def test_jordan_of_sigma_14():
    assert jordan_of_sigma(14, 3, 5, F7) == Fraction(5, 7)


def test_jordan_of_sigma_against_reference():
    m = perm_matrix(brenner_sigma(17, 5, 7), F5)
    want = oracles.jordan_length_reference(m.entries.tolist(), 5)
    assert jordan_of_sigma(17, 5, 7, F5) == want


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 7), (5, 11)])
@pytest.mark.parametrize("f", [2, 3, 5, 7, 11, 13, 29, 71])
def test_jordan_of_sigma_block_rule_matches_full_matrix(p, q, f):
    # 11, 29 and 71 hold nontrivial 5th or 7th roots of unity x, so
    # x*I - C_p or x*I - C_q has a kernel at some x != 1 as well
    field = PrimeField(f)
    for n in range(2, 61):
        if solve_two_prime(n, p, q) is None:
            continue
        m = perm_matrix(brenner_sigma(n, p, q), field)
        got = jordan_of_sigma(n, p, q, field)
        assert got == jordan_length(m)
        if n <= 20:
            assert got == oracles.jordan_length_reference(m.entries.tolist(), f)


def test_jordan_of_sigma_propagates_infeasible():
    with pytest.raises(Infeasible):
        jordan_of_sigma(8, 3, 5, F5)
