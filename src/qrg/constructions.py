"""Explicit witnesses: two-prime cycle structures and classical embeddings.

A permutation built from a p-cycles and b q-cycles (p, q odd primes,
max(a, b) >= 2) is even, fixed-point free, and non-exceptional, so its
class covers the alternating group in four steps.  The embedding half
turns permutations into matrices over prime fields, either plainly or
doubled so that the standard symplectic form is preserved.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .gf import FFMatrix, PrimeField, is_prime, symplectic_form
from .permutations import OddPermutation, Permutation, is_exceptional


class Infeasible(ValueError):
    """No admissible (a, b) decomposition exists for these parameters."""


def solve_two_prime(n: int, p: int, q: int):
    """Positive (a, b) with ap + bq = n, max(a, b) >= 2, and a minimal.

    Returns None when no admissible pair exists.  max(a, b) >= 2 forces a
    repeated cycle length, which is what rules out exceptional classes.
    """
    if not (is_prime(p) and p % 2 == 1):
        raise ValueError("p must be an odd prime")
    if not (is_prime(q) and q > p):
        raise ValueError("q must be a prime larger than p")
    a = 1
    while a * p + q <= n:
        rem = n - a * p
        if rem % q == 0:
            b = rem // q
            if max(a, b) >= 2:
                return a, b
        a += 1
    return None


def brenner_sigma(n: int, p: int, q: int) -> Permutation:
    """The witness of degree n made of a p-cycles followed by b q-cycles."""
    solved = solve_two_prime(n, p, q)
    if solved is None:
        raise Infeasible(f"no (a, b) with {p}a + {q}b = {n} and max(a, b) >= 2")
    a, b = solved
    cycles = []
    start = 0
    for length in [p] * a + [q] * b:
        cycles.append(tuple(range(start, start + length)))
        start += length
    sigma = Permutation.from_cycles(cycles, n)
    assert sigma.is_fixed_point_free() and not is_exceptional(sigma)
    return sigma


def perm_matrix(perm: Permutation, field: PrimeField) -> FFMatrix:
    """0/1 matrix sending basis vector e_j to e_{perm(j)}."""
    n = perm.degree
    m = np.zeros((n, n), dtype=np.int64)
    m[list(perm.images), np.arange(n)] = 1
    return FFMatrix(field, m)


def double_embed(perm: Permutation, pad: int, field: PrimeField) -> FFMatrix:
    """Block matrix P + P (+ I_pad) for an even permutation.

    With pad = 0 the result acts on hyperbolic coordinates and preserves
    the standard symplectic form exactly.
    """
    if pad not in (0, 1, 2):
        raise ValueError("pad must be 0, 1, or 2")
    if not perm.cycle_type().is_even:
        raise OddPermutation("double embedding is defined for even permutations")
    n = perm.degree
    block = perm_matrix(perm, field).entries
    m = np.eye(2 * n + pad, dtype=np.int64)
    m[:n, :n] = block
    m[n : 2 * n, n : 2 * n] = block
    return FFMatrix(field, m)


def symplectic_check(m: FFMatrix) -> bool:
    """Whether m preserves the standard form: m^T J m = J."""
    if m.n % 2 != 0:
        raise ValueError("the standard form needs even dimension")
    p, j = m.field.p, symplectic_form(m.field, m.n).entries
    return np.array_equal(m.entries.T @ j % p @ m.entries % p, j)


def jordan_of_sigma(n: int, p: int, q: int) -> Fraction:
    """Exact Jordan length of the witness's permutation matrix, from its cycles.

    The witness's cycles are consecutive ranges, so its matrix P is block
    diagonal: a copies of the p-cycle matrix C_p, then b copies of C_q.  For
    every x in the field, x*I - P is then block diagonal too, and rank is
    additive over a direct sum, so

        rank(x*I - P) = a * rank(x*I - C_p) + b * rank(x*I - C_q)

    exactly.  Each C_k is the companion matrix of t^k - 1, whose eigenspaces
    are lines, so rank(x*I - C_k) = k - [x^k = 1], also where t^k - 1 has
    repeated roots, as (t - 1)^k does at a field of characteristic k.  The
    length is the least of these ranks over x != 0, divided by n.  At x = 1
    every block has its one-dimensional kernel and no x gives a block more,
    so the least rank is n - (a + b) over every field: the cycle-count
    bound, which gives lengths above 1/2 for p >= 5, is attained, and no
    matrix is formed or eliminated.
    """
    solved = solve_two_prime(n, p, q)
    if solved is None:
        raise Infeasible(f"no (a, b) with {p}a + {q}b = {n} and max(a, b) >= 2")
    a, b = solved
    return Fraction(n - (a + b), n)
