"""Character degrees, quasirandom degree, and the Gowers mixing statistic.

Degrees come from the class-algebra eigenvalue method run over a prime
field F_ell with ell = 1 (mod exp(G)): the class-sum multiplication
matrices commute, their simultaneous eigenvectors are the primitive
central idempotents, and the degrees fall out of the orthogonality
normalization.  The algebra is split by class 1, then by one generic
element sum c_i M_i, which separates almost all characters at once (Dixon,
High speed computation of group characters, Numer. Math. 1967), unless that
split fails, then class by class.  Everything is exact integer arithmetic;
no floating point appears anywhere in this module.  The eigenspaces of each
action come from the one elimination kernel in gf: one ff_nullspaces call
reduces the shifts by every eigenvalue at once.  The class-sum
multiplication matrices are read from the engine's store of structure rows,
the one place class products are formed: g.exponent(), which picks the
primes, walks every row in one call, so each row is walked once per group,
and the generic element, the class-by-class pass and every retried prime
read the same rows again without a walk, as in Dixon's method and
Schneider's (Dixon's character table algorithm revisited, J. Symbolic
Comput. 1990), which form the class matrices once and reuse them for every
split.
D(G) needs no split at all when G is not perfect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .engine import GroupTable, TrivialGroup, is_perfect, normal_subgroups
from .errors import CapExceeded
from .gf import ff_nullspaces, is_prime

DEGREE_ORDER_CAP = 20_000
_PRIME_ATTEMPTS = 8


class NoSuitablePrime(RuntimeError):
    """No working modulus found among the first candidate primes."""


@dataclass(frozen=True)
class CharacterDegrees:
    """Multiset of irreducible character degrees of a finite group."""

    degrees: tuple[int, ...]
    group_order: int

    def __post_init__(self):
        if sum(d * d for d in self.degrees) != self.group_order:
            raise ValueError("sum of squared degrees must equal the group order")
        if not self.degrees or self.degrees.count(1) < 1:
            raise ValueError("the trivial character must be present")


@dataclass(frozen=True)
class MixingReport:
    alpha: Fraction
    eps1: Fraction
    eps2: Fraction
    good_x_count: int
    threshold_pairs: int
    passes: bool


def _suitable_primes(exponent: int, order: int, num_classes: int):
    """Yield primes ell = 1 mod exp(G) with ell^2 > 4|G| and ell > r."""
    t = 1
    while True:
        ell = exponent * t + 1
        if is_prime(ell) and ell * ell > 4 * order and ell > num_classes:
            yield ell
        t += 1


def _class_coefficients(g: GroupTable, i: int) -> np.ndarray:
    """a[j, k] = #{(x, y) in C_i x C_j : x y = rep_k}, as an r x r array.

    Read from the structure row of class i in the group's row store:
    counting the triples x y = z with x in C_i, y in C_j, z in C_k once per
    x and once per z gives a[j, k] = |C_i| N[i, j, k] / |C_k|.  The store
    keeps every row formed, at most sum_j min(|G|, r**2) entries of 16
    bytes, and no class coefficient matrix is kept.
    """
    r = len(g.classes)
    sizes = g.class_sizes
    codes, counts = g.class_structure_rows([i])[0]
    a = np.zeros(r * r, dtype=np.int64)
    a[codes] = counts
    return a.reshape(r, r) * sizes[i] // sizes


def _check_residue_sums(terms: int, ell: int):
    """Raise unless a sum of `terms` products of two residues mod ell fits int64."""
    if terms * (ell - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"sums of {terms} products of residues mod {ell} overflow int64")


def _charpoly_mod(a: np.ndarray, ell: int) -> list[int]:
    """Characteristic polynomial coefficients mod ell, leading first.

    Newton's identities over F_ell; valid because ell exceeds the
    matrix dimension, so the divisions by k are invertible.
    """
    m = len(a)
    _check_residue_sums(m, ell)
    power = np.eye(m, dtype=np.int64)
    psums = []
    for _ in range(m):
        power = (power @ a) % ell
        psums.append(int(np.trace(power)) % ell)
    e = [1]
    for k in range(1, m + 1):
        acc = 0
        for s in range(1, k + 1):
            term = e[k - s] * psums[s - 1]
            acc = (acc - term) if s % 2 == 0 else (acc + term)
        e.append(acc * pow(k, -1, ell) % ell)
    return [(-1) ** k * e[k] % ell for k in range(m + 1)]


def _poly_roots_mod(coeffs: Sequence[int], ell: int) -> list[int]:
    """The roots in F_ell, ascending, of the polynomial with coefficients
    coeffs mod ell, leading first: Horner's rule at every point of F_ell
    at once, in place, reducing only when the next step could pass 2**63."""
    xs = np.arange(ell, dtype=np.int64)
    acc = np.full(ell, coeffs[0] % ell, dtype=np.int64)
    # acc <= top; a step with x and c below ell leaves acc <= (top + 1)(ell - 1)
    top = ell - 1
    for c in coeffs[1:]:
        if (top + 1) * (ell - 1) >= 1 << 63:
            acc %= ell
            top = ell - 1
        acc *= xs
        acc += c % ell
        top = (top + 1) * (ell - 1)
    return [int(x) for x in xs[acc % ell == 0]]


class _SplitFailure(Exception):
    """The class matrices failed to separate characters at this prime."""


def _generic_coefficients(r: int, ell: int) -> np.ndarray:
    """Fixed coefficients mod ell of classes 1 .. r - 1 in the generic element."""
    return np.random.default_rng(0).integers(1, ell, size=r - 1)


def _split_spaces(spaces, m: np.ndarray, ell: int):
    """Each space, a basis b that is the identity on its rows piv, split
    into the eigenspaces of m on it, the action (m b)[piv]; None when m is
    not diagonalizable over F_ell on one of them."""
    out = []
    for b, piv in spaces:
        dim = b.shape[1]
        if dim == 1:
            out.append((b, piv))
            continue
        action = (m @ b)[piv] % ell
        roots = np.array(_poly_roots_mod(_charpoly_mod(action, ell), ell), dtype=np.int64)
        shifted = (action - roots[:, None, None] * np.eye(dim, dtype=np.int64)) % ell
        found = 0
        # kern is the identity on its free rows, so b @ kern is the
        # identity on rows piv[free].
        for kern, free in ff_nullspaces(shifted, ell):
            if len(free):
                out.append(((b @ kern) % ell, piv[free]))
                found += len(free)
        if found != dim:
            return None
    return out


def _degrees_at_prime(g: GroupTable, ell: int) -> list[int]:
    r = len(g.classes)
    order = g.order
    # The degree normalization sums |C_j| v_j v_j* over the classes, at most
    # |G| products of two residues; the class-matrix products sum r of them.
    _check_residue_sums(order, ell)

    # Subspaces of the class algebra, split until 1-dim: by class 1, then by
    # the generic element unless it fails, then class by class.
    spaces = [(np.eye(r, dtype=np.int64), np.arange(r))]
    for i in range(1, r):
        if all(b.shape[1] == 1 for b, _ in spaces):
            break
        spaces = _split_spaces(spaces, _class_coefficients(g, i).T % ell, ell)
        if spaces is None:
            raise _SplitFailure(f"defective action at class {i}")
        if i == 1 and any(b.shape[1] != 1 for b, _ in spaces):
            # r - 1 products of two residues, within the bound checked above
            generic = np.zeros((r, r), dtype=np.int64)
            for j, c in enumerate(_generic_coefficients(r, ell).tolist(), 1):
                generic += c * (_class_coefficients(g, j).T % ell)
            generic %= ell
            spaces = _split_spaces(spaces, generic, ell) or spaces
    if any(b.shape[1] != 1 for b, _ in spaces):
        raise _SplitFailure("class matrices exhausted before full split")

    # Eigenvector coordinates are proportional to chi(rep^-1); the degree
    # follows from row orthogonality: d^2 = v_0^2 |G| / sum_j |C_j| v_j v_{j*}.
    degrees = []
    bound = math.isqrt(order)
    for b, _ in spaces:
        v = b[:, 0] % ell
        if v[0] == 0:
            raise _SplitFailure("eigenvector vanishes at the identity class")
        norm = int(np.sum(g.class_sizes * v * v[g.class_inverses]) % ell)
        if norm == 0:
            raise _SplitFailure("orthogonality norm vanished")
        target = int(v[0]) ** 2 % ell * order * pow(norm, -1, ell) % ell
        for d in range(1, bound + 1):
            if d * d % ell == target:
                degrees.append(d)
                break
        else:
            raise _SplitFailure("no degree matches the normalization")
    if len(degrees) != r or sum(d * d for d in degrees) != order or min(degrees) != 1:
        raise _SplitFailure("degree multiset failed validation")
    return sorted(degrees)


def character_degrees(g: GroupTable, cap: int = DEGREE_ORDER_CAP) -> CharacterDegrees:
    """Exact multiset of irreducible character degrees of g.

    Runs the deterministic class-algebra method at the smallest usable
    prime and retries at the next few candidates before giving up.
    """
    if g.order > cap:
        raise CapExceeded(f"order {g.order} exceeds degree cap {cap}")
    r = len(g.classes)
    if r == g.order:
        return CharacterDegrees((1,) * r, g.order)
    failures = []
    gen = _suitable_primes(g.exponent(), g.order, r)
    for _ in range(_PRIME_ATTEMPTS):
        ell = next(gen)
        try:
            degs = _degrees_at_prime(g, ell)
        except _SplitFailure as exc:
            failures.append(f"ell={ell}: {exc}")
            continue
        return CharacterDegrees(tuple(degs), g.order)
    raise NoSuitablePrime("; ".join(failures))


def quasirandom_degree(g: GroupTable, cap: int = DEGREE_ORDER_CAP):
    """Minimal nontrivial irreducible degree D(G); math.inf for the trivial group.

    A group G other than G' has a nontrivial linear character, one of the
    abelian quotient G/G', so D(G) = 1 is answered without the split while
    |G| is within the cap.
    """
    if g.order == 1:
        return math.inf
    if g.order <= cap and not is_perfect(g):
        return 1
    return character_degrees(g, cap=cap).degrees[1]


def min_normal_index(g: GroupTable) -> int:
    """Minimal index of a proper normal subgroup; |G| when G is simple."""
    if g.order == 1:
        raise TrivialGroup("the trivial group has no proper normal subgroup")
    proper = [n for n in normal_subgroups(g) if n.order < g.order]
    return g.order // max(n.order for n in proper)


def _as_fraction(x) -> Fraction:
    # str() round-trip so that eps given as 0.1 means the decimal 1/10,
    # not the nearest binary double.
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def gowers_mixing(
    g: GroupTable, subsets: Iterable[Iterable[int]], eps1, eps2
) -> list[MixingReport]:
    """For each subset A, count x with |A and xA| >= (1-eps2) alpha^2 |G|,
    exactly; one report per subset, in order.

    passes is the strict comparison good_x_count > (1-eps1) alpha^2 |G|;
    both thresholds are exact rationals so boundary cases cannot be lost
    to floating point.  |A and xA| is the number of members of A among the
    entries of the row x * G at A, and every subset is counted in one pass
    over the rows, a block at a time (GroupTable.row_blocks).
    """
    e1 = _as_fraction(eps1)
    e2 = _as_fraction(eps2)
    trials = []
    for subset in subsets:
        a_idx = np.unique(np.asarray(list(subset), dtype=np.int64))
        if len(a_idx) == 0:
            raise ValueError("subset must be nonempty")
        if a_idx[0] < 0 or a_idx[-1] >= g.order:
            raise ValueError("subset contains out-of-range element indices")
        mask = np.zeros(g.order, dtype=bool)
        mask[a_idx] = True
        alpha = Fraction(len(a_idx), g.order)
        threshold_pairs = math.ceil((1 - e2) * alpha * alpha * g.order)
        trials.append((a_idx, mask, alpha, threshold_pairs))
    good = [0] * len(trials)
    for rows in g.row_blocks():
        for t, (a_idx, mask, _, threshold_pairs) in enumerate(trials):
            pairs = mask[rows[:, a_idx]].sum(axis=1)
            good[t] += int(np.count_nonzero(pairs >= threshold_pairs))
    return [
        MixingReport(
            alpha=alpha,
            eps1=e1,
            eps2=e2,
            good_x_count=n_good,
            threshold_pairs=threshold_pairs,
            passes=Fraction(n_good) > (1 - e1) * alpha * alpha * g.order,
        )
        for (_, _, alpha, threshold_pairs), n_good in zip(trials, good)
    ]
