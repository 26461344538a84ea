"""Hilbert-Schmidt geometry on the unitary groups U_D(C).

Floating-point verification layer: the length function ell(A) = ||A - I||,
its axioms, the fact that some power of any nontrivial unitary has length
above sqrt(2), and circle packing thresholds.  Algebraic identities are
held to 1e-9; accumulated product bounds to 1e-6.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Mapping

import numpy as np

from .covering import double_covering_feasible
from .engine import GroupTable

UNITARITY_TOL = 1e-9
AXIOM_TOL = 1e-9
PRODUCT_TOL = 1e-6
SQRT2 = math.sqrt(2.0)

# Chords of neighbouring m differ by about one part in m, so a chord is
# compared with eps at this many digits more than m has.
_CHORD_DIGITS = 40


class NotUnitary(ValueError):
    pass


class IdentityInput(ValueError):
    pass


class NotHomomorphism(ValueError):
    pass


class CoveringPreconditionFailed(ValueError):
    pass


class UnitaryPoint:
    """A point of U_D(C): a complex matrix with ||A*A - I|| <= 1e-9."""

    __slots__ = ("D", "entries")

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotUnitary("entries must form a square matrix")
        d = a.shape[0]
        defect = np.linalg.norm(a.conj().T @ a - np.eye(d))
        if defect > UNITARITY_TOL:
            raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL}")
        a.setflags(write=False)
        object.__setattr__(self, "D", d)
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryPoint is immutable")

    @classmethod
    def identity(cls, d: int) -> "UnitaryPoint":
        return cls(np.eye(d))

    def inverse(self) -> "UnitaryPoint":
        return UnitaryPoint(self.entries.conj().T)

    def __matmul__(self, other: "UnitaryPoint") -> "UnitaryPoint":
        return UnitaryPoint(self.entries @ other.entries)

    def power(self, k: int) -> "UnitaryPoint":
        return UnitaryPoint(np.linalg.matrix_power(self.entries, k))

    def __repr__(self):
        return f"UnitaryPoint(D={self.D})"


@dataclass(frozen=True)
class PackingBound:
    D: int
    eps: object
    m: int


@dataclass(frozen=True)
class AxiomReport:
    D: int
    samples: int
    seed: int
    violations: dict
    max_violation: float
    passed: bool


def haar_unitary(d: int, rng: np.random.Generator) -> UnitaryPoint:
    """Haar-distributed element of U_d(C).

    QR of a complex Ginibre matrix with the R diagonal phases folded back
    into Q, which fixes the non-uniqueness of plain QR.
    """
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return UnitaryPoint(q * (diag / np.abs(diag)))


def hs_length(a: UnitaryPoint) -> float:
    """ell(A) = ||A - I|| in the Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a.entries - np.eye(a.D)))


def hs_distance(a: UnitaryPoint, b: UnitaryPoint) -> float:
    if a.D != b.D:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(a.entries - b.entries))


def power_length_witness(a: UnitaryPoint, max_power: int = 10**6):
    """Smallest k <= max_power with hs_length(a^k) > sqrt(2), or None.

    Candidate powers come from the eigenangle form
    ell(A^k)^2 = sum_j |e^(i k theta_j) - 1|^2, scanned in ascending blocks
    of k; each candidate is confirmed on the actual matrix power so the
    reported length is the entrywise one.  The first block holds 64 powers
    and each next one twice as many, up to 2^15.  A Haar-random unitary
    mostly has its witness at k <= 2, and only one near the identity needs
    many powers (about pi/(2 theta) for the single angle theta), so the
    cost follows the witness found and not max_power.
    """
    if hs_length(a) <= UNITARITY_TOL:
        raise IdentityInput("witness search needs a nontrivial unitary")
    angles = np.angle(np.linalg.eigvals(a.entries))
    block = 64
    start = 1
    while start <= max_power:
        ks = np.arange(start, min(start + block, max_power + 1), dtype=np.float64)
        sq = 2 * a.D - 2 * np.cos(np.outer(ks, angles)).sum(axis=1)
        for k in ks[sq > 2.0 - AXIOM_TOL]:
            length = hs_length(a.power(int(k)))
            if length > SQRT2:
                return int(k), length
        start += block
        block = min(2 * block, 1 << 15)
    return None


def _series(term: Decimal, ratio) -> Decimal:
    """term * (1 + ratio(1) * (1 + ratio(2) * (...))) to the context's precision."""
    total, n = 0, 0
    while total + term != total:
        total += term
        n += 1
        term *= ratio(n)
    return total


@functools.cache
def _pi(prec: int) -> Decimal:
    """pi = 6 asin(1/2), summed as its Taylor series at prec digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        return _series(Decimal(3), lambda n: Decimal((2 * n - 1) ** 2) / (8 * n * (2 * n + 1)))


def _chord_below(m: int, eps: Fraction) -> bool:
    """Decide 2 sin(pi/m) < eps, m >= 2.  By Niven's theorem the chord is
    rational only at m = 2 (chord 2) and m = 6 (chord 1), the two exact
    ties; any other chord is compared in decimal, with pi from _pi and the
    sine summed as its Taylor series."""
    if eps == 2:
        return m != 2
    if eps == 1:
        return m > 6
    with localcontext() as ctx:
        ctx.prec = _CHORD_DIGITS + len(str(m))
        x = _pi(ctx.prec) / m
        half_chord = _series(x, lambda n: -x * x / (2 * n * (2 * n + 1)))
        return 2 * half_chord < Decimal(eps.numerator) / eps.denominator


def packing_threshold(d: int, eps) -> PackingBound:
    """Exact circle packing threshold for D = 1.

    Returns the least m such that any m points of U_1(C) contain a pair at
    chordal distance strictly below eps.  Pigeonhole on arcs gives the
    bound 2 sin(pi/m); m-1 equally spaced points are the extremal witness.
    """
    if d != 1:
        raise ValueError("exact threshold available only for D = 1")
    eps_f = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    if not 0 < eps_f <= 2:
        raise ValueError("eps must lie in (0, 2]")
    # the chord falls with m: double hi until it is below eps, then bisect
    lo, hi = 1, 2
    while not _chord_below(hi, eps_f):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _chord_below(mid, eps_f) else (mid, hi)
    return PackingBound(D=1, eps=eps_f, m=hi)


def length_axioms_check(samples: int, d: int, seed: int) -> AxiomReport:
    """Check the length-function axioms on Haar-random triples.

    Covered: symmetry under inversion, conjugation invariance, the
    triangle inequality, bi-invariance of the distance, and the trace
    identity ell(A)^2 = 2D - 2 Re Tr(A).
    """
    if d > 8:
        raise ValueError("axiom sampling capped at D <= 8")
    rng = np.random.default_rng(seed)
    worst = {
        "identity_length": hs_length(UnitaryPoint.identity(d)),
        "symmetry": 0.0,
        "conjugation": 0.0,
        "triangle": 0.0,
        "bi_invariance": 0.0,
        "trace_identity": 0.0,
    }
    for _ in range(samples):
        a = haar_unitary(d, rng)
        b = haar_unitary(d, rng)
        c = haar_unitary(d, rng)
        la, lb = hs_length(a), hs_length(b)
        worst["symmetry"] = max(worst["symmetry"], abs(la - hs_length(a.inverse())))
        conj = b @ a @ b.inverse()
        worst["conjugation"] = max(worst["conjugation"], abs(hs_length(conj) - la))
        worst["triangle"] = max(worst["triangle"], hs_length(a @ b) - la - lb)
        direct = hs_distance(b, c)
        worst["bi_invariance"] = max(
            worst["bi_invariance"],
            abs(hs_distance(a @ b, a @ c) - direct),
            abs(hs_distance(b @ a, c @ a) - direct),
        )
        trace_form = 2 * d - 2 * np.trace(a.entries).real
        worst["trace_identity"] = max(worst["trace_identity"], abs(la * la - trace_form))
    max_violation = max(worst.values())
    return AxiomReport(
        D=d,
        samples=samples,
        seed=seed,
        violations=worst,
        max_violation=max_violation,
        passed=max_violation < AXIOM_TOL,
    )


def _rep_lookup(rep, idx: int) -> UnitaryPoint:
    if callable(rep):
        return rep(idx)
    return rep[idx]


def coverlength_bound_check(
    g: GroupTable,
    rep,
    x: int,
    y: int,
    k1: int,
    k2: int,
) -> bool:
    """Verify ell(rep(h)) <= K1 ell(rep(x)) + K2 ell(rep(y)) for all h.

    rep maps element indices to UnitaryPoint (mapping or callable).  The
    homomorphism property is spot-checked on generator pairs; the pair
    (x, y) must have the symmetric double covering property with exact
    K1- and K2-fold products, which is what makes every h a product of
    K1 + K2 conjugates of the four elements x, x^-1, y, y^-1.
    """
    e = 0
    ident = _rep_lookup(rep, e)
    if hs_length(ident) > PRODUCT_TOL:
        raise NotHomomorphism("identity does not map near I")
    check = list(dict.fromkeys(g.gens)) or [e]
    for a in check:
        for b in check:
            lhs = _rep_lookup(rep, int(g.mul(a, b))).entries
            rhs = _rep_lookup(rep, a).entries @ _rep_lookup(rep, b).entries
            if np.linalg.norm(lhs - rhs) > PRODUCT_TOL:
                raise NotHomomorphism(f"rep({a})*rep({b}) strays from rep of the product")
    if not double_covering_feasible(g, x, y, k1, 1, k2, 1):
        raise CoveringPreconditionFailed(
            f"pair lacks symmetric double covering with (K1, K2) = ({k1}, {k2})"
        )
    budget = k1 * hs_length(_rep_lookup(rep, x)) + k2 * hs_length(_rep_lookup(rep, y))
    for h in range(g.order):
        if hs_length(_rep_lookup(rep, h)) > budget + PRODUCT_TOL:
            return False
    return True


def permutation_unitary(images) -> UnitaryPoint:
    """Permutation matrix of a degree-n permutation as a point of U_n."""
    n = len(images)
    m = np.zeros((n, n))
    for j, i in enumerate(images):
        m[i, j] = 1.0
    return UnitaryPoint(m)
