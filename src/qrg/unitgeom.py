"""Hilbert-Schmidt geometry on the unitary groups U_D(C).

Floating-point verification layer: the length function ell(A) = ||A - I||,
its axioms, the fact that some power of any nontrivial unitary has length
above sqrt(2), and circle packing thresholds.  Algebraic identities are
held to 1e-9.  A leaf module: it reads no group table and imports nothing
from the rest of qrg, only numpy and the standard library.

Haar samples are drawn stacked: one standard_normal call and one stacked
QR for a whole block, with the phases of R's diagonal folded back into Q
(Mezzadri 2007, "How to generate random matrices from the classical
compact groups").  Each matrix takes its real and then its imaginary part
from the stream, so a stack holds, bit for bit, the matrices that as many
one-sample draws would give; haar_unitary is the one-sample case.  The
axiom check forms inverses, conjugates and products as stacked matmuls
and checks the unitarity of each stack at once, but takes every printed
norm with one np.linalg.norm call per matrix: on numpy 2.4.6
norm(..., axis=(1, 2)) sums in another order, so its last bits differ,
and the worst violation is part of the output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

UNITARITY_TOL = 1e-9
AXIOM_TOL = 1e-9
SQRT2 = math.sqrt(2.0)

# Samples per stacked draw in length_axioms_check: its arrays peak near
# 25 MB at D = 8 (tracemalloc) however many samples are asked for.
_AXIOM_BLOCK = 1 << 10

# Chords of neighbouring m differ by about one part in m, so a chord is
# compared with eps at this many digits more than m has.
_CHORD_DIGITS = 40


class NotUnitary(ValueError):
    pass


class IdentityInput(ValueError):
    pass


def _check_unitary(stack: np.ndarray) -> None:
    """Raise NotUnitary unless ||A*A - I|| <= 1e-9 for every A of a (b, d, d) stack."""
    gram = stack.conj().swapaxes(1, 2) @ stack
    defect = np.linalg.norm(gram - np.eye(stack.shape[2]), axis=(1, 2)).max(initial=0.0)
    if defect > UNITARITY_TOL:
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL}")


class UnitaryPoint:
    """A point of U_D(C): a complex matrix with ||A*A - I|| <= 1e-9."""

    __slots__ = ("D", "entries")

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotUnitary("entries must form a square matrix")
        _check_unitary(a[None])
        a.setflags(write=False)
        object.__setattr__(self, "D", a.shape[0])
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryPoint is immutable")

    @classmethod
    def identity(cls, d: int) -> "UnitaryPoint":
        return cls(np.eye(d))

    def power(self, k: int) -> "UnitaryPoint":
        return UnitaryPoint(np.linalg.matrix_power(self.entries, k))

    def __repr__(self):
        return f"UnitaryPoint(D={self.D})"


@dataclass(frozen=True)
class AxiomReport:
    D: int
    samples: int
    seed: int
    violations: dict
    max_violation: float
    passed: bool


def _haar_stack(count: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar-distributed elements of U_d(C) as a (count, d, d) stack.

    QR of complex Ginibre matrices with the R diagonal phases folded back
    into Q, which fixes the non-uniqueness of plain QR (Mezzadri 2007).
    Matrix i is drawn from the stream after matrices 0..i-1, real part
    first.
    """
    g = rng.standard_normal((count, 2, d, d))
    z = (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> UnitaryPoint:
    """Haar-distributed element of U_d(C), the one-sample stacked draw."""
    return UnitaryPoint(_haar_stack(1, d, rng)[0])


def hs_length(a: UnitaryPoint) -> float:
    """ell(A) = ||A - I|| in the Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a.entries - np.eye(a.D)))


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


def packing_threshold(eps) -> int:
    """Exact circle packing threshold on U_1(C).

    Returns the least m such that any m points of U_1(C) contain a pair at
    chordal distance strictly below eps.  Pigeonhole on arcs gives the
    bound 2 sin(pi/m); m-1 equally spaced points are the extremal witness.
    """
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
    return hi


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||x_i - y_i|| for each matrix of a stack x, y a stack or one matrix.

    One np.linalg.norm call per matrix, so each value is bitwise the one
    hs_length gives (see the module docstring).
    """
    y = np.broadcast_to(y, x.shape)
    return np.array([np.linalg.norm(u - v) for u, v in zip(x, y)])


def length_axioms_check(samples: int, d: int, seed: int) -> AxiomReport:
    """Check the length-function axioms on Haar-random triples.

    Covered: symmetry under inversion, conjugation invariance, the
    triangle inequality, bi-invariance of the distance, and the trace
    identity ell(A)^2 = 2D - 2 Re Tr(A).  The triples come in blocks of
    _AXIOM_BLOCK samples, each one stacked draw of 3 * block unitaries in
    the order a, b, c of each sample, so the block size does not change
    the stream or the report.
    """
    if d > 8:
        raise ValueError("axiom sampling capped at D <= 8")
    rng = np.random.default_rng(seed)
    eye = np.eye(d)
    worst = {
        "identity_length": hs_length(UnitaryPoint.identity(d)),
        "symmetry": 0.0,
        "conjugation": 0.0,
        "triangle": 0.0,
        "bi_invariance": 0.0,
        "trace_identity": 0.0,
    }
    for start in range(0, samples, _AXIOM_BLOCK):
        count = min(_AXIOM_BLOCK, samples - start)
        abc = _haar_stack(3 * count, d, rng)
        a, b, c = abc.reshape(count, 3, d, d).swapaxes(0, 1)
        ab, ac, ba, ca = a @ b, a @ c, b @ a, c @ a
        conj = ba @ b.conj().swapaxes(1, 2)
        for stack in (abc, ab, ac, ba, ca, conj):
            _check_unitary(stack)
        la, lb = _distances(a, eye), _distances(b, eye)
        direct = _distances(b, c)
        block = {
            "symmetry": abs(la - _distances(a.conj().swapaxes(1, 2), eye)),
            "conjugation": abs(_distances(conj, eye) - la),
            "triangle": _distances(ab, eye) - la - lb,
            "bi_invariance": np.maximum(abs(_distances(ab, ac) - direct),
                                        abs(_distances(ba, ca) - direct)),
            "trace_identity": abs(la * la - (2 * d - 2 * np.trace(a, axis1=1, axis2=2).real)),
        }
        for key, values in block.items():
            worst[key] = max(worst[key], float(values.max()))
    max_violation = max(worst.values())
    return AxiomReport(
        D=d,
        samples=samples,
        seed=seed,
        violations=worst,
        max_violation=max_violation,
        passed=max_violation < AXIOM_TOL,
    )
