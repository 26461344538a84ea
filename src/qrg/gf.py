"""Exact linear algebra over prime fields GF(p), p < 2**16.

Matrices are numpy int64 arrays reduced mod p; all elimination is exact.
Extension fields GF(p^k), k >= 2, are out of scope.

Every elimination runs through one kernel, _eliminate, which fully reduces
a (b, n, m) stack of matrices: a loop over the m columns, vectorized over
the b matrices.  It never swaps rows.  In each column a matrix takes its
first unused row with a nonzero entry as the pivot row, scales it to a
leading 1, clears the column in every other row and marks the row used.
Pivot inverses come from a per-p table of every inverse mod p for
p < MAX_PRIME, and from Python's pow on the pivots above it.  Rank,
determinant, inverse and the nullspaces of a whole stack (ff_nullspaces,
one elimination for every matrix) are read off its pivot map; the
character degrees read the kernels of all eigenvalue shifts of one
class-algebra action from a single ff_nullspaces call.  shift_ranks
ranks a*I - g for every a in GF(p) at once; the Jordan length is read off
those ranks (jordan_numerators, in integers).  The two-prime witness's
length needs no elimination: constructions reads the ranks of its cycle
blocks off x^k = 1.
The kernel multiplies two residues below p, so it requires p < 2**31
(p**2 < 2**62), checked where it is entered; callers such as the character
degrees pass primes above MAX_PRIME.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, ParseError

MAX_PRIME = 1 << 16
# Elimination multiplies two residues below p: p**2 < 2**62 keeps that and
# the difference it is subtracted from inside int64.
_ELIM_PRIME_LIMIT = 1 << 31

# Matrix entries per rank call in jordan_lengths (8 MB of int64), which
# bounds its memory whatever the number of matrices and the prime.
_JORDAN_ENTRIES = 1 << 20

# Enumeration cap shared with the group engine; classical_generators refuses
# families whose full group would not be enumerable anyway.
DEFAULT_ORDER_CAP = 500_000


class SingularMatrix(ValueError):
    """Raised where an invertible matrix is required."""


class FieldMismatch(ValueError):
    """Operands live over different prime fields."""


class UnsupportedFamily(ValueError):
    """Classical family outside {SL, Sp}."""


def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate for n < 2**16 and small searches."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """GF(p) for a prime 2 <= p < 2**16."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if not 2 <= p < MAX_PRIME:
            raise ValueError(f"prime must satisfy 2 <= p < {MAX_PRIME}, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _as_array(entries, p: int) -> np.ndarray:
    a = np.array(entries, dtype=np.int64) % p
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    return a


class FFMatrix:
    """Square matrix over a prime field."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: PrimeField, entries):
        a = _as_array(entries, field.p)
        a.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", a.shape[0])
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("FFMatrix is immutable")

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FFMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    def _check(self, other: "FFMatrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __mul__(self, other: "FFMatrix") -> "FFMatrix":
        self._check(other)
        return FFMatrix(self.field, (self.entries @ other.entries) % self.field.p)

    def inverse(self) -> "FFMatrix":
        inv = ff_inv(self.entries, self.field.p)
        if inv is None:
            raise SingularMatrix("matrix is singular")
        return FFMatrix(self.field, inv)

    def transpose(self) -> "FFMatrix":
        return FFMatrix(self.field, self.entries.T)

    def __pow__(self, k: int) -> "FFMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = FFMatrix.identity(self.field, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.entries, np.eye(self.n, dtype=np.int64)))

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and self.field == other.field
            and self.n == other.n
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.field.p, self.n, self.entries.tobytes()))

    def __repr__(self):
        return f"FFMatrix({matrix_literal(self)!r})"


@functools.lru_cache(maxsize=4)
def _inverse_table(p: int) -> np.ndarray:
    """x -> x^-1 mod p for every x in GF(p), with 0 -> 0; p < MAX_PRIME (512 KB).

    x^(p-2) by squaring, over all residues at once: products of two residues
    below 2**16 fit int64.
    """
    x = np.arange(p, dtype=np.int64)
    inv = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * x % p
        x = x * x % p
        e >>= 1
    inv[0] = 0
    inv.setflags(write=False)
    return inv


def _eliminate(stack: np.ndarray, p: int):
    """Fully reduce every matrix of a (b, n, m) stack mod p, without swapping rows.

    For each column, each matrix takes its first unused row with a nonzero
    entry as the pivot row, scales it to a leading 1, clears the column in
    every other row and marks the row used.  Returns the reduced stack, the
    pivot row of each column as a (b, m) array (-1 where there is none) and
    the product mod p of each matrix's pivots before scaling.
    """
    if not 2 <= p < _ELIM_PRIME_LIMIT:
        raise ValueError(f"elimination needs 2 <= p < 2**31, got {p}")
    a = np.asarray(stack, dtype=np.int64, order="C") % p
    table = _inverse_table(p) if p < MAX_PRIME else None
    b, n, m = a.shape
    flat = a.reshape(b * n, m)
    first = np.arange(0, b * n, n)
    free = np.ones(b * n, dtype=bool)
    pivot_row = np.full((b, m), -1, dtype=np.int64)
    product = np.ones(b, dtype=np.int64)
    left = b * n
    for c in range(m):
        if not left:
            break
        col = flat[:, c]
        cand = (col != 0) & free
        r = cand.reshape(b, n).argmax(axis=1)
        at = first + r
        has = cand[at]
        k = np.count_nonzero(has)
        if not k:
            continue
        piv = col[at] * has
        if table is not None:
            inv = table[piv]
        else:
            inv = np.array([pow(v, -1, p) if v else 0 for v in piv.tolist()], dtype=np.int64)
        row = flat[at] * inv[:, None] % p
        # A matrix without a pivot here has row = 0, so it is left unchanged.
        a -= col.reshape(b, n, 1) * row[:, None, :]
        a %= p
        flat[at] += row
        free[at[has]] = False
        pivot_row[:, c] = np.where(has, r, -1)
        product = product * np.where(has, piv, 1) % p
        left -= k
    return a, pivot_row, product


def ff_rank(a: np.ndarray, p: int):
    """Rank mod p of a matrix, or the array of ranks of a (b, n, m) stack."""
    a = np.asarray(a, dtype=np.int64)
    _, pivot_row, _ = _eliminate(a[None] if a.ndim == 2 else a, p)
    ranks = np.count_nonzero(pivot_row >= 0, axis=1)
    return int(ranks[0]) if a.ndim == 2 else ranks


def ff_det(a: np.ndarray, p: int) -> int:
    """Determinant mod p: the pivot product times the sign of column -> pivot row."""
    _, pivot_row, product = _eliminate(np.asarray(a, dtype=np.int64)[None], p)
    rows = pivot_row[0]
    if (rows < 0).any():
        return 0
    inversions = np.count_nonzero(np.triu(rows[:, None] > rows[None, :], 1))
    return int(product[0]) * (-1) ** inversions % p


def ff_inv(a: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse mod p, or None when singular: the right half of the reduced [A | I]."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    reduced, pivot_row, _ = _eliminate(aug[None], p)
    rows = pivot_row[0, :n]
    if (rows < 0).any():
        return None
    return reduced[0, rows, n:]


def ff_nullspaces(stack: np.ndarray, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Kernel of every matrix of a (b, n, m) stack mod p, from one elimination.

    Returns (basis, free) per matrix: basis is an (m, m - rank) column basis
    in reduced form and free the columns without a pivot, on which the basis
    is the identity.  Row c of I - R, where R carries the reduced pivot row
    of each pivot column c and zeros elsewhere, is -(that row) on the free
    columns and e_c for a free c; the basis is its free columns.
    """
    reduced, pivot_row, _ = _eliminate(stack, p)
    has = pivot_row >= 0
    rows = np.take_along_axis(reduced, np.where(has, pivot_row, 0)[:, :, None], axis=1)
    full = (np.eye(reduced.shape[2], dtype=np.int64) - rows * has[:, :, None]) % p
    out = []
    for basis, pivotless in zip(full, ~has):
        free = np.flatnonzero(pivotless)
        out.append((basis[:, free], free))
    return out


def ff_nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Column basis of the kernel, in reduced form (free rows carry identity)."""
    return ff_nullspaces(np.asarray(a, dtype=np.int64)[None], p)[0][0]


def shift_ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of a*I - g for every a in GF(p), as a (b, p) array for a
    (b, n, n) stack of matrices g; entry [i, a] is n - dim ker(a - g_i).

    One rank call covers every shift of every matrix.  Stacks past
    _JORDAN_ENTRIES entries are ranked in calls of that size.
    """
    g = np.asarray(stack, dtype=np.int64)
    b, n, _ = g.shape
    eye = np.eye(n, dtype=np.int64)
    step = max(1, _JORDAN_ENTRIES // (n * n))
    ranks = np.empty(b * p, dtype=np.int64)
    for lo in range(0, b * p, step):
        k = np.arange(lo, min(lo + step, b * p))  # matrix k // p, shifted by a = k % p
        ranks[lo : lo + len(k)] = ff_rank((k % p)[:, None, None] * eye - g[k // p], p)
    return ranks.reshape(b, p)


def jordan_numerators(stack: np.ndarray, p: int) -> np.ndarray:
    """n - m_g for each g of a (b, n, n) stack of invertible matrices, as
    an int64 array: the Jordan lengths times their common denominator n.

    m_g = max over a in F* of dim ker(a - g).  Of the shift ranks, a = 0
    gives -g, of rank n exactly when g is invertible, and n - m_g is the
    least rank over a >= 1.
    """
    n = np.shape(stack)[1]
    ranks = shift_ranks(stack, p)
    if (ranks[:, 0] < n).any():
        raise SingularMatrix("jordan length requires an invertible matrix")
    return ranks[:, 1:].min(axis=1)


def jordan_lengths(stack: np.ndarray, p: int) -> list[Fraction]:
    """Jordan lengths (n - m_g)/n of a (b, n, n) stack of invertible matrices g."""
    n = np.shape(stack)[1]
    return [Fraction(int(k), n) for k in jordan_numerators(stack, p)]


def jordan_length(g: FFMatrix) -> Fraction:
    """(n - m_g)/n where m_g = max over a in F* of dim ker(a - g), exact.

    Only defined for invertible g.
    """
    return jordan_lengths(g.entries[None], g.field.p)[0]


def direct_sum(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    n, m = a.n, b.n
    out = np.zeros((n + m, n + m), dtype=np.int64)
    out[:n, :n] = a.entries
    out[n:, n:] = b.entries
    return FFMatrix(a.field, out)


def sl_order(n: int, q: int) -> int:
    """|SL_n(F_q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q**i - 1
    return out


def sp_order(n: int, q: int) -> int:
    """|Sp_n(F_q)| for even n = 2m: q^(m^2) * prod_{i=1..m} (q^(2i) - 1)."""
    m = n // 2
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def symplectic_form(field: PrimeField, n: int) -> FFMatrix:
    """The form J = [[0, I], [-I, 0]] preserved by the Sp generators."""
    if n % 2:
        raise ValueError("symplectic form needs an even dimension")
    m = n // 2
    j = np.zeros((n, n), dtype=np.int64)
    j[:m, m:] = np.eye(m, dtype=np.int64)
    j[m:, :m] = -np.eye(m, dtype=np.int64)
    return FFMatrix(field, j)


def classical_generators(
    family: str, n: int, field: PrimeField, cap: int = DEFAULT_ORDER_CAP
) -> list[FFMatrix]:
    """Generating sets for SL_n(F_p) and Sp_n(F_p).

    SL uses the elementary transvections I + E_ij.  Sp (n even) uses the
    unipotent block matrices [[I, S], [0, I]] and [[I, 0], [S, I]] with S
    running over a basis of symmetric matrices; each satisfies M^T J M = J
    for J = [[0, I], [-I, 0]].  Raises CapExceeded when the full group would
    be larger than the enumeration cap.
    """
    p = field.p
    if family == "SL":
        if n < 2:
            raise ValueError("SL requires n >= 2")
        order = sl_order(n, p)
        if order > cap:
            raise CapExceeded(f"|SL_{n}(F_{p})| = {order} exceeds cap {cap}")
        gens = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    e = np.eye(n, dtype=np.int64)
                    e[i, j] = 1
                    gens.append(FFMatrix(field, e))
        return gens
    if family == "Sp":
        if n < 2 or n % 2 != 0:
            raise ValueError("Sp requires even n >= 2")
        order = sp_order(n, p)
        if order > cap:
            raise CapExceeded(f"|Sp_{n}(F_{p})| = {order} exceeds cap {cap}")
        m = n // 2
        sym_basis = []
        for i in range(m):
            s = np.zeros((m, m), dtype=np.int64)
            s[i, i] = 1
            sym_basis.append(s)
        for i in range(m):
            for j in range(i + 1, m):
                s = np.zeros((m, m), dtype=np.int64)
                s[i, j] = 1
                s[j, i] = 1
                sym_basis.append(s)
        gens = []
        for s in sym_basis:
            upper = np.eye(n, dtype=np.int64)
            upper[:m, m:] = s
            gens.append(FFMatrix(field, upper))
            lower = np.eye(n, dtype=np.int64)
            lower[m:, :m] = s
            gens.append(FFMatrix(field, lower))
        return gens
    raise UnsupportedFamily(f"unknown family {family!r}; supported: SL, Sp")


_MAT_RE = re.compile(r"^mat:p=(\d+):(\[.*\])$")


def parse_matrix(text: str) -> FFMatrix:
    """Parse the literal form "mat:p=<prime>:[[r,..],[..]]"."""
    s = text.strip()
    m = _MAT_RE.match(s)
    if not m:
        raise ParseError(
            "matrix literal must look like mat:p=<prime>:[[..],[..]]",
            pos=0,
            expected={"mat:p=<prime>:[[..]]"},
        )
    p = int(m.group(1))
    try:
        rows = json.loads(m.group(2))
    except json.JSONDecodeError as e:
        raise ParseError(f"bad matrix body: {e.msg}", pos=m.start(2) + e.pos) from None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix body must be a list of rows", pos=m.start(2))
    try:
        field = PrimeField(p)
    except ValueError as e:
        raise ParseError(str(e), pos=s.index("p=") + 2) from None
    width = {len(r) for r in rows}
    if len(width) != 1 or width.pop() != len(rows):
        raise ParseError("matrix must be square", pos=m.start(2))
    return FFMatrix(field, rows)


def matrix_literal(m: FFMatrix) -> str:
    body = json.dumps([[int(x) for x in row] for row in m.entries], separators=(",", ""))
    return f"mat:p={m.field.p}:{body}"


def format_rational(x: Fraction) -> str:
    """Canonical num/den rendering, denominator always shown."""
    return f"{x.numerator}/{x.denominator}"
