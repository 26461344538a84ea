"""Exact linear algebra over prime fields GF(p), p < 2**16.

Matrices are numpy int64 arrays reduced mod p; all elimination is exact.
Extension fields GF(p^k), k >= 2, are out of scope.  FFMatrix is a value
type with no arithmetic: products are reduced matmuls on int64 entries, and
rank, inverse and Jordan length take (b, n, n) stacks.

Every elimination runs through one kernel, _eliminate, which brings a
(b, n, m) stack of matrices to echelon form: a loop over the m columns,
vectorized over the b matrices.  It never swaps rows.  In each column a
matrix takes its first row with a nonzero entry as the pivot row, scales
it to a leading 1, stores it by its column and clears the column in every
row, the pivot row included, so a used row is zero and never chosen again.
Pivot inverses come from a per-p table of every inverse mod p for
p < MAX_PRIME (read-only uint16, at most 128 KiB; the 16 most recently
used are kept), and from Python's pow on the pivots above it.  The rank is
read off the pivots; the inverses and the nullspaces of a whole stack
(ff_inv, ff_nullspaces, one elimination for every matrix) reduce the
echelon rows fully, _back_substitute, over only the columns they read.
The character degrees read the kernels of all eigenvalue shifts of one
class-algebra action from a single ff_nullspaces call.  shift_ranks
ranks a*I - g for every a in GF(p) at once; the Jordan length is read off
those ranks (jordan_numerators, in integers).  The two-prime witness's
length needs no elimination: constructions reads the ranks of its cycle
blocks off x^k = 1.
The kernel's stack is not reduced after every column.  Only the column
that pivots are read from is reduced mod p, so every subtracted product is
of two residues, below (p - 1)**2, and j such updates leave the entries in
[-j (p-1)**2, p).  The pivot row is read unreduced and multiplied by an
inverse below p, up to j (p-1)**3 in magnitude, so the whole stack is
reduced once j reaches the period (2**63 - 1) // (p-1)**3, computed from p
at entry: never for p < 2**16 in practice, every few columns near 10**6 and
every column from 2**21 up.  At a period of one column every product is
of two residues, so the kernel requires p < 2**31 (p**2 < 2**62), checked
where it is entered; callers such as the character degrees pass primes
above MAX_PRIME.
_back_substitute reduces the same way, each row it reads and the whole
stack every (2**63 - 1) // (p-1)**2 rows.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, Cursor, ParseError

MAX_PRIME = 1 << 16
# Elimination reduced after every column multiplies two residues below p:
# p**2 < 2**62 keeps that and the difference it is subtracted from inside int64.
_ELIM_PRIME_LIMIT = 1 << 31

# Matrix entries per rank call in shift_ranks: with the (n, n) echelon rows
# kept for each (n, n) matrix, one call holds 8 MB of int64, which bounds
# its memory whatever the number of matrices and the prime.
_JORDAN_ENTRIES = 1 << 19

# Enumeration cap shared with the group engine; classical_generators refuses
# families whose full group would not be enumerable anyway.
DEFAULT_ORDER_CAP = 500_000


class SingularMatrix(ValueError):
    """Raised where an invertible matrix is required."""


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
    """Square matrix over a prime field: an immutable value with validated,
    reduced entries and no arithmetic; computations read .entries."""

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


# 16 tables of at most 2 * 65,521 bytes each: within 2 MiB (2**21 bytes)
@functools.lru_cache(maxsize=16)
def _inverse_table(p: int) -> np.ndarray:
    """x -> x^-1 mod p for every x in GF(p), with 0 -> 0, as read-only
    uint16; p < MAX_PRIME, so a table is at most 128 KiB.

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
    table = inv.astype(np.uint16)
    table.setflags(write=False)
    return table


def _eliminate(stack: np.ndarray, p: int):
    """Echelon form of every matrix of a (b, n, m) stack mod p, without swapping rows.

    For each column, each matrix takes its first row with a nonzero entry
    as the pivot row, scales it to a leading 1 and stores it, then clears
    the column in every row, the pivot row too: a used row is zero from
    then on and is never chosen again.  Returns the stored rows as a
    (b, m, m) stack, rows[:, c] the scaled pivot row of column c or zero,
    and the pivots before scaling as a (b, m) array, 0 where there is none.
    Both are reduced; the working stack is congruent mod p but reduced only
    in the column read and when the period set below runs out.
    """
    if not 2 <= p < _ELIM_PRIME_LIMIT:
        raise ValueError(f"elimination needs 2 <= p < 2**31, got {p}")
    a = np.asarray(stack, dtype=np.int64, order="C") % p
    table = _inverse_table(p) if p < MAX_PRIME else None
    # j column updates after a reduction leave a in [-j (p-1)**2, p), and
    # the pivot row read then meets an inverse below p: up to j (p-1)**3,
    # which stays below 2**63 while j < period.
    period = max(1, ((1 << 63) - 1) // (p - 1) ** 3)
    since = 0
    b, n, m = a.shape
    at = np.arange(b)
    rows = np.zeros((b, m, m), dtype=np.int64)
    pivots = np.zeros((b, m), dtype=np.int64)
    left = b * n
    for c in range(m):
        if not left:
            break
        col = a[:, :, c] % p
        r = (col != 0).argmax(axis=1)
        piv = col[at, r]
        k = np.count_nonzero(piv)
        if not k:
            continue
        if table is not None:
            inv = table[piv]  # uint16: the product below promotes it to int64
        else:
            inv = np.array([pow(v, -1, p) if v else 0 for v in piv.tolist()], dtype=np.int64)
        # A matrix without a pivot here has row = 0, so it is left unchanged.
        row = a[at, r] * inv[:, None] % p
        a -= col[:, :, None] * row[:, None, :]
        since += 1
        if since == period:
            a %= p
            since = 0
        rows[:, c] = row
        pivots[:, c] = piv
        left -= k
    return rows, pivots


def _back_substitute(rows: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Clear the pivot columns from y, (b, m, k) chosen columns of the
    (b, m, m) echelon rows of _eliminate, the last column first: the same
    columns of the fully reduced rows.  Row c of an echelon stack is zero
    before column c, so clearing column c touches only the rows above it,
    and a row without a pivot adds nothing.  Each row of y is reduced as it
    is read, the whole of y when the period set below runs out and once at
    the end, so the result is reduced."""
    # Row c is reduced before it is read, so each step subtracts products
    # below (p-1)**2, and j steps after a reduction leave y in
    # [-j (p-1)**2, p): below 2**63 in magnitude while j <= period.
    period = ((1 << 63) - 1) // (p - 1) ** 2
    y = y.copy()
    for j, c in enumerate(range(rows.shape[1] - 1, 0, -1), 1):
        above = y[:, :c]
        above -= rows[:, :c, c, None] * (y[:, c, None, :] % p)
        if j % period == 0:
            y %= p
    y %= p
    return y


def ff_rank(a: np.ndarray, p: int):
    """Rank mod p of a matrix, or the array of ranks of a (b, n, m) stack."""
    a = np.asarray(a, dtype=np.int64)
    _, pivots = _eliminate(a[None] if a.ndim == 2 else a, p)
    ranks = np.count_nonzero(pivots, axis=1)
    return int(ranks[0]) if a.ndim == 2 else ranks


def ff_inv(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a matrix, or the inverses of a (b, n, n) stack: the
    right half of each reduced [A | I].  Raises SingularMatrix when any
    matrix is singular."""
    a = np.asarray(a, dtype=np.int64)
    stack = a[None] if a.ndim == 2 else a
    n = stack.shape[1]
    aug = np.concatenate([stack, np.broadcast_to(np.eye(n, dtype=np.int64), stack.shape)], axis=2)
    rows, pivots = _eliminate(aug, p)
    if not pivots[:, :n].all():
        raise SingularMatrix("matrix is singular")
    inv = _back_substitute(rows[:, :n, :n], rows[:, :n, n:], p)
    return inv[0] if a.ndim == 2 else inv


def ff_nullspaces(stack: np.ndarray, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Kernel of every matrix of a (b, n, m) stack mod p, from one elimination.

    Returns (basis, free) per matrix: basis is an (m, m - rank) column basis
    in reduced form and free the columns without a pivot, on which the basis
    is the identity.  Column j of the basis is e_f - (column f of the
    reduced rows) for the j-th free column f, so only the free columns are
    back-substituted, each matrix's padded to the widest nullity.
    """
    rows, pivots = _eliminate(stack, p)
    nullity = np.count_nonzero(pivots == 0, axis=1)
    # free columns first, in order; the padding columns are discarded
    free = np.argsort(pivots != 0, axis=1, kind="stable")[:, : nullity.max(initial=0)]
    basis = -_back_substitute(rows, np.take_along_axis(rows, free[:, None, :], axis=2), p) % p
    basis[np.arange(len(free))[:, None], free, np.arange(free.shape[1])] = 1
    return [(x[:, :k], cols[:k]) for x, cols, k in zip(basis, free, nullity.tolist())]


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


def jordan_length(g: FFMatrix) -> Fraction:
    """(n - m_g)/n where m_g = max over a in F* of dim ker(a - g), exact.

    Only defined for invertible g.
    """
    return Fraction(int(jordan_numerators(g.entries[None], g.field.p)[0]), g.n)


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


_JSON = json.JSONDecoder()


def parse_matrix(text: str) -> FFMatrix:
    """Parse the literal form "mat:p=<prime>:[[r,..],[..]]".

    Whitespace may come around it and in its JSON body; offsets count from the start of text.
    """
    cur = Cursor(text)
    cur.skip_space()
    cur.take("mat:p=", expected="mat:p=<prime>:[[..]]")
    at = cur.pos
    p = cur.take_int("prime characteristic")
    cur.take(":", expected=":[[..]]")
    body = cur.pos
    try:
        rows, cur.pos = _JSON.raw_decode(text, body)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad matrix body: {e.msg}", pos=e.pos) from None
    cur.finish("trailing characters after matrix")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix body must be a list of rows", pos=body)
    try:
        field = PrimeField(p)
    except ValueError as e:
        raise ParseError(str(e), pos=at) from None
    width = {len(r) for r in rows}
    if len(width) != 1 or width.pop() != len(rows):
        raise ParseError("matrix must be square", pos=body)
    # JSON integers only (bool is not one), reduced in Python so any size reads
    if not all(type(x) is int for r in rows for x in r):
        raise ParseError("matrix entries must be integers", pos=body)
    return FFMatrix(field, [[x % p for x in r] for r in rows])


def matrix_literal(m: FFMatrix) -> str:
    body = json.dumps([[int(x) for x in row] for row in m.entries], separators=(",", ""))
    return f"mat:p={m.field.p}:{body}"


def format_rational(x: Fraction) -> str:
    """Canonical num/den rendering, denominator always shown."""
    return f"{x.numerator}/{x.denominator}"
