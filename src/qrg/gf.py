"""Exact linear algebra over prime fields GF(p), p < 2**16.

Matrices are numpy int64 arrays reduced mod p; all elimination is exact.
Extension fields GF(p^k), k >= 2, are out of scope.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, ParseError

MAX_PRIME = 1 << 16

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

    def __add__(self, other: "FFMatrix") -> "FFMatrix":
        self._check(other)
        return FFMatrix(self.field, (self.entries + other.entries) % self.field.p)

    def __sub__(self, other: "FFMatrix") -> "FFMatrix":
        self._check(other)
        return FFMatrix(self.field, (self.entries - other.entries) % self.field.p)

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


def ff_rank(a: np.ndarray, p: int) -> int:
    """Rank by forward Gaussian elimination mod p."""
    m = (np.array(a, dtype=np.int64) % p).copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        below = m[r + 1 :, c]
        if below.size:
            m[r + 1 :] = (m[r + 1 :] - np.outer(below, m[r])) % p
        r += 1
    return r


def ff_det(a: np.ndarray, p: int) -> int:
    """Determinant mod p via elimination."""
    m = (np.array(a, dtype=np.int64) % p).copy()
    n = m.shape[0]
    det = 1
    for c in range(n):
        nz = np.nonzero(m[c:, c])[0]
        if nz.size == 0:
            return 0
        piv = c + int(nz[0])
        if piv != c:
            m[[c, piv]] = m[[piv, c]]
            det = (-det) % p
        det = (det * int(m[c, c])) % p
        inv = pow(int(m[c, c]), -1, p)
        m[c] = (m[c] * inv) % p
        below = m[c + 1 :, c]
        if below.size:
            m[c + 1 :] = (m[c + 1 :] - np.outer(below, m[c])) % p
    return det % p


def ff_inv(a: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse mod p, or None when singular."""
    m = (np.array(a, dtype=np.int64) % p).copy()
    n = m.shape[0]
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    r = 0
    for c in range(n):
        nz = np.nonzero(aug[r:, c])[0]
        if nz.size == 0:
            return None
        piv = r + int(nz[0])
        if piv != r:
            aug[[r, piv]] = aug[[piv, r]]
        inv = pow(int(aug[r, c]), -1, p)
        aug[r] = (aug[r] * inv) % p
        others = np.nonzero(aug[:, c])[0]
        for i in others:
            if i != r:
                aug[i] = (aug[i] - aug[i, c] * aug[r]) % p
        r += 1
    return aug[:, n:]


def ff_nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Column basis of the kernel, in reduced form (free rows carry identity)."""
    m = (np.array(a, dtype=np.int64) % p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        others = np.nonzero(m[:, c])[0]
        for i in others:
            if i != r:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for ri, pc in enumerate(pivots):
            basis[pc, k] = (-m[ri, fc]) % p
    return basis


def rank(m: FFMatrix) -> int:
    return ff_rank(m.entries, m.field.p)


def jordan_length(g: FFMatrix) -> Fraction:
    """(n - m_g)/n where m_g = max over a in F* of dim ker(a - g), exact.

    Only defined for invertible g.
    """
    p = g.field.p
    n = g.n
    if ff_det(g.entries, p) == 0:
        raise SingularMatrix("jordan length requires an invertible matrix")
    best = 0
    for a in range(1, p):
        shifted = (a * np.eye(n, dtype=np.int64) - g.entries) % p
        dim = n - ff_rank(shifted, p)
        if dim > best:
            best = dim
    return Fraction(n - best, n)


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
    body = body.replace("],[", "],[")
    return f"mat:p={m.field.p}:{body}"


def format_rational(x: Fraction) -> str:
    """Canonical num/den rendering, denominator always shown."""
    return f"{x.numerator}/{x.denominator}"
