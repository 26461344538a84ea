"""Covering numbers and covering properties of conjugacy classes.

All product sets here are unions of conjugacy classes, stored as class
bitmasks on a GroupTable.  Products are exact k-fold products (no identity
padding): S^k means S * S * ... * S with k factors.  The symmetric variant
replaces a class C by C union C^{-1}.  K-fold products and covering numbers
are read from the group's powers S, S^2, ... of a class set, formed until
they first repeat and cycling after.

Covering properties over a power range 1 <= i <= m are decided on the
distinct classes of the powers x^i, read from the group's class power map:
the class of x^i depends only on the class of x and on i mod o(x).  The
distinct k-fold products of those classes are cached on the group per
(class, min(m, o), k, symmetric).

The cosocle inflation check relies on monotonicity: A^a * B^b = G gives
A^(a+i) * B^(b+j) = A^i * G * B^j = G, so the double covering holds at
f * k1, f * k2 for the inflation factor f iff it holds for some f' <= f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

from .engine import GroupTable, NormalSubgroup, cosocle, direct_product, quotient


class GroupMismatch(ValueError):
    """Class sets over two different groups cannot be combined."""


@dataclass(frozen=True)
class ClassSet:
    """A union of conjugacy classes of one group, as a bitmask."""

    group: GroupTable
    bits: int

    @property
    def element_count(self) -> int:
        return self.group.class_bits_size(self.bits)

    @property
    def class_count(self) -> int:
        return bin(self.bits).count("1")

    def is_full(self) -> bool:
        return self.bits == self.group.full_class_bits()


def class_of_element(g: GroupTable, x: int, symmetric: bool = False) -> ClassSet:
    """C(x), or C(x) union C(x^{-1}) for the symmetric variant."""
    return ClassSet(g, _class_bits(g, int(g.class_of[x]), symmetric))


def _class_bits(g: GroupTable, c: int, symmetric: bool) -> int:
    """Bitmask of class c, with its inverse class for the symmetric variant."""
    bits = 1 << c
    if symmetric:
        bits |= 1 << g.inverse_class(c)
    return bits


def class_product(a: ClassSet, b: ClassSet) -> ClassSet:
    """Exact product set a*b, again a union of classes.

    Read from the group's class structure rows (one whole-group product
    per class, cached as class bitmasks) of the side with fewer classes;
    conjugation invariance of both sides makes the support of those rows
    exactly the classes of the full product set.
    """
    if a.group is not b.group:
        raise GroupMismatch("class sets live over different groups")
    return ClassSet(a.group, a.group.class_set_product_bits(a.bits, b.bits))


def kfold_product(base: ClassSet, k: int) -> ClassSet:
    """Exact k-fold product base^k, k >= 1, read from the group's cached
    powers of base."""
    return ClassSet(base.group, base.group.class_set_power(base.bits, k))


@dataclass
class CoveringReport:
    element: str
    element_index: int
    symmetric: bool
    K: int | None
    m_checked: int
    property_holds: bool
    growth_trace: list[tuple[int, int]] = field(default_factory=list)
    reason: str | None = None


def resolve_m(g: GroupTable, x: int, m) -> int:
    """Powers to check: m = infinity means the order of the element."""
    if m == math.inf:
        return g.order_of(x)
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    return m


def _power_kfold_sets(
    g: GroupTable, x: int, m, k: int, symmetric: bool = False
) -> frozenset[int]:
    """Distinct class bitmasks of (C(x^i) [u C(x^-i)])^k over 1 <= i <= m.

    Powers wrap at o = o(x), so m >= o takes every position of the class
    power map of x.
    """
    c = int(g.class_of[x])
    powers = g.power_classes(c)
    n = min(resolve_m(g, x, m), len(powers))
    key = ("power_kfold", c, n, k, symmetric)
    got = g.cache.get(key)
    if got is None:
        bases = {_class_bits(g, p, symmetric) for p in powers[:n]}
        got = g.cache[key] = frozenset(g.class_set_power(b, k) for b in bases)
    return got


def covering_number(
    g: GroupTable, x: int, symmetric: bool = False, max_k: int | None = None
) -> CoveringReport:
    """Minimal K with (C(x))^K = G under the exact-product reading.

    Returns K = None when the class is trivial (x is the identity), when the
    normal closure of x is proper, when the growth becomes periodic without
    covering, or when max_k (default: the number of conjugacy classes) is
    exhausted.  The normal closure is the subgroup the class generates, the
    union of its powers, so it is read from the same cycle of powers.
    """
    label = g.element_label(x)

    def report(K, trace, reason):
        return CoveringReport(
            element=label,
            element_index=x,
            symmetric=symmetric,
            K=K,
            m_checked=1,
            property_holds=K is not None,
            growth_trace=trace,
            reason=reason,
        )

    if max_k is None:
        max_k = len(g.classes)
    if g.order == 1:
        return report(1, [(1, 1)], None)
    if x == 0:
        return report(None, [], "trivial class")
    full = g.full_class_bits()
    powers, start = g.class_set_powers(class_of_element(g, x, symmetric).bits)
    if reduce(int.__or__, powers) != full:
        return report(None, [], "proper normal closure")
    trace = []
    # the distinct powers, then the first repeat
    for k, bits in enumerate(powers + powers[start:start + 1], 1):
        trace.append((k, g.class_bits_size(bits)))
        if bits == full:
            return report(k, trace, None)
        if k > len(powers):
            return report(None, trace, "periodic growth without covering")
        if k >= max_k:
            return report(None, trace, "max_k exceeded")


def covering_property(
    g: GroupTable, x: int, K: int, m, symmetric: bool = False
) -> bool:
    """Whether (C(x^i))^K = G for every power 1 <= i <= m."""
    full = g.full_class_bits()
    return all(s == full for s in _power_kfold_sets(g, x, m, K, symmetric))


def double_covering_feasible(
    g: GroupTable, x: int, y: int, k1: int, m1, k2: int, m2
) -> bool:
    """Symmetric double covering: for all i <= m1, j <= m2,

        (C(x^i) u C(x^-i))^k1 * (C(y^j) u C(y^-j))^k2 = G.
    """
    full = g.full_class_bits()
    a_sets = _power_kfold_sets(g, x, m1, k1, symmetric=True)
    b_sets = _power_kfold_sets(g, y, m2, k2, symmetric=True)
    return all(g.class_set_product_bits(a, b) == full for a in a_sets for b in b_sets)


def covering_mod(
    g: GroupTable, n: NormalSubgroup, x: int, K: int, m, symmetric: bool = False
) -> bool:
    """covering_property computed in the quotient G/N for the image of x."""
    q = quotient(g, n)
    return covering_property(q, int(q.proj[x]), K, m, symmetric)


def double_covering_mod(
    g: GroupTable, n: NormalSubgroup, x: int, y: int, k1: int, m1, k2: int, m2
) -> bool:
    q = quotient(g, n)
    return double_covering_feasible(
        q, int(q.proj[x]), int(q.proj[y]), k1, m1, k2, m2
    )


@dataclass
class InflationReport:
    cosocle_classes: int
    factor: int
    mod_holds: bool
    lifted_holds: bool | None
    minimal_factor: int | None
    slack: int | None


def verify_cosocle_inflation(
    g: GroupTable, x: int, y: int, k1: int, m1, k2: int, m2
) -> InflationReport:
    """Check the cosocle inflation bound on one witness pair.

    If the symmetric double covering with (k1, m1), (k2, m2) holds modulo the
    cosocle, the same powers must cover absolutely once both exponents are
    multiplied by 3n - 2, where n is the number of whole-group conjugacy
    classes lying inside the cosocle.  The report also carries the smallest
    inflation factor that actually suffices, so the slack is visible; by
    monotonicity the bound holds exactly when that factor exists.
    """
    cos = cosocle(g)
    n = cos.num_classes
    factor = 3 * n - 2
    mod_holds = double_covering_mod(g, cos, x, y, k1, m1, k2, m2)
    minimal = None
    if mod_holds:
        minimal = next((f for f in range(1, factor + 1) if double_covering_feasible(
            g, x, y, f * k1, m1, f * k2, m2)), None)
    return InflationReport(
        cosocle_classes=n,
        factor=factor,
        mod_holds=mod_holds,
        lifted_holds=(minimal is not None) if mod_holds else None,
        minimal_factor=minimal,
        slack=None if minimal is None else factor - minimal,
    )


def product_witness_index(groups: list[GroupTable], idxs: list[int]) -> int:
    """Element index of a witness tuple inside reduce(direct_product, groups)."""
    out = idxs[0]
    for g, i in zip(groups[1:], idxs[1:]):
        out = out * g.order + i
    return out


def verify_product_preservation(
    witnessed: list[tuple[GroupTable, int, int]], k1: int, m1, k2: int, m2
) -> bool:
    """Symmetric double covering parameters transfer to a direct product.

    Each entry of witnessed is (group, x, y).  Verifies the parameters on
    every factor, then builds the direct product and re-verifies the same
    parameters on the tuple witnesses.  Returns False as soon as any factor
    fails.
    """
    if not witnessed:
        raise ValueError("at least one factor is required")
    for g, x, y in witnessed:
        if not double_covering_feasible(g, x, y, k1, m1, k2, m2):
            return False
    groups = [g for g, _, _ in witnessed]
    prod = reduce(direct_product, groups)
    xt = product_witness_index(groups, [x for _, x, _ in witnessed])
    yt = product_witness_index(groups, [y for _, _, y in witnessed])
    return double_covering_feasible(prod, xt, yt, k1, m1, k2, m2)
