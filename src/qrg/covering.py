"""Covering numbers and covering properties of conjugacy classes.

All product sets here are unions of conjugacy classes, stored as class
bitmasks on a GroupTable.  Products are exact k-fold products (no identity
padding): S^k means S * S * ... * S with k factors.  The symmetric variant
replaces a class C by C union C^{-1}.  K-fold products and covering numbers
are read from the group's powers S, S^2, ... of a class set, formed until
they first repeat and cycling after, so a huge k is read off by the period.

Covering properties over a power range 1 <= i <= m are decided on the
distinct classes of the powers x^i, read from the group's class power map:
the class of x^i depends only on the class of x and on i mod o(x), so
mask[x, m, c] marks the classes among the first min(m, o(x)) powers.  Each
base power (C(c) [u C(c)^-1])^k gets an id in a short list D of distinct
class sets, which many (c, k) share.  The double covering is one bool grid
feasible[x, m1, k1, y, m2, k2]: a matrix over D says which products
D[i] * D[j] fall short of G, and a cell is infeasible iff some class in its
x-mask and some class in its y-mask have such a product, two bool matmuls
over the masks.  Each request builds its own grid over the classes, m and
k its two sides ask for, and a single check is its 1 x 1 case.

The cosocle inflation check relies on monotonicity: A^a * B^b = G gives
A^(a+i) * B^(b+j) = A^i * G * B^j = G, so along the axis f = 1, 2, ... the
double covering at f * k1, f * k2 never turns false once true.  It holds at
the inflation factor iff it holds for some smaller f, and the least such f
is the first true cell on that axis: one grid over the exponents f * k,
read where both sides have the same f.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .engine import GroupTable, cosocle, quotient


def _class_bits(g: GroupTable, c: int, symmetric: bool) -> int:
    """Bitmask of class c, with its inverse class for the symmetric variant."""
    bits = 1 << c
    if symmetric:
        bits |= 1 << int(g.class_inverses[c])
    return bits


@dataclass
class CoveringReport:
    symmetric: bool
    K: int | None
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


def _power_sets(g: GroupTable, xs, ms, ks, symmetric: bool):
    """One side of a covering grid: mask[x, m, c], ids[c, k] and sets.

    mask[x, m, c] says whether class c is among the classes of x^i for
    1 <= i <= min(m, o(x)), read from the class power map of x; only the
    classes met by some row are kept, in ascending order.  ids[c, k] is the
    position in sets, the distinct class bitmasks in order of first
    appearance, of the base power (C(c) [u C(c)^-1])^k.
    """
    mask = np.zeros((len(xs), len(ms), len(g.classes)), dtype=bool)
    # each power map is read off its class's structure row: walk them all at once
    g.class_structure_rows(sorted({int(g.class_of[x]) for x in xs} - {0}))
    for a, x in enumerate(xs):
        powers = list(g.power_classes(int(g.class_of[x])))
        for b, m in enumerate(ms):
            mask[a, b, powers[: resolve_m(g, x, m)]] = True
    cs = np.flatnonzero(mask.any(axis=(0, 1)))
    index: dict[int, int] = {}
    ids = [
        index.setdefault(g.class_set_power(_class_bits(g, c, symmetric), k), len(index))
        for c in cs.tolist() for k in ks
    ]
    return mask[:, :, cs], np.array(ids, dtype=np.intp).reshape(len(cs), len(ks)), list(index)


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
    def report(K, trace, reason):
        return CoveringReport(
            symmetric=symmetric,
            K=K,
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
    powers, start = g.class_set_powers(_class_bits(g, int(g.class_of[x]), symmetric))
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
    return all(s == full for s in _power_sets(g, [x], [m], [K], symmetric)[2])


def double_covering_grid(g: GroupTable, xs, ms1, ks1, ys, ms2, ks2) -> np.ndarray:
    """feasible[x, m1, k1, y, m2, k2] of the symmetric double covering

        (C(x^i) u C(x^-i))^k1 * (C(y^j) u C(y^-j))^k2 = G for all i <= m1, j <= m2

    over every combination of the given elements, power ranges and
    exponents, read from one grid over the classes, m and k both sides ask
    for.
    """
    class_of = g.class_of
    side1 = list(itertools.product(class_of[xs].tolist(), ms1, ks1))
    side2 = list(itertools.product(class_of[ys].tolist(), ms2, ks2))
    axes = [list(dict.fromkeys(vs)) for vs in zip(*side1, *side2)]
    pos = {cell: i for i, cell in enumerate(itertools.product(*axes))}
    grid = _grid(g, *axes)[np.ix_([pos[c] for c in side1], [pos[c] for c in side2])]
    return grid.reshape(len(xs), len(ms1), len(ks1), len(ys), len(ms2), len(ks2))


def double_covering_feasible(
    g: GroupTable, x: int, y: int, k1: int, m1, k2: int, m2
) -> bool:
    """The 1 x 1 case of double_covering_grid."""
    return bool(double_covering_grid(g, [x], [m1], [k1], [y], [m2], [k2]).item())


def _grid(g: GroupTable, cs, ms, ks) -> np.ndarray:
    """feasible[(c1, m1, k1), (c2, m2, k2)] over classes cs on both sides.

    A cell is infeasible iff some class a in its first mask and b in its
    second have base powers a^k1, b^k2 whose product falls short of G: one
    bool matrix over the distinct base powers, read through their ids and
    reduced over both masks by two bool matmuls.
    """
    mask, ids, sets = _power_sets(g, [g.classes[c].rep for c in cs], ms, ks, True)
    full = g.full_class_bits()
    short = np.array([[g.class_set_product_bits(a, b) != full for b in sets] for a in sets])
    n, k = ids.shape
    # (c1 m1, a) @ (a, k1 b k2), then (c1 m1 k1, k2, b) @ (b, c2 m2)
    hit = mask.reshape(-1, n) @ short[ids[:, :, None, None], ids].reshape(n, -1)
    hit = hit.reshape(-1, n, k).swapaxes(1, 2) @ mask.reshape(-1, n).T
    return ~hit.swapaxes(1, 2).reshape(len(hit), -1)


def inflation_factor(cosocle_classes: int) -> int:
    """3n - 2, n the number of whole-group conjugacy classes lying inside
    the cosocle: the factor on both exponents of a symmetric double
    covering that holds modulo the cosocle, under which it must hold
    absolutely."""
    return 3 * cosocle_classes - 2


def cosocle_inflation(g: GroupTable, xs, ms1, ks1, ys, ms2, ks2):
    """(factor, mod, minimal) of the cosocle inflation over a grid of pairs.

    mod[x, m1, k1, y, m2, k2] is the symmetric double covering modulo the
    cosocle, and minimal the least f <= factor at which it holds in G with
    both exponents multiplied by f, or 0 where none does.  If a cell holds
    modulo the cosocle, it must hold in G at the inflation factor, which by
    monotonicity is minimal > 0.
    """
    cos = cosocle(g)
    factor = inflation_factor(cos.num_classes)
    q = quotient(g, cos)
    mod = double_covering_grid(q, q.proj[xs], ms1, ks1, q.proj[ys], ms2, ks2)
    fks1, fks2 = ([f * k for f in range(1, factor + 1) for k in ks] for ks in (ks1, ks2))
    lifted = double_covering_grid(g, xs, ms1, fks1, ys, ms2, fks2).reshape(
        len(xs), len(ms1), factor, len(ks1), len(ys), len(ms2), factor, len(ks2))
    # the cells with the same f on both sides, f last
    lifted = np.diagonal(lifted, axis1=2, axis2=6)
    return factor, mod, np.where(lifted.any(axis=-1), lifted.argmax(axis=-1) + 1, 0)


def product_witness_index(groups: list[GroupTable], idxs: list[int]) -> int:
    """Element index of a witness tuple inside reduce(direct_product, groups)."""
    out = idxs[0]
    for g, i in zip(groups[1:], idxs[1:]):
        out = out * g.order + i
    return out
