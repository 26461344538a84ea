"""One abstract group on different carriers gives the same answers.

Each set below is one group up to isomorphism, built as permutations, as
matrices, as a direct product with the trivial group, or as a quotient
(the exceptional isomorphisms of the ATLAS of Finite Groups, Conway et al.
1985).  Element numbering differs between carriers, so only invariants that
do not depend on it are compared.
"""

from collections import Counter

import numpy as np
import pytest

from qrg import chars, covering, engine
from qrg.groupspec import build_group, parse_spec


def invariants(g):
    """Numbering-free invariants: the multiset of (class size, element
    order, sizes of the classes of x, x^2, ..., x^o, covering number K of
    the class and of the class with its inverses), the multiset of double
    coverings over every pair of classes for m and k in 1..2, each keyed by
    the (class size, element order) of both classes, the derived subgroup's
    order, the orders of the normal-subgroup lattice, of the cosocle and of
    the center, and the character degrees."""
    sizes = g.class_sizes.tolist()
    classes = Counter(
        (
            c.size,
            g.order_of(c.rep),
            tuple(sizes[k] for k in g.power_classes(c.index)),
            covering.covering_number(g, c.rep).K,
            covering.covering_number(g, c.rep, symmetric=True).K,
        )
        for c in g.classes
    )
    reps = [c.rep for c in g.classes]
    kinds = [(c.size, g.order_of(c.rep)) for c in g.classes]
    grid = covering.double_covering_grid(g, reps, (1, 2), (1, 2), reps, (1, 2), (1, 2))
    double = Counter(
        (kinds[x], m1 + 1, k1 + 1, kinds[y], m2 + 1, k2 + 1, bool(v))
        for (x, m1, k1, y, m2, k2), v in np.ndenumerate(grid)
    )
    return {
        "order": g.order,
        "classes": classes,
        "double": double,
        "derived": engine.commutator_subgroup(g).order,
        "lattice": [n.order for n in engine.normal_subgroups(g)],
        "cosocle": engine.cosocle(g).order,
        "center": engine.center(g).order,
        "degrees": sorted(chars.character_degrees(g, cap=g.order).degrees),
    }


@pytest.mark.parametrize(
    "specs, degrees",
    [
        (("A5", "PSL2:5", "prod(C1,A5)"), [1, 3, 3, 4, 5]),
        (("PSL2:7", "SL3:2"), [1, 3, 3, 6, 7, 8]),
        (("S6", "Sp4:2"), [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]),
        (("SL2:5", "prod(C1,SL2:5)"), [1, 2, 2, 3, 3, 4, 4, 5, 6]),
        (("A8", "SL4:2"), [1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64, 70]),
    ],
    ids=["A5", "PSL2:7", "S6", "SL2:5", "A8"],
)
def test_isomorphic_carriers_share_invariants(specs, degrees):
    groups = [build_group(parse_spec(s)) for s in specs]
    assert len({g.kind for g in groups}) == len(groups)
    want, *others = (invariants(g) for g in groups)
    assert want["degrees"] == degrees
    for got in others:
        assert got == want
