"""Text specs for catalog groups: parsing, rendering, and construction.

Grammar:

    spec  := "prod(" spec "," spec ")"
           | "perm:" cycles ";degree=" int [ ";gens=" cycles ("|" cycles)* ]
           | "PSL2:" prime
           | ("SL" | "Sp") int ":" prime
           | ("A" | "S" | "C" | "D") int

Cycle notation is 1-indexed, as in "(1 2 3)(4 5)", and read as in element
strings (permutations.take_cycles); other whitespace may come only before
and after the spec.  Error offsets count from the start of the text as
typed.  D<n> is the dihedral group of order 2n; C<n> and D<n> need n >= 1,
while A0 and S0 are the trivial group.  render(parse(s)) is canonical:
parsing its output reproduces the same AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .engine import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    center,
    direct_product,
    enumerate_group,
    quotient,
)
from .errors import Cursor, ParseError
from .gf import PrimeField, classical_generators, is_prime
from .permutations import Permutation, cycle_string, cycles_permutation, take_cycles


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    p: int | None = None


@dataclass(frozen=True)
class PermGroupSpec:
    degree: int
    gens: tuple[Permutation, ...]


@dataclass(frozen=True)
class ProdSpec:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[FamilySpec, PermGroupSpec, ProdSpec]


def _parse_spec(cur: Cursor) -> GroupSpec:
    if cur.accept("prod("):
        left = _parse_spec(cur)
        cur.take(",")
        right = _parse_spec(cur)
        cur.take(")")
        return ProdSpec(left, right)
    if cur.accept("perm:"):
        gens = [_take_gen(cur)]
        cur.take(";degree=", expected=";degree=<n>")
        degree = cur.take_int("degree")
        if cur.accept(";gens="):
            gens.append(_take_gen(cur))
            while cur.accept("|"):
                gens.append(_take_gen(cur))
        return PermGroupSpec(degree, tuple(cycles_permutation(c, degree) for c in gens))
    if cur.accept("PSL2:"):
        return FamilySpec("PSL2", 2, _take_prime(cur))
    for fam in ("SL", "Sp"):
        if cur.accept(fam):
            n = cur.take_int("matrix size")
            cur.take(":", expected=":<p>")
            return FamilySpec(fam, n, _take_prime(cur))
    for fam in "ASCD":
        if cur.accept(fam):
            at = cur.pos
            n = cur.take_int("index")
            if n == 0 and fam in "CD":
                raise ParseError(f"{fam}<n> needs n >= 1", pos=at, expected={"positive integer"})
            return FamilySpec(fam, n)
    raise ParseError(
        "unrecognized group spec",
        pos=cur.pos,
        expected={"A<n>", "S<n>", "C<n>", "D<n>", "SL<n>:<p>", "PSL2:<p>", "Sp<n>:<p>", "perm:", "prod("},
    )


def _take_gen(cur: Cursor) -> list:
    at = cur.pos
    cycles = take_cycles(cur)
    if not cycles:
        raise ParseError("expected cycle notation", pos=at, expected={"(…)"})
    return cycles


def _take_prime(cur: Cursor) -> int:
    at = cur.pos
    p = cur.take_int("prime characteristic")
    if not is_prime(p):
        raise ParseError(f"{p} is not prime", pos=at, expected={"prime"})
    return p


def parse_spec(text: str) -> GroupSpec:
    cur = Cursor(text)
    cur.skip_space()
    spec = _parse_spec(cur)
    cur.finish("trailing characters after spec")
    return spec


def render_spec(spec: GroupSpec) -> str:
    if isinstance(spec, ProdSpec):
        return f"prod({render_spec(spec.left)},{render_spec(spec.right)})"
    if isinstance(spec, PermGroupSpec):
        head = cycle_string(spec.gens[0], with_degree=False)
        out = f"perm:{head};degree={spec.degree}"
        if len(spec.gens) > 1:
            rest = "|".join(cycle_string(g, with_degree=False) for g in spec.gens[1:])
            out += f";gens={rest}"
        return out
    if spec.p is None:
        return f"{spec.family}{spec.n}"
    if spec.family == "PSL2":
        return f"PSL2:{spec.p}"
    return f"{spec.family}{spec.n}:{spec.p}"


def _alternating_gens(n: int) -> list[Permutation]:
    if n <= 2:
        return [Permutation.identity(max(n, 1))]
    if n == 3:
        return [Permutation.from_cycles([(0, 1, 2)], 3)]
    three = Permutation.from_cycles([(0, 1, 2)], n)
    if n % 2 == 1:
        big = Permutation.from_cycles([tuple(range(n))], n)
    else:
        big = Permutation.from_cycles([tuple(range(1, n))], n)
    return [three, big]


def _symmetric_gens(n: int) -> list[Permutation]:
    if n <= 1:
        return [Permutation.identity(max(n, 1))]
    if n == 2:
        return [Permutation.from_cycles([(0, 1)], 2)]
    return [
        Permutation.from_cycles([(0, 1)], n),
        Permutation.from_cycles([tuple(range(n))], n),
    ]


def _dihedral_gens(n: int) -> list[Permutation]:
    # Degenerate ranks are realized on extra points so the orders come
    # out as 2n rather than collapsing.
    if n == 1:
        return [Permutation.from_cycles([(0, 1)], 2)]
    if n == 2:
        return [
            Permutation.from_cycles([(0, 1)], 4),
            Permutation.from_cycles([(2, 3)], 4),
        ]
    rot = Permutation.from_cycles([tuple(range(n))], n)
    ref = Permutation([(n - i) % n for i in range(n)])
    return [rot, ref]


def build_group(spec: GroupSpec, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Construct the GroupTable a spec describes."""
    if isinstance(spec, ProdSpec):
        left = build_group(spec.left, cap=cap)
        right = build_group(spec.right, cap=cap)
        g = direct_product(left, right, cap=cap)
        g.label = render_spec(spec)
        return g
    if isinstance(spec, PermGroupSpec):
        g = enumerate_group(spec.gens, cap=cap)
        g.label = render_spec(spec)
        return g
    fam, n, p = spec.family, spec.n, spec.p
    if fam == "A":
        g = enumerate_group(_alternating_gens(n), cap=cap)
    elif fam == "S":
        g = enumerate_group(_symmetric_gens(n), cap=cap)
    elif fam == "C":
        if n == 1:
            g = enumerate_group([Permutation.identity(1)], cap=cap)
        else:
            g = enumerate_group([Permutation.from_cycles([tuple(range(n))], n)], cap=cap)
    elif fam == "D":
        g = enumerate_group(_dihedral_gens(n), cap=cap)
    elif fam in ("SL", "Sp"):
        g = enumerate_group(classical_generators(fam, n, PrimeField(p), cap=cap), cap=cap)
    elif fam == "PSL2":
        sl2 = enumerate_group(classical_generators("SL", 2, PrimeField(p), cap=cap), cap=cap)
        z = center(sl2)
        g = sl2 if z.order == 1 else quotient(sl2, z)
    else:
        raise ParseError(f"unknown family {fam!r}")
    g.label = render_spec(spec)
    return g
