"""Seeded query lists for the three benchmark workloads.

Nothing here imports qrg: the program under test receives only the argv
lists built below.  Group orders come from closed forms, elements of
permutation groups are drawn as seeded conjugates of a fixed cycle type,
SL2 elements as seeded matrices of a fixed trace, and matrix invertibility
is checked by a determinant written here.  Fixing the conjugacy class while
the seed picks the element keeps the work per query steady across seeds,
so run-to-run spread measures the program and not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

@dataclass
class Query:
    argv: list[str]
    kind: str
    # Facts the output checks compare against, computed without qrg.
    expect: dict = field(default_factory=dict)
    # Elements the query's group builds enumerate, from closed forms.
    enumerated: int = 0


# -- closed-form group orders -------------------------------------------------


def _sl_order(n: int, q: int) -> int:
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q**i - 1
    return out


def _sp_order(n: int, q: int) -> int:
    m = n // 2
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def _split_prod(spec: str) -> tuple[str, str]:
    inner = spec[len("prod(") : -1]
    depth = 0
    for i, ch in enumerate(inner):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            return inner[:i], inner[i + 1 :]
    raise ValueError(f"malformed product spec {spec!r}")


def group_order(spec: str) -> int:
    """|G| for the specs this benchmark generates."""
    if spec.startswith("prod("):
        left, right = _split_prod(spec)
        return group_order(left) * group_order(right)
    if spec.startswith("PSL2:"):
        p = int(spec[5:])
        return _sl_order(2, p) // math.gcd(2, p - 1)
    for fam, fn in (("SL", _sl_order), ("Sp", _sp_order)):
        if spec.startswith(fam):
            n, p = spec[len(fam) :].split(":")
            return fn(int(n), int(p))
    fam, n = spec[0], int(spec[1:])
    return {"A": math.factorial(n) // 2, "S": math.factorial(n), "C": n, "D": 2 * n}[fam]


def _radical(n: int) -> int:
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            out *= p
            while n % p == 0:
                n //= p
        p += 1
    return out


def cosocle_order(spec: str) -> int:
    """Order of the intersection of the maximal normal subgroups.

    Covers the specs generated here: A_n, PSL2(p) and SL3(3) are simple;
    S_n (n >= 5) has A_n as its only maximal normal subgroup; SL2(p) (p >= 5)
    and Sp4(3) have their center {+-I}; C_n has the subgroup of index rad(n); D_n (order 2n)
    has the rotations by even steps for even n and all rotations for odd n;
    the factors of each product share no simple quotient, so the product's
    cosocle is the product of theirs.
    """
    if spec.startswith("prod("):
        left, right = _split_prod(spec)
        return cosocle_order(left) * cosocle_order(right)
    if spec.startswith(("PSL2:", "SL3:3")) or spec[0] == "A":
        return 1
    if spec.startswith(("SL2:", "Sp4:3")):
        return 2
    fam, n = spec[0], int(spec[1:])
    if fam == "S":
        return math.factorial(n) // 2
    if fam == "C":
        return n // _radical(n)
    if fam == "D":
        return n // 2 if n % 2 == 0 else n
    raise ValueError(f"no closed-form cosocle for {spec!r}")


def enumerated_order(spec: str) -> int:
    """Elements enumerated to build spec: PSL2 enumerates SL2, a product
    enumerates both factors and is never enumerated itself."""
    if spec.startswith("prod("):
        left, right = _split_prod(spec)
        return enumerated_order(left) + enumerated_order(right)
    if spec.startswith("PSL2:"):
        return _sl_order(2, int(spec[5:]))
    return group_order(spec)


# -- elements -----------------------------------------------------------------


def _conjugate_of_type(rng: random.Random, degree: int, lengths) -> str:
    """Cycle string of a random permutation of the given cycle type."""
    points = list(range(1, degree + 1))
    rng.shuffle(points)
    cycles = []
    at = 0
    for ln in lengths:
        cycles.append("(" + " ".join(str(x) for x in points[at : at + ln]) + ")")
        at += ln
    return "".join(cycles)


def _sl2_of_trace(rng: random.Random, p: int, trace: int) -> str:
    """mat: literal of a random det-1 matrix with the given trace mod p.

    For trace != +-2 these form a single SL2(p) conjugacy class.
    """
    a = rng.randrange(p)
    d = (trace - a) % p
    b = rng.randrange(1, p)
    c = ((a * d - 1) * pow(b, -1, p)) % p
    if (a * d - b * c) % p != 1:
        raise AssertionError("generated matrix is not in SL2")
    return f"mat:p={p}:[[{a},{b}],[{c},{d}]]"


def det_mod_p(rows, p: int) -> int:
    rows = [[x % p for x in row] for row in rows]
    n = len(rows)
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for i in range(col + 1, n):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[col])]
    return det % p


def _random_invertible(rng: random.Random, n: int, p: int):
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if det_mod_p(rows, p):
            return rows


def _matrix_literal(rows, p: int) -> str:
    return f"mat:p={p}:[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"


def two_prime_split(n: int, p: int, q: int):
    """(a, b) with a*p + b*q = n, a, b >= 1, max(a, b) >= 2 and a minimal."""
    for a in range(1, n // p + 1):
        rem = n - a * p
        if rem >= q and rem % q == 0 and max(a, rem // q) >= 2:
            return a, rem // q
    return None


# -- workloads ----------------------------------------------------------------


def _group_query(kind: str, spec: str, argv: list[str], **expect) -> Query:
    return Query(
        argv=argv,
        kind=kind,
        expect={"spec": spec, "order": group_order(spec),
                "cosocle_order": cosocle_order(spec), **expect},
        enumerated=enumerated_order(spec),
    )


# Catalog groups.  Sp4:3 is a covering query because its full analyze takes
# about half a minute.  A9, SL2:19-29 and prod(A5,A6) are left out so that
# one pass stays under 20 s on a 2-CPU box: PSL2:31 (which enumerates
# SL2:31) and Sp4:3 cover the largest matrix groups, A8 the permutation
# path, and small-groups has a direct product.
CATALOG_ANALYZE = ("A8", "S7", "SL2:17", "PSL2:31", "SL3:3")
CATALOG_COVERING = ("Sp4:3",)


def catalog(seed: int) -> list[Query]:
    rng = random.Random(seed)
    out = [_group_query("analyze", s, ["analyze", s]) for s in CATALOG_ANALYZE]
    for spec in CATALOG_COVERING:
        idx = rng.randrange(1, group_order(spec))
        out.append(
            _group_query("covering", spec, ["covering", spec, "--element", f"idx:{idx}"])
        )
    return out


# (spec, degree of the permutation action or None, element recipes, whether
# a mod-cosocle covering query runs).  A recipe is a cycle type for
# permutation groups, a trace for SL2, a fixed element for PSL2, or None for
# an idx: element drawn from the seed.  PSL2 groups are quotients, which take
# only idx: elements, and a seeded index would change the element's class,
# and with it the query's cost, from seed to seed; D12 and the product keep
# seeded indices because their queries cost a few milliseconds.  S7 has no
# mod-cosocle query: its quotient path alone takes about 1.7 s, and S5 and
# S6 exercise the same C2 quotient.
_SMALL = (
    ("A5", 5, [(5,), (3,)], True),
    ("A6", 6, [(3, 3), (4, 2)], True),
    ("A7", 7, [(7,), (3, 2, 2)], True),
    ("S5", 5, [(5,), (2,)], True),
    ("S6", 6, [(6,), (2, 2, 2)], True),
    ("S7", 7, [(7,), (3, 2, 2)], False),
    ("SL2:5", None, [0, 4], True),
    ("SL2:7", None, [0, 3], True),
    ("SL2:11", None, [0, 5], True),
    ("SL2:13", None, [0, 4], True),
    ("PSL2:7", None, ["idx:1", "idx:5"], True),
    ("PSL2:11", None, ["idx:1", "idx:5"], True),
    ("D12", None, [None, None], True),
    ("prod(A5,C3)", None, [None, None], True),
)
# Mixing needs the dense table, which exists up to order 4096; these stay
# well below it so a trial costs milliseconds.
_MIXING = ("A5", "A6", "S5", "S6", "SL2:5", "SL2:7", "PSL2:7", "PSL2:11", "D12", "prod(A5,C3)")
_SUITES = ("preservation", "brenner", "bcc")
_SUITE_BUILDS = {
    "preservation": ("A5",),
    "brenner": ("A6", "A7", "A8"),
    "bcc": ("SL2:5", "SL2:7"),
}


def _element(rng: random.Random, spec: str, degree, recipe) -> str:
    if degree is not None:
        return _conjugate_of_type(rng, degree, recipe)
    if isinstance(recipe, str):
        return recipe
    if recipe is not None:
        return _sl2_of_trace(rng, int(spec.split(":")[1]), recipe)
    return f"idx:{rng.randrange(1, group_order(spec))}"


def small_groups(seed: int) -> list[Query]:
    rng = random.Random(seed)
    out = []
    for spec, degree, recipes, mod_cosocle in _SMALL:
        out.append(_group_query("analyze", spec, ["analyze", spec]))
        out.append(_group_query("degree", spec, ["degree", spec]))
        for recipe in recipes:
            elt = _element(rng, spec, degree, recipe)
            base = ["covering", spec, "--element", elt]
            out.append(_group_query("covering", spec, base))
            out.append(_group_query("covering", spec, base + ["--symmetric"]))
        if mod_cosocle:
            elt = _element(rng, spec, degree, recipes[0])
            out.append(_group_query("covering", spec, ["covering", spec, "--element", elt, "--mod-cosocle"]))
        elt = _element(rng, spec, degree, recipes[-1])
        k = str(rng.choice((2, 3, 4)))
        out.append(
            _group_query(
                "covering-assert", spec, ["covering", spec, "--element", elt, "--K", k, "--m", "inf"]
            )
        )
    for spec in _MIXING:
        argv = ["mixing", spec, "--alpha", "1/2", "--eps1", "0.1", "--eps2", "0.1",
                "--trials", "2", "--seed", str(rng.randrange(1 << 30))]
        out.append(_group_query("mixing", spec, argv, trials=2))
    for suite in _SUITES:
        out.append(
            Query(
                argv=["verify", suite],
                kind="verify",
                enumerated=sum(enumerated_order(s) for s in _SUITE_BUILDS[suite]),
            )
        )
    rng.shuffle(out)
    return out


_JORDAN_PRIMES = (2, 3, 5, 7, 11, 13)
_JORDAN_SIZES = range(1, 9)
_JORDAN_PER_CELL = 31  # 8 sizes x 6 primes x 31 = 1488 matrices
_WITNESS_FIELDS = (2, 3, 5, 7, 11, 13)
_WITNESS_BANDS = ((17, 24), (25, 32), (33, 40), (41, 48))
_WITNESS_PER_CELL = 8  # 6 fields x 4 bands x 8 = 192 witnesses


def matrices(seed: int) -> list[Query]:
    rng = random.Random(seed)
    out = []
    for n in _JORDAN_SIZES:
        for p in _JORDAN_PRIMES:
            for _ in range(_JORDAN_PER_CELL):
                rows = _random_invertible(rng, n, p)
                out.append(
                    Query(
                        argv=["jordan", "--matrix", _matrix_literal(rows, p)],
                        kind="jordan-matrix",
                        expect={"rows": rows, "p": p},
                    )
                )
    for f in _WITNESS_FIELDS:
        for lo, hi in _WITNESS_BANDS:
            feasible = [n for n in range(lo, hi + 1) if two_prime_split(n, 5, 7)]
            for _ in range(_WITNESS_PER_CELL):
                n = rng.choice(feasible)
                a, b = two_prime_split(n, 5, 7)
                out.append(
                    Query(
                        argv=["jordan", "--n", str(n), "--p", "5", "--q", "7", "--field", str(f)],
                        kind="jordan-witness",
                        expect={"n": n, "a": a, "b": b},
                    )
                )
    for pad in (0, 1, 2, 0, 1, 2):
        degree = rng.randrange(3, 9)
        images = list(range(degree))
        rng.shuffle(images)
        if _parity(images):
            images[0], images[1] = images[1], images[0]
        f = rng.choice(_JORDAN_PRIMES)
        out.append(
            Query(
                argv=["construct", "embed", "--perm", _cycle_string(images),
                      "--pad", str(pad), "--field", str(f)],
                kind="construct-embed",
                expect={"images": images, "pad": pad, "p": f},
            )
        )
    for d in (1, 2, 3, 4, 5):
        out.append(
            Query(
                argv=["verify", "axioms", "--D", str(d), "--samples", "60",
                      "--seed", str(rng.randrange(1 << 30))],
                kind="verify",
            )
        )
    for d in (2, 3, 3, 4, 4):
        out.append(
            Query(
                argv=["verify", "mustexp", "--D", str(d), "--samples", "15",
                      "--seed", str(rng.randrange(1 << 30))],
                kind="verify",
            )
        )
    rng.shuffle(out)
    return out


def _parity(images) -> int:
    seen = [False] * len(images)
    swaps = 0
    for start in range(len(images)):
        ln = 0
        pt = start
        while not seen[pt]:
            seen[pt] = True
            pt = images[pt]
            ln += 1
        swaps += max(ln - 1, 0)
    return swaps % 2


def _cycle_string(images) -> str:
    """Cycle notation with 1-based points and an explicit degree."""
    seen = [False] * len(images)
    cycles = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cyc = []
        pt = start
        while not seen[pt]:
            seen[pt] = True
            cyc.append(str(pt + 1))
            pt = images[pt]
        cycles.append("(" + " ".join(cyc) + ")")
    return ("".join(cycles) or "()") + f" degree={len(images)}"


GENERATORS = {"catalog": catalog, "small-groups": small_groups, "matrices": matrices}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Query]:
    return GENERATORS[workload](seed)
