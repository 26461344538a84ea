"""Permutations on {0, ..., n-1} with cycle-type predicates.

The group engine composes permutations as (p * q)(x) = p(q(x)), i.e. q
acts first, and carries each one as its inverse images, since
x -> p^-1(x) is then a right action; Permutation itself carries no
arithmetic.
Textual cycle notation is 1-indexed, as in "(1 2 3)(4 5) degree=6".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError


class OddPermutation(ValueError):
    """Raised where a predicate or construction is only defined for even input."""


@dataclass(frozen=True)
class CycleType:
    """Cycle lengths in descending order, fixed points included as 1-cycles."""

    lengths: tuple[int, ...]
    fixed_points: int
    parity: str  # "even" or "odd"

    @property
    def is_even(self) -> bool:
        return self.parity == "even"


class Permutation:
    """Immutable bijection of {0, ..., degree-1}, stored as an image tuple."""

    __slots__ = ("degree", "images", "_hash")

    def __init__(self, images):
        imgs = tuple(int(x) for x in images)
        n = len(imgs)
        if sorted(imgs) != list(range(n)):
            raise ValueError(f"images {imgs!r} are not a bijection of 0..{n - 1}")
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_hash", hash(imgs))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build from disjoint cycles of 0-indexed points."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                if pt in seen:
                    raise ValueError(f"point {pt} appears in two cycles")
                seen.add(pt)
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest point, sorted by that point."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            pt = self.images[start]
            while pt != start:
                seen[pt] = True
                cyc.append(pt)
                pt = self.images[pt]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> CycleType:
        all_cycles = self.cycles(include_fixed=True)
        lengths = tuple(sorted((len(c) for c in all_cycles), reverse=True))
        fixed = sum(1 for c in all_cycles if len(c) == 1)
        # even iff degree minus number of cycles is even
        parity = "even" if (self.degree - len(all_cycles)) % 2 == 0 else "odd"
        return CycleType(lengths=lengths, fixed_points=fixed, parity=parity)

    def is_even(self) -> bool:
        return self.cycle_type().parity == "even"

    def is_fixed_point_free(self) -> bool:
        return all(self.images[i] != i for i in range(self.degree))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Permutation({cycle_string(self)!r})"


def is_exceptional(p: Permutation) -> bool:
    """Whether all cycle lengths (1-cycles included) are odd and pairwise distinct.

    Only defined for even permutations; odd input raises OddPermutation.
    """
    ct = p.cycle_type()
    if ct.parity != "even":
        raise OddPermutation("exceptionality is only defined for even permutations")
    lengths = ct.lengths
    return all(ln % 2 == 1 for ln in lengths) and len(set(lengths)) == len(lengths)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_DEGREE_RE = re.compile(r"degree=(\d+)")


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-indexed cycle notation like "(1 2 3)(4 5) degree=6".

    The degree=<n> suffix is mandatory unless a degree is supplied by the
    caller.  Overlapping cycles are rejected.
    """
    s = text.strip()
    m = _DEGREE_RE.search(s)
    if m:
        deg = int(m.group(1))
        if degree is not None and deg != degree:
            raise ParseError(
                f"declared degree {deg} conflicts with expected degree {degree}",
                pos=m.start(),
            )
        degree = deg
        cycles_part = s[: m.start()]
        trailing = s[m.end() :]
        if trailing.strip():
            raise ParseError(
                "unexpected text after degree", pos=m.end(), expected={"end of input"}
            )
    else:
        if degree is None:
            raise ParseError(
                "missing mandatory degree=<n> suffix",
                pos=len(text),
                expected={"degree=<n>"},
            )
        cycles_part = s
    cycles_part = cycles_part.strip().rstrip(";").rstrip(",").strip()

    cycles = []
    pos = 0
    for m in _CYCLE_RE.finditer(cycles_part):
        between = cycles_part[pos : m.start()]
        if between.strip():
            raise ParseError(
                f"unexpected text {between.strip()!r} between cycles",
                pos=pos,
                expected={"("},
            )
        body = m.group(1).strip()
        if body:
            try:
                pts = [int(tok) for tok in body.split()]
            except ValueError:
                raise ParseError(
                    "cycle entries must be whitespace-separated integers",
                    pos=m.start(1),
                    expected={"integer"},
                ) from None
            for pt in pts:
                if not 1 <= pt <= degree:
                    raise ParseError(
                        f"point {pt} outside 1..{degree}", pos=m.start(1)
                    )
            cycles.append(tuple(pt - 1 for pt in pts))
        pos = m.end()
    tail = cycles_part[pos:]
    if tail.strip():
        raise ParseError(
            f"unexpected text {tail.strip()!r}", pos=pos, expected={"(", "degree=<n>"}
        )
    flat = [pt for cyc in cycles for pt in cyc]
    if len(flat) != len(set(flat)):
        dup = next(pt for pt in flat if flat.count(pt) > 1)
        raise ParseError(f"point {dup + 1} appears in two cycles", pos=0)
    return Permutation.from_cycles(cycles, degree)


def cycle_string(p: Permutation, with_degree: bool = True) -> str:
    """Render in 1-indexed cycle notation; inverse of parse_cycles."""
    cycs = p.cycles()
    body = "".join("(" + " ".join(str(pt + 1) for pt in cyc) + ")" for cyc in cycs)
    if not body:
        body = "()"
    if with_degree:
        return f"{body} degree={p.degree}"
    return body
