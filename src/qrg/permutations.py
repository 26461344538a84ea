"""Permutations on {0, ..., n-1} with cycle-type predicates.

The group engine composes permutations as (p * q)(x) = p(q(x)), i.e. q
acts first, and carries each one as its inverse images, since
x -> p^-1(x) is then a right action; Permutation itself carries no
arithmetic.
Textual cycle notation is 1-indexed, as in "(1 2 3)(4 5) degree=6".
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Cursor, ParseError


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


def take_cycles(cur: Cursor) -> list[list[tuple[int, int]]]:
    """Read cycles such as "(1 2 3)(4 5)" at the cursor, possibly none.

    Whitespace may come inside the parentheses and after each cycle.  A
    point is any word int() reads, kept with its offset in the text so that
    cycles_permutation can check it once the degree is known.
    """
    cycles = []
    while cur.accept("("):
        cur.skip_space()
        cycle = []
        while not cur.accept(")"):
            at = cur.pos
            try:
                cycle.append((at, int(cur.take_word())))
            except ValueError:
                raise ParseError("expected a point or ')'", pos=at) from None
        cur.skip_space()
        cycles.append(cycle)
    return cycles


def cycles_permutation(cycles: list[list[tuple[int, int]]], degree: int) -> Permutation:
    """The permutation of the given degree with the cycles take_cycles read.

    A point outside 1..degree, or one read before, is a ParseError at its offset.
    """
    images = list(range(degree))
    seen = set()
    for cycle in cycles:
        for i, (at, pt) in enumerate(cycle):
            if not 1 <= pt <= degree:
                raise ParseError(f"point {pt} outside 1..{degree}", pos=at)
            if pt in seen:
                raise ParseError(f"point {pt} appears in two cycles", pos=at)
            seen.add(pt)
            images[pt - 1] = cycle[(i + 1) % len(cycle)][1] - 1
    return Permutation(images)


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-indexed cycle notation like "(1 2 3)(4 5) degree=6".

    The degree=<n> suffix is mandatory unless a degree is supplied by the
    caller; whitespace, commas and semicolons may come before it.
    Overlapping cycles are rejected at the second occurrence of the shared
    point.  Error offsets count from the start of text.
    """
    cur = Cursor(text)
    cur.skip_space()
    cycles = take_cycles(cur)
    while cur.accept(",") or cur.accept(";"):
        pass
    cur.skip_space()
    at = cur.pos
    if cur.accept("degree="):
        deg = cur.take_int("degree")
        if degree is not None and deg != degree:
            raise ParseError(
                f"declared degree {deg} conflicts with expected degree {degree}", pos=at
            )
        degree = deg
    cur.finish("unexpected text")
    if degree is None:
        raise ParseError("missing mandatory degree=<n> suffix", pos=at, expected={"degree=<n>"})
    return cycles_permutation(cycles, degree)


def cycle_string(p: Permutation, with_degree: bool = True) -> str:
    """Render in 1-indexed cycle notation; inverse of parse_cycles."""
    cycs = p.cycles()
    body = "".join("(" + " ".join(str(pt + 1) for pt in cyc) + ")" for cyc in cycs)
    if not body:
        body = "()"
    if with_degree:
        return f"{body} degree={p.degree}"
    return body
