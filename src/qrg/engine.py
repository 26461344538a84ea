"""Finite groups as index tables with batched multiplication.

A GroupTable stores every element of a finite group, indexed from 0 with the
identity at index 0, and answers products, inverses, conjugacy classes,
normal subgroups, cosocles, quotients and derived subgroups.  Elements are
carried either as permutations, as matrices over a prime field, as pairs
(direct products) or as cosets (quotients), but the carriers are read only
by enumeration, element and index_of.  After enumeration every product is
read off one walk, the rows x * G over the right regular action R (below),
on every carrier alike.  No order x order product table is kept.

Permutation and matrix groups are enumerated breadth first, one layer at a
time, as right actions on points (_action): an element is carried as the
row of a base's images under it, and the row of x * h is the row of x with
each point moved by h.  A permutation x is carried as its inverse images,
as i -> x^-1(i) is a right action, on a base of every point; an n x n
matrix over GF(p) acts on the p**n row vectors, coded below p**n, and is
carried as its n row codes, the images of e_0 .. e_(n-1).  One gather from
the action forms the rows of every product x * h of a frontier element x
with a generator h, and the products not seen before become the next
frontier; their rows are read off that gather, not formed again.  New
elements are numbered in order of first occurrence over
(frontier element, generator), frontier elements taken in index order; the
first occurrence of a key starts its run in a stable sort, which for int64
keys is one np.sort of each key packed with its position, key << s |
position (_stable_order).  A row is keyed by a mixed-radix int64 code while
the code space fits (see _radix_powers), and by its bytes past that, which
only permutations of degree 16 and up reach.  The action of a matrix group
holds all p**n row vectors, so one is built only while p**n is within the
order cap and p**(n*n) within int64 codes, and CapExceeded is raised past
either; the groups classical_generators admits are within both.

Every group also records its right regular action, R_h(x) = x * h for each
generator h, as one index array per generator: the coset table of the
trivial subgroup (Holt, Eick & O'Brien, Handbook of Computational Group
Theory, 2005, ch. 5).  Enumeration keeps the key of every product x * h
and reads R off those keys; a direct product builds R from its factors'
tables and a quotient projects its parent's.  Every group has a
breadth-first tree from the identity, kept once as the steps (new, parent,
via * |G|) with new = parent * gens[via], via * |G| the offset of R_h's row
in the flattened R.  Enumeration writes its own, one step per layer with
new a slice; products and quotients search R for theirs (_bfs_steps) on
their first walk, a layer at a time, each new element picked at its first
occurrence among the layer's products by a scatter-min of their
positions, so a search of R numbers an enumerated group's elements as
enumeration did.  One loop, GroupTable._walk, gathers along that tree:
given one row of |G| values per generator and the values at 1, f(y) =
table[via * |G| + f(parent)] fills f for every element, one gather per
step.  Every gather over the whole group, along the tree or through an
index map (the conjugation maps, orbit labels, structure-row codes,
quotient and product tables), is ndarray.take: it gives what a[idx] gives
and raises on an index out of range as that does, but runs faster, most
along the last axis of a block of rows.  Enumeration's gathers stay
indexing, where take would need a transposed copy.  Whole-group products
are that walk of R, never carrier arithmetic: rep * y = R_h(rep * x) for
y = x * h fills a row rep * G, and row_blocks walks the rows of any
elements, a block of rows at a time.  Inverses are read off R on every
carrier alike: h^-1 is the x with R_h(x) = 1, and y = x * h has y^-1 =
h^-1 * x^-1, the entry at x^-1 of the row h^-1 * G, so a walk of those
rows from 1^-1 = 1 gives them all.

Conjugacy classes are the orbits of the generators' conjugation maps.  With
R_h^-1(x) = x h^-1 the inverse permutation of R_h, the map x -> h x h^-1 is
inv o R_h^-1 o inv o R_h^-1, four gathers; the orbits are found by
min-label propagation over those index arrays, and the classes are numbered
by ascending (size, smallest member).  The labels, smallest members, are
below |G|, so they are counted, not sorted.  The center is the union of the
classes of size 1.  The cosets x N of a quotient G/N are the orbits of
x -> x * z for z in Z, read as (z^-1 x^-1)^-1 off one row walk of z^-1:
while the identity's orbit <Z> is short of N, the smallest member of N
outside it joins Z and the propagation goes on.  Each element ends labelled
by the smallest member of its coset, and the cosets are numbered in that
order, by counting the labels met.

Normal subgroups are unions of conjugacy classes, kept as class bitmasks,
and every subgroup question is answered from class products: row j of the
class structure constants is the row rep_j * G, walked along the tree, and
its support at i is the classes of C_i * C_j.  Each row is walked once per
group and kept as (codes, counts); the rows a caller asks for that are not
kept yet are walked together, in blocks as row_blocks walks them.  The
lattice, covering and the character degrees all read this one store, and
the support bitmasks are derived from it.  A class union N holding the
identity is a subgroup exactly when N * N = N; the join of normal subgroups
A and B is A * B.  The powers S, S^2, ... of a class union S are formed
until they first repeat and cached per S; past their end they cycle.  The
normal closure of some classes is the last power of S, those classes plus
the identity.  The lattice joins each distinct principal normal subgroup,
the closure of one class, into every normal subgroup found so far.  The
commutators x^-1 x^h of x in a class C are exactly the products C^-1 * C,
so the derived subgroup is the normal closure of those pair products.

A GroupTable keeps its lazy state (classes, power map, the structure rows
and their support bitmasks, class-set powers) in private fields, the one
store of what a group derives; the rows hold at most sum_j min(|G|, r**2)
codes and counts for r classes.  The lattice and the derived subgroup are
formed from that store on every call and kept by no group, so no group is
part of a reference cycle: a quotient points at its parent, and nothing
points back.

Conjugate elements have conjugate powers, (h x h^-1)^i = h x^i h^-1, so the
class of x^i depends only on the class c of x and on i mod o(c).  This class
power map (Holt, Eick & O'Brien) is read off structure row c as it is
walked: x^(i+1) = x * x^i is the entry of the row x * G at x^i, so the
cycle 1, x, x^2, ... of the representative costs no walk of its own.
Element orders and the exponent come from it, and power(x, k) reads the
same cycle off the row x * G.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm

import numpy as np

from .errors import CapExceeded
from .gf import DEFAULT_ORDER_CAP, FFMatrix, SingularMatrix, ff_rank
from .permutations import Permutation

# Entries of the rows x * G walked at once by row_blocks: 512 KiB of int64
# products, or one whole row of a group of larger order.
_ROW_BLOCK = 1 << 16
CLASS_CAP = 64


class MixedCarriers(TypeError):
    """Generators of different kinds (or degrees, or fields) were mixed."""


class ClassCapExceeded(CapExceeded):
    """More conjugacy classes than the normal-subgroup lattice supports."""


class NotNormal(ValueError):
    """The given subset is not a normal subgroup."""


class TrivialGroup(ValueError):
    """The operation is undefined for the one-element group."""


@dataclass(frozen=True)
class ConjClass:
    index: int
    rep: int
    size: int
    members: np.ndarray  # sorted element indices

    def __repr__(self):
        return f"ConjClass(index={self.index}, rep={self.rep}, size={self.size})"


class NormalSubgroup:
    """A normal subgroup, recorded as the union of the classes it contains."""

    __slots__ = ("group", "class_bits", "order")

    def __init__(self, group: "GroupTable", class_bits: int, order: int | None = None):
        self.group = group
        self.class_bits = class_bits
        self.order = group.class_bits_size(class_bits) if order is None else order

    @property
    def members(self) -> np.ndarray:
        parts = [c.members for c in self.group.classes if self.class_bits >> c.index & 1]
        return np.sort(np.concatenate(parts))

    @property
    def num_classes(self) -> int:
        return bin(self.class_bits).count("1")

    def __eq__(self, other):
        return (
            isinstance(other, NormalSubgroup)
            and other.group is self.group
            and other.class_bits == self.class_bits
        )

    def __hash__(self):
        return hash((id(self.group), self.class_bits))

    def __repr__(self):
        return f"NormalSubgroup(order={self.order}, classes={self.num_classes})"


class GroupTable:
    """Fully enumerated finite group.  Built by the module-level factories."""

    def __init__(self):
        self.kind = None  # 'perm' | 'mat' | 'prod' | 'quot'
        self.order = 0
        self.gens: list[int] = []
        self.label = ""
        self.degree = None  # perm carrier
        self.field = None  # mat carrier
        # right regular action: _right[t, x] is x * gens[t]; and the BFS tree
        # over it, steps (new, parent, via * order) with new = parent *
        # gens[via], new a slice where enumeration numbered the layer, and
        # via * order the offset of R_gens[via] in the flattened R (_walk)
        self._right = None
        self._steps = None
        # perm and mat carriers: one int64 row per element, its base images
        # (a permutation's inverse images, a matrix's n row codes), and the
        # row-key lookup (radix powers of the row, or None for the byte keys
        # of permutations of degree 16 and up)
        self._rows = None
        self._pow = None
        self._sorted_codes = None
        self._sorted_pos = None
        # prod carrier
        self.factors = None
        # quot carrier
        self.parent = None
        self.proj = None
        # lazy state
        self._inv = None
        self._classes = None
        self._class_of = None
        self._class_sizes = None
        self._class_reps = None
        self._class_inverses = None
        # the identity's class is 0, and its power map needs no row
        self._power_classes: dict[int, tuple[int, ...]] = {0: (0,)}
        self._structure_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._row_bits: dict[int, list[int]] = {}
        self._set_powers: dict[int, tuple[tuple[int, ...], int]] = {}

    # -- scalar ops ---------------------------------------------------------

    def power(self, i: int, k: int) -> int:
        """Index of element(i)**k for any integer k: x^k = x^(k mod o), read
        off the cycle 1, x, x^2, ... of the row x * G (_cycle)."""
        cycle = _cycle(self._row_products(i))
        return cycle[k % len(cycle)]

    def order_of(self, i: int) -> int:
        return len(self.power_classes(int(self.class_of[i])))

    def exponent(self) -> int:
        r = len(self.classes)
        # every class's power map is read off its structure row: walk them all at once
        self.class_structure_rows(range(1, r))
        return lcm(*(len(self.power_classes(c)) for c in range(r)))

    # -- batched ops --------------------------------------------------------

    def _find_keys(self, keys: np.ndarray) -> np.ndarray:
        """Index of the element with each row key, -1 where none has it."""
        pos = np.minimum(np.searchsorted(self._sorted_codes, keys), self.order - 1)
        return np.where(self._sorted_codes[pos] == keys, self._sorted_pos[pos], -1)

    def _bijection(self, keys: np.ndarray) -> np.ndarray:
        """Indices of the elements keyed by keys, which hold every element's
        key once: sorted (_stable_order) they are _sorted_codes, so no
        search is needed."""
        out = np.empty(self.order, dtype=np.int64)
        out[_stable_order(keys)[1]] = self._sorted_pos
        return out

    def row_blocks(self, xs=None):
        """The rows x * G for each x in xs, every element by default, in
        order, walked along the tree in blocks of whole rows, at most
        _ROW_BLOCK entries or one row."""
        xs = np.arange(self.order) if xs is None else np.asarray(xs, dtype=np.int64)
        step = max(1, _ROW_BLOCK // self.order)
        for s in range(0, len(xs), step):
            yield self._row_products(xs[s : s + step])

    def _row_products(self, xs) -> np.ndarray:
        """x * G for each x in xs, a scalar or a vector: x * y = R_h(x * p)
        for y = p * h, a walk of the flattened R."""
        return self._walk(self._right.reshape(-1), xs)

    def _walk(self, table: np.ndarray, first) -> np.ndarray:
        """The values at every element of a map f along the tree, for each
        start f(1) in first, a scalar or a vector: f(y) = table[via * |G| +
        f(p)] for y = p * gens[via], one gather per step.  table holds one
        row of |G| entries per generator, flattened; the tree's steps are
        found on the first walk of a group that was not enumerated.  Both
        gathers are ndarray.take, the first along the last axis of a block
        of rows, where it is several times faster than out[..., parent]."""
        if self._steps is None:
            self._steps = _bfs_steps(self._right)
        out = np.empty((*np.shape(first), self.order), dtype=np.int64)
        out[..., 0] = first
        for new, parent, offset in self._steps:
            at = out.take(parent, axis=-1)
            at += offset
            out[..., new] = table.take(at)
        return out

    @property
    def inv(self) -> np.ndarray:
        """Index of the inverse of every element; cached.  h^-1 is the x with
        R_h(x) = 1, and y = x * h has y^-1 = h^-1 * x^-1, the entry at x^-1
        of the row h^-1 * G: one row walk of the generators' inverses, then
        a walk of those rows from 1^-1 = 1."""
        if self._inv is None:
            left = self._row_products(self._right.argmin(axis=1))
            self._inv = self._walk(left.reshape(-1), 0)
        return self._inv

    # -- elements -----------------------------------------------------------

    def element(self, i: int):
        if self.kind == "perm":
            # a row is the inverse images, and argsort inverts it
            return Permutation(np.argsort(self._rows[i]))
        if self.kind == "mat":
            # digit c of row code r is entry (r, c)
            codes, p = self._rows[i], self.field.p
            return FFMatrix(self.field, codes[:, None] // p ** np.arange(len(codes)) % p)
        if self.kind == "prod":
            g1, g2 = self.factors
            i1, i2 = divmod(int(i), g2.order)
            return (g1.element(i1), g2.element(i2))
        return frozenset(
            int(x)
            for x in np.nonzero(self.proj == i)[0]
        )

    def index_of(self, elt) -> int:
        """Index of a carrier element (Permutation or FFMatrix); a quotient
        maps its parent's element to that element's coset."""
        if self.kind == "quot":
            return int(self.proj[self.parent.index_of(elt)])
        if self.kind == "perm" and isinstance(elt, Permutation) and elt.degree == self.degree:
            row = np.argsort(elt.images)
        elif (
            self.kind == "mat"
            and isinstance(elt, FFMatrix)
            and elt.field == self.field
            and elt.n == self._rows.shape[1]
        ):
            row = elt.entries @ self.field.p ** np.arange(elt.n)
        else:
            raise KeyError("element does not belong to this group")
        i = int(self._find_keys(_row_keys(row, self._pow)))
        if i < 0:
            raise KeyError("element not in group")
        return i

    # -- conjugacy ----------------------------------------------------------

    @property
    def classes(self) -> list[ConjClass]:
        self._ensure_classes()
        return self._classes

    @property
    def class_of(self) -> np.ndarray:
        self._ensure_classes()
        return self._class_of

    @property
    def class_sizes(self) -> np.ndarray:
        self._ensure_classes()
        return self._class_sizes

    @property
    def class_inverses(self) -> np.ndarray:
        """Index of the class of inverses of each class."""
        self._ensure_classes()
        return self._class_inverses

    def power_classes(self, c: int) -> tuple[int, ...]:
        """Classes of x, x^2, ..., x^o = 1 for any x in class c, o = o(x).

        Read off structure row c as class_structure_rows walks it, so only
        row c is walked, and only when it is not kept yet.
        """
        if c not in self._power_classes:
            self.class_structure_rows([c])
        return self._power_classes[c]

    def _ensure_classes(self):
        """Partition the group into conjugacy classes.

        The classes are the orbits of the conjugation maps c_h(x) = h x h^-1,
        h running over the generators, each formed for all elements by
        gathers over the regular action; _orbit_labels labels each element
        by the smallest member of its class.
        """
        if self._classes is not None:
            return
        conj = [self._conjugation_map(t) for t, h in enumerate(self.gens) if h != 0]
        self._finish_classes(_orbit_labels(conj, np.arange(self.order)))

    def _conjugation_map(self, t: int) -> np.ndarray:
        """Index of h x h^-1 for every element x, h = gens[t]: with rinv the
        inverse permutation of R_h, rinv(x) = x h^-1, inv(rinv(x)) = h x^-1
        and h x h^-1 = inv(rinv(inv(rinv(x)))), read as four gathers."""
        rinv = np.empty(self.order, dtype=np.int64)
        rinv[self._right[t]] = np.arange(self.order)
        inv = self.inv
        return inv.take(rinv.take(inv.take(rinv)))

    def _finish_classes(self, label: np.ndarray):
        """Number the classes, ascending (size, smallest member), from a
        labelling of every element by the smallest member of its class, so
        the distinct labels are the smallest members themselves.

        The labels are below |G|, so they are counted, not sorted: the
        nonzero counts sit at the smallest members, ascending, and a stable
        sort of their sizes orders the classes."""
        counts = np.bincount(label, minlength=self.order)
        first = np.flatnonzero(counts)
        reps = first[np.argsort(counts[first], kind="stable")]
        number = np.empty(self.order, dtype=np.int64)
        number[reps] = np.arange(len(reps))
        class_of = number.take(label)
        self._class_sizes = counts[reps]
        self._class_reps = reps
        self._class_inverses = class_of[self.inv[reps]]
        # a stable sort keeps each class's members ascending; numpy sorts
        # integers of 16 bits or fewer by radix
        small = class_of.astype(np.min_scalar_type(len(reps)))
        parts = np.split(np.argsort(small, kind="stable"), np.cumsum(self._class_sizes)[:-1])
        self._classes = [
            ConjClass(index=k, rep=int(members[0]), size=len(members), members=members)
            for k, members in enumerate(parts)
        ]
        self._class_of = class_of

    # -- class products (shared by covering, the lattice and characters) -----

    def class_structure_rows(self, js) -> list[tuple[np.ndarray, np.ndarray]]:
        """Nonzero N[j, i, k] = #{y in C_i : rep_j y in C_k}, as (codes,
        counts), for each j in js.

        Codes are i * r + k, ascending, for r classes: the row rep_j * G,
        counted by (class of y, class of rep_j y).  A row's |G| codes are
        counted in an r**2 bincount, or, where r**2 > 4 |G| and the bincount
        and its scan would outweigh the row, sorted and counted by runs
        (np.unique); both give the same codes and counts.  Each row is
        formed once per group and kept, so the store holds at most
        sum_j min(|G|, r**2) codes and counts; the rows of js not kept yet
        are walked together, in blocks as row_blocks walks them.  Codes stay
        below r**2 <= |G|**2, far inside int64 for any group that can be
        enumerated.  The same walk gives class j's power map (power_classes),
        read off the row along the cycle of rep_j.
        """
        js = [int(j) for j in js]
        rows = self._structure_rows
        todo = [j for j in dict.fromkeys(js) if j not in rows]
        if todo:
            class_of = self.class_of
            r = len(self._classes)
            first = class_of * r
            walked = chain.from_iterable(self.row_blocks(self._class_reps[todo]))
            for j, row in zip(todo, walked):
                # (class of y) * r + (class of rep_j y) for every y
                codes = class_of.take(row)
                codes += first
                if r * r > 4 * self.order:
                    rows[j] = np.unique(codes, return_counts=True)
                else:
                    counts = np.bincount(codes, minlength=r * r)
                    codes = np.flatnonzero(counts)
                    rows[j] = codes, counts[codes]
                # the classes of x, ..., x^(o-1), then of x^o = 1
                self._power_classes[j] = tuple(class_of[_cycle(row)[1:] + [0]].tolist())
        return [rows[j] for j in js]

    def class_pair_product_bits(self, ci: int, cj: int) -> int:
        """Bitmask of classes met by C_i * C_j: the support of structure row
        j at i, each row's supports cached as one bitmask per class.

        Every x y with x in C_j and y in C_i is conjugate to rep_j y' with y'
        in C_i, and C_i * C_j = C_j * C_i as both are conjugation invariant.
        The identity class's row is C_i -> C_i and forms no products.
        """
        if cj == 0:
            return 1 << ci
        row = self._row_bits.get(cj)
        if row is None:
            r = len(self.classes)
            row = [0] * r
            codes, _ = self.class_structure_rows([cj])[0]
            for i, k in zip(*(x.tolist() for x in np.divmod(codes, r))):
                row[i] |= 1 << k
            self._row_bits[cj] = row
        return row[ci]

    def class_set_product_bits(self, bits_a: int, bits_b: int) -> int:
        """Bitmask of classes met by A * B for class unions A and B, read
        from the structure rows of the side with fewer classes, as
        A * B = B * A; of B on a tie, as callers pass the fixed factor of a
        growing product (N * S, S^(k-1) * S) second."""
        if bits_a.bit_count() < bits_b.bit_count():
            bits_a, bits_b = bits_b, bits_a
        got = 0
        for i in _iter_bits(bits_a):
            for j in _iter_bits(bits_b):
                got |= self.class_pair_product_bits(i, j)
        return got

    def full_class_bits(self) -> int:
        return (1 << len(self.classes)) - 1

    def class_bits_size(self, bits: int) -> int:
        sizes = self.class_sizes
        return sum(int(sizes[c]) for c in _iter_bits(bits))

    # -- subgroup machinery ---------------------------------------------------

    def class_set_powers(self, bits: int) -> tuple[tuple[int, ...], int]:
        """The distinct powers S^1 .. S^(t-1) of a class union S, with S^t
        the first to repeat an earlier S^j, and j - 1, the position of S^j.

        S^(k+1) = S^k * S depends only on S^k, so the powers cycle with
        period t - j from there.  Cached per S.
        """
        got = self._set_powers.get(bits)
        if got is None:
            powers = [bits]
            seen = {bits: 0}
            while (nxt := self.class_set_product_bits(powers[-1], bits)) not in seen:
                seen[nxt] = len(powers)
                powers.append(nxt)
            got = self._set_powers[bits] = (tuple(powers), seen[nxt])
        return got

    def class_set_power(self, bits: int, k: int) -> int:
        """S^k for any k >= 1, read from class_set_powers, by the period past its end."""
        if k < 1:
            raise ValueError("k must be >= 1")
        powers, start = self.class_set_powers(bits)
        if k > len(powers):
            k = start + 1 + (k - 1 - start) % (len(powers) - start)
        return powers[k - 1]

    def normal_closure_bits(self, seed_class_idxs) -> int:
        """Class bitmask of the normal closure of the given classes.

        With S the seed classes plus the identity class, the powers of S
        only grow; the last one holds every product of members of S, the
        subgroup S generates, normal as S is a union of classes.
        """
        return self.class_set_powers(1 | _bits_of(seed_class_idxs))[0][-1]


def _bits_of(class_idxs) -> int:
    bits = 0
    for c in class_idxs:
        bits |= 1 << int(c)
    return bits


def _iter_bits(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _cycle(row: np.ndarray) -> list[int]:
    """The powers 1, x, ..., x^(o-1) of x, o = o(x), read off the row x * G,
    where x^(i+1) = x * x^i is the entry at x^i."""
    cycle = [0]
    while y := row.item(cycle[-1]):
        cycle.append(y)
    return cycle


def _distinct_gens(images) -> tuple[list[int], list[int]]:
    """The distinct non-identity elements among generator images, in order
    of first occurrence, and the position of each first occurrence; ([0],
    [0]) when every image is the identity."""
    first = {}
    for b, idx in enumerate(images):
        if idx != 0:
            first.setdefault(idx, b)
    return list(first) or [0], list(first.values()) or [0]


def _orbit_labels(maps, label: np.ndarray) -> np.ndarray:
    """Each element labelled by the smallest member of its orbit under the
    permutations maps, from labels inside the orbits among which each
    orbit's smallest member occurs: label <- min(label, label[m]) for each
    m and label <- label[label] until nothing changes, when labels are
    constant on every cycle of every map."""
    while True:
        new = label
        for m in maps:
            new = np.minimum(new, new.take(m))
        new = new.take(new)
        if np.array_equal(new, label):
            return label
        label = new


def _stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """keys in ascending order, and the positions they come from, equal keys
    in order of position: np.argsort(keys, kind="stable") and keys at it.

    int64 keys are packed with their positions, key << s | position for s
    the bit length of len - 1, where every key leaves that room, that is
    -2**(63 - s) <= key < 2**(63 - s): one np.sort of the packed keys orders
    them by key, then by position, and the low s bits give the positions
    back.  Byte keys, and int64 keys without that room, take a stable
    argsort."""
    n = len(keys)
    s = (n - 1).bit_length()
    room = 1 << 63 - s
    if keys.dtype == np.int64 and -room <= keys.min() and keys.max() < room:
        packed = keys << s | np.arange(n)
        packed.sort()
        return packed >> s, packed & (1 << s) - 1
    at = keys.argsort(kind="stable")
    return keys[at], at


def _first_unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the position of the first
    occurrence of each: np.unique(keys, return_index=True).  In the stable
    order of _stable_order the first occurrence of a key starts its run."""
    ordered, at = _stable_order(keys)
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    new[1:] = ordered[1:] != ordered[:-1]
    starts = new.nonzero()[0]
    return ordered[starts], at[starts]


def _bfs_steps(right: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first steps (new, parent, via * |G|) of the Cayley graph given
    by right[t, x] = x * gens[t], from the identity: new elements in order
    of first occurrence over (frontier element, generator), as enumeration
    numbers them, with new = parent * gens[via].

    Candidates are elements, below |G|, so the first occurrence of each is
    a scatter-min of candidate positions into one array over G, not a sort;
    the positions that hold their element's minimum are the picks, already
    in order."""
    k, n = right.shape
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    # first[x]: the least position at which x is a candidate of the layer
    first = np.empty(n, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    steps = []
    while True:
        # candidate a * k + t is frontier[a] * gens[t]
        cand = right.take(frontier, axis=1).T.reshape(-1)
        fresh = np.flatnonzero(~seen.take(cand))
        if not fresh.size:
            return steps
        elems = cand.take(fresh)
        first[elems] = len(cand)
        np.minimum.at(first, elems, fresh)
        # fresh ascends, so the first occurrences are picked in order
        pick = fresh[first.take(elems) == fresh]
        new = cand.take(pick)
        seen[new] = True
        steps.append((new, frontier.take(pick // k), pick % k * n))
        frontier = new


# -- construction -------------------------------------------------------------


def _radix_powers(base: int, width: int) -> np.ndarray | None:
    """Digit weights base**0 .. base**(width - 1) of an int64 row code.

    A row of `width` base images below `base` codes to sum(d_k * base**k),
    which is below base**width: a permutation of degree d is d points below
    d, an n x n matrix n row codes below p**n.  Codes are used only while
    base**width <= 2**62, so they and their sums stay inside int64; past
    that limit this returns None.  Permutations of degree 16 and up are
    then keyed by their bytes, and matrices with p**(n*n) > 2**62 are
    refused (_action).
    """
    if base**width > 1 << 62:
        return None
    return base ** np.arange(width, dtype=np.int64)


def _row_keys(rows: np.ndarray, powers: np.ndarray | None) -> np.ndarray:
    """One sortable key per row of base images, along the last axis: its
    int64 code, or its bytes when powers is None (_byte_keys).  Both kinds
    work with np.sort and np.searchsorted; _stable_order packs int64 codes
    with their positions and argsorts bytes."""
    return _byte_keys(rows) if powers is None else rows @ powers


def _byte_keys(rows: np.ndarray) -> np.ndarray:
    """The bytes of each row along the last axis, as one void scalar."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.shape[-1] * rows.itemsize)))[..., 0]


def _row_table(mats: np.ndarray, p: int) -> np.ndarray:
    """act[code, t], the code of v * h_t for every row vector v of GF(p)^n,
    coded as sum(v_c * p**c), and each n x n matrix h_t, by one matmul."""
    n = mats.shape[-1]
    radix = p ** np.arange(n, dtype=np.int64)
    vecs = np.arange(p**n, dtype=np.int64)[:, None] // radix % p
    return np.ascontiguousarray(((vecs @ mats) % p @ radix).T)


class _KeySet:
    """A set of row keys kept as sorted runs, each more than twice the size
    of the next; a new run is merged into the runs below it until that
    holds again.  Adding n keys in batches then costs O(n log n) in all,
    however thin the batches, and a membership test searches O(log n) runs.
    """

    def __init__(self, keys: np.ndarray):
        self.runs = [np.sort(keys)]

    def missing(self, keys: np.ndarray) -> np.ndarray:
        """Mask of the keys that are not in the set."""
        out = np.ones(len(keys), dtype=bool)
        for run in self.runs:
            pos = np.minimum(run.searchsorted(keys), len(run) - 1)
            out &= run[pos] != keys
        return out

    def add(self, keys: np.ndarray):
        """Add sorted keys, none of which is in the set yet."""
        self.runs.append(keys)
        while len(self.runs) > 1 and len(self.runs[-2]) <= 2 * len(self.runs[-1]):
            top = self.runs.pop()
            low = self.runs.pop()
            # a stable sort merges two sorted runs in linear time
            self.runs.append(np.sort(np.concatenate((low, top)), kind="stable"))


def _action(gens, cap: int) -> tuple[str, np.ndarray, np.ndarray]:
    """A generating set as a right action on points: (kind, act, start),
    act[point, t] the image of each point under gens[t], and start the
    base, which is the identity's row.

    An element x is carried as the images of the base under x, and the row
    of x * h is act[i, h] for each image i in the row of x.  A permutation
    x maps i to x(i) and x * h maps i to x(h(i)), so i -> x^-1(i) is a
    right action: act[h(i), t] = i, and the base is every point, so a row
    is x's inverse images.  An n x n matrix acts on the row vectors of
    GF(p)^n, coded below p**n (_row_table); the base is e_0 .. e_(n-1),
    codes p**r, and a row is x's n row codes.  All generators must be
    permutations of one degree or invertible matrices of one size over one
    field.  Matrices with p**n > cap, or with p**(n*n) > 2**62 so that n
    row codes do not fit one int64 key, raise CapExceeded before the table
    is built; the table holds p**n * k entries, no more than the regular
    action the cap admits, k * cap.
    """
    k = len(gens)
    if all(isinstance(x, Permutation) for x in gens):
        degrees = {x.degree for x in gens}
        if len(degrees) != 1:
            raise MixedCarriers(f"permutation degrees differ: {sorted(degrees)}")
        degree = degrees.pop()
        images = np.array([x.images for x in gens], dtype=np.int64).reshape(k, degree)
        act = np.empty((degree, k), dtype=np.int64)
        act[images, np.arange(k)[:, None]] = np.arange(degree)
        return "perm", act, np.arange(degree, dtype=np.int64)
    if all(isinstance(x, FFMatrix) for x in gens):
        fields = {x.field for x in gens}
        sizes = {x.n for x in gens}
        if len(fields) != 1 or len(sizes) != 1:
            raise MixedCarriers("matrix generators must share field and size")
        p, n = gens[0].field.p, gens[0].n
        mats = np.array([x.entries for x in gens], dtype=np.int64).reshape(k, n, n)
        if (ff_rank(mats, p) < n).any():
            raise SingularMatrix("matrix generators must be invertible")
        if p**n > cap or _radix_powers(p**n, n) is None:
            raise CapExceeded(
                f"{n} x {n} matrices over GF({p}) are enumerated on a table of p**n = "
                f"{p**n} row vectors, which needs p**n <= cap {cap} and "
                f"p**(n*n) = {p}**{n * n} <= 2**62"
            )
        return "mat", _row_table(mats, p), p ** np.arange(n, dtype=np.int64)
    raise MixedCarriers(
        "generators must be all Permutation or all FFMatrix, not a mixture"
    )


def enumerate_group(generators, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Closure of a generating set under multiplication, identity at index 0.

    All generators must share one carrier: permutations of equal degree or
    matrices over one field and size.  Raises MixedCarriers otherwise.

    Every group is enumerated as a right action on points (_action): an
    element is the row of its base images, and the closure is built
    breadth first, a whole layer per step.  One gather from the action
    forms the base images of all products x * h of the previous layer with
    the generators, and they are keyed at once: an int64 code read off the
    images in radix len(act) while it fits (_radix_powers), their bytes
    past it.  The keys already known are dropped by a search in sorted key
    runs.  The new elements get the next indices in order of first
    occurrence over (frontier element, generator), found by _first_unique,
    so index 0 is the identity and the numbering equals that of an
    element-by-element BFS.  Only the new elements' rows are kept, read
    off the gathered images, and their keys are the picked products' keys;
    each layer is one step of the tree, (new, parent, via * |G|), as
    GroupTable._walk reads it.
    CapExceeded is raised as soon as the order would pass cap, before that
    layer's rows are formed, and before enumeration for matrices whose row
    table would pass cap or whose keys would pass int64 (_action).

    The keys of every product x * h are kept, and at the end they give the
    right regular action: for each generator they are every element's key
    once, so the order that sorts them (_stable_order, a packed sort where
    the keys leave room), composed with the sorted element keys, is R_h.
    No inverse is formed here; GroupTable.inv reads them off R.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    kind, act, start = _action(gens, cap)
    k = act.shape[1]
    powers = _radix_powers(len(act), len(start))
    layers = [start[None]]
    # for each layer after the first, (new, parent, b) with new = parent *
    # gens[b]
    steps = []
    # the key of element x * gens[b] at x * k + b, and of each element
    cand_keys = []
    elem_keys = [_row_keys(start[None], powers)]
    known = _KeySet(elem_keys[0])
    order = 1
    while True:
        frontier = layers[-1]
        first = order - len(frontier)
        # images[a, r, b]: base image r of frontier[a] * gens[b]
        images = act.take(frontier, axis=0)
        keys = _byte_keys(images.swapaxes(1, 2)) if powers is None else powers @ images
        cand_keys.append(keys.reshape(-1))
        uniq, at = _first_unique(cand_keys[-1])
        fresh = known.missing(uniq)
        if not fresh.any():
            break
        pick = at[fresh]
        pick.sort()
        if order + len(pick) > cap:
            raise CapExceeded(
                f"group enumeration passed cap {cap}; raise the cap to continue"
            )
        known.add(uniq[fresh])
        a, b = np.divmod(pick, k)
        layers.append(images[a, :, b])
        elem_keys.append(cand_keys[-1][pick])
        steps.append((slice(order, order + len(pick)), first + a, b))
        order += len(pick)

    g = GroupTable()
    g.kind = kind
    g.order = order
    g._rows = np.concatenate(layers)
    del layers, images
    g._rows.setflags(write=False)
    g._pow = powers
    g._sorted_codes, g._sorted_pos = _stable_order(np.concatenate(elem_keys))
    # the generators' rows are the base's images under them
    g.gens, cols = _distinct_gens(g._find_keys(_row_keys(act[start].T, powers)).tolist())
    cand_keys = np.concatenate(cand_keys).reshape(order, k)
    g._right = np.empty((len(cols), order), dtype=np.int64)
    for t, b in enumerate(cols):
        g._right[t] = g._bijection(cand_keys[:, b])
    del cand_keys
    # a new element is first reached by the first copy of its generator
    position = np.zeros(k, dtype=np.int64)
    position[cols] = np.arange(len(cols))
    g._steps = [(new, parent, position[b] * order) for new, parent, b in steps]
    if g.kind == "perm":
        g.degree = g._rows.shape[1]
    else:
        g.field = gens[0].field
    return g


def direct_product(g1: GroupTable, g2: GroupTable, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    if g1.order * g2.order > cap:
        raise CapExceeded(f"product order {g1.order * g2.order} exceeds cap {cap}")
    g = GroupTable()
    g.kind = "prod"
    g.factors = (g1, g2)
    g.order = g1.order * g2.order
    o2 = g2.order
    g.gens, cols = _distinct_gens([i * o2 for i in g1.gens] + list(g2.gens))
    # (x1, x2) * (h1, 1) = (x1 h1, x2) and (x1, x2) * (1, h2) = (x1, x2 h2)
    x1, x2 = np.divmod(np.arange(g.order, dtype=np.int64), o2)
    right = [r.take(x1) * o2 + x2 for r in g1._right] + [x1 * o2 + r.take(x2) for r in g2._right]
    g._right = np.stack([right[c] for c in cols])
    return g


def quotient(g: GroupTable, n: NormalSubgroup) -> GroupTable:
    """Quotient group G/N with the projection map attached.

    The cosets are the orbits of x -> x * z for a few z in N, each such
    shift formed as (z^-1 x^-1)^-1 from one row walk of z^-1, whatever the
    depth of z in the tree.  They are numbered in order of their smallest
    member, so the coset of the identity is index 0; with every element
    labelled by that member, the numbering is a running count of the labels
    met, not a sort.
    """
    if n.group is not g:
        raise ValueError("normal subgroup belongs to a different group")
    # a union of classes is automatically conjugation invariant; still verify
    # it is a subgroup
    if not _is_subgroup(g, n.class_bits):
        raise NotNormal("the given class union is not a subgroup")
    # label each element by the smallest member of its orbit under x -> x * z
    # for z in Z, the coset x<Z>; while the identity's orbit <Z> is short of
    # N, add to Z the smallest member of N outside it, which at least
    # doubles <Z>, so that log2 |N| steps suffice.  x * z = (z^-1 x^-1)^-1
    # reads the row z^-1 * G at x^-1, one row walk whatever the depth of z
    members, inv = n.members, g.inv
    shifts, least = [], np.arange(g.order)
    for _ in range(n.order.bit_length()):
        outside = members[least.take(members) != 0]
        if not outside.size:
            break
        shifts.append(inv.take(g._row_products(inv[outside[0]]).take(inv)))
        least = _orbit_labels(shifts, least)
    # the labels are below |G|: the representatives are the labels met, and
    # a running count of them numbers the cosets
    met = np.zeros(g.order, dtype=bool)
    met[least] = True
    reps = np.flatnonzero(met)
    proj = (np.cumsum(met) - 1).take(least)
    q = GroupTable()
    q.kind = "quot"
    q.parent = g
    q.proj = proj
    q.order = len(reps)
    q.gens, cols = _distinct_gens(proj[g.gens].tolist())
    # the coset of x times that of h is the coset of rep(x) * h
    q._right = proj.take(g._right.take(cols, axis=0).take(reps, axis=1))
    return q


def _is_subgroup(g: GroupTable, bits: int) -> bool:
    """Whether a class union is a subgroup, hence a normal one: it must hold
    the identity class 0 and be closed, N * N = N."""
    return bool(bits & 1) and g.class_set_product_bits(bits, bits) == bits


def normal_subgroup_from_classes(g: GroupTable, class_idxs) -> NormalSubgroup:
    """Build a NormalSubgroup from class indices, verifying it is a subgroup."""
    bits = _bits_of(class_idxs)
    if not _is_subgroup(g, bits):
        raise NotNormal("class union is not closed under multiplication")
    return NormalSubgroup(g, bits)


def normal_subgroup_from_elements(g: GroupTable, idxs) -> NormalSubgroup:
    """Build a NormalSubgroup from element indices; raises NotNormal unless
    the set is a union of classes forming a subgroup."""
    idxs = np.unique(np.fromiter((int(i) for i in idxs), dtype=np.int64))
    cls = {int(c) for c in np.unique(g.class_of[idxs])}
    size = sum(g.classes[c].size for c in cls)
    if size != len(idxs):
        raise NotNormal("set is not a union of conjugacy classes")
    return normal_subgroup_from_classes(g, cls)


def normal_subgroups(g: GroupTable) -> list[NormalSubgroup]:
    """All normal subgroups, ascending by (order, class bitmask).

    Every normal subgroup is the join of the normal closures of its own
    classes, and the join of normal subgroups A and B is their product set
    A * B.  So joining each distinct closure N_c into every subgroup found
    so far, from {1}, leaves the joins of all subsets of the closures: the
    whole lattice (Hulpke, Computing normal subgroups, ISSAC 1998).  Built
    on every call; the rows and class-set powers it reads are kept.
    """
    classes = g.classes
    if len(classes) > CLASS_CAP:
        raise ClassCapExceeded(
            f"{len(classes)} conjugacy classes exceed the lattice cap {CLASS_CAP}"
        )
    # every closure below reads its class's row: walk them all at once
    g.class_structure_rows(range(1, len(classes)))
    found: set[int] = {1}  # trivial subgroup: the identity class alone
    for nc in {g.normal_closure_bits([c]) for c in range(len(classes))}:
        # A * N_c = A when A already contains N_c
        found |= {g.class_set_product_bits(a, nc) for a in found if a & nc != nc}
    normals = sorted((g.class_bits_size(b), b) for b in found)
    return [NormalSubgroup(g, bits, order) for order, bits in normals]


def cosocle(g: GroupTable) -> NormalSubgroup:
    """Intersection of all maximal proper normal subgroups.

    For the trivial group (no proper normal subgroups) this is the whole
    group, by the empty-intersection convention.
    """
    proper = [n.class_bits for n in normal_subgroups(g) if n.order < g.order]
    bits = g.full_class_bits()
    for n in proper:
        if not any(m != n and m & n == n for m in proper):
            bits &= n
    return NormalSubgroup(g, bits)


def center(g: GroupTable) -> NormalSubgroup:
    """The center: the union of the classes of size 1."""
    return NormalSubgroup(g, _bits_of(np.flatnonzero(g.class_sizes == 1)))


def commutator_subgroup(g: GroupTable) -> NormalSubgroup:
    """Derived subgroup, as the normal closure of the commutators.

    The commutators x^-1 h^-1 x h = x^-1 x^h with x in a class C are exactly
    the products C^-1 * C, so their classes are the supports of the pair
    products, structure row c at the class of inverses of c, for every c.
    """
    r = len(g.classes)
    # every class's row is read: walk them all at once
    g.class_structure_rows(range(1, r))
    inverses = g.class_inverses.tolist()
    seeds = 0
    for c in range(r):
        seeds |= g.class_pair_product_bits(inverses[c], c)
    return NormalSubgroup(g, g.normal_closure_bits(_iter_bits(seeds)))


def is_perfect(g: GroupTable) -> bool:
    return commutator_subgroup(g).order == g.order
