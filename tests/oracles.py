"""Independent reference computations for the test suite.

Everything here works on raw carriers: image tuples for permutations,
entry tuples for 2x2 matrices, plain lists for mod-p elimination.  None
of it calls into the package, so a bug there cannot leak into the
expected values.  Slow is fine; these run on groups of a few hundred
elements (the class-algebra degree oracle scales to a few tens of
thousands).
"""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np


# -- permutations ------------------------------------------------------------

def parity_by_inversions(images) -> str:
    inv = 0
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            inv += images[i] > images[j]
    return "even" if inv % 2 == 0 else "odd"


def compose(a, b):
    """Image tuple of a after b: (a.b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def invert(a):
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img] = i
    return tuple(out)


def cycle_lengths(images):
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        pt = start
        while not seen[pt]:
            seen[pt] = True
            pt = images[pt]
            length += 1
        out.append(length)
    return sorted(out, reverse=True)


def sn_class_size(n: int, lengths) -> int:
    """n! / centralizer order for the cycle type, fixed points included."""
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    cent = 1
    for ln in lengths:
        cent *= ln
    for ln in set(lengths):
        mult = list(lengths).count(ln)
        for i in range(2, mult + 1):
            cent *= i
    return fact // cent


def an_class_size(n: int, lengths) -> int:
    """Size of the A_n class: the S_n class, halved when it splits."""
    size = sn_class_size(n, lengths)
    if all(ln % 2 == 1 for ln in lengths) and len(set(lengths)) == len(lengths):
        return size // 2
    return size


def commutator_set(elements):
    """Every commutator a b a^-1 b^-1 of the given permutations (image
    tuples), by brute force over all pairs (a, b); a vectorized loop over a."""
    perms = np.array(elements, dtype=np.int64).reshape(len(elements), -1)
    invs = np.argsort(perms, axis=1)
    out = set()
    for a, a_inv in zip(perms, invs):
        # row k maps i to a(b(a^-1(b^-1(i)))) for b = perms[k]
        rows = np.take_along_axis(a[perms][:, a_inv], invs, axis=1)
        out.update(map(tuple, rows.tolist()))
    return out


# -- generic group closure on hashable carriers ------------------------------

def group_closure(gens, mul):
    """All nonempty products of the generators; in a finite group that set
    is closed and already contains the identity and all inverses."""
    if not gens:
        raise ValueError("need at least one generator")
    elements = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(g, x)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def orbit_minima(n: int, maps):
    """The smallest member of the orbit of each of the points 0 .. n - 1
    under the permutations maps (sequences of images), by union-find: each
    root is the smallest point of its tree, as the larger root is always
    hung under the smaller."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in maps:
        for x, y in enumerate(m):
            a, b = find(x), find(int(y))
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def bfs_enumeration(gens, mul):
    """Group elements in first-seen breadth-first order: the identity, then
    for each frontier element x in order and each generator h in order the
    product y = mul(x, h) whenever y is new."""
    if not gens:
        raise ValueError("need at least one generator")
    identity = gens[0]
    while mul(identity, gens[0]) != gens[0]:
        identity = mul(identity, gens[0])
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for h in gens:
                y = mul(x, h)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def word_lengths(subset, mul, identity):
    """Least k with x in S^k, for every x in the group the subset S
    generates, when S holds the identity (so S^k grows with k); the
    identity itself gets 0."""
    dist = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in subset:
                y = mul(x, s)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def matmul_mod(p: int):
    """Product of square matrices over GF(p) given as flat row-major tuples."""
    def mul(x, y):
        n = int(round(len(x) ** 0.5))
        return tuple(
            sum(x[i * n + k] * y[k * n + j] for k in range(n)) % p
            for i in range(n)
            for j in range(n)
        )
    return mul


def conjugacy_partition(elements, gens, mul, inv):
    """Classes as frozensets, via conjugation orbits under the generators."""
    pending = set(elements)
    classes = []
    while pending:
        start = pending.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul(mul(g, x), inv(g))
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        pending -= orbit
        classes.append(frozenset(orbit))
    return classes


def exact_product_sizes(cls, mul, k: int):
    """Sizes of the exact j-fold products of a class, j = 1..k."""
    base = frozenset(cls)
    cur = base
    sizes = [len(cur)]
    for _ in range(k - 1):
        cur = frozenset(mul(a, b) for a in cur for b in base)
        sizes.append(len(cur))
    return sizes


def set_powers(subset, mul):
    """The element sets S, S*S, ... until one repeats an earlier one, as
    (list of the distinct sets, index of the set the repeat equals)."""
    base = frozenset(subset)
    powers = [base]
    while True:
        nxt = frozenset(mul(a, b) for a in powers[-1] for b in base)
        if nxt in powers:
            return powers, powers.index(nxt)
        powers.append(nxt)


def set_power(powers, start, k: int):
    """S^k, k >= 1, from set_powers: past the last distinct set, k is
    reduced into the cycle that begins at index start."""
    i = k - 1
    if i >= len(powers):
        i = start + (i - start) % (len(powers) - start)
    return powers[i]


def covering_number_bruteforce(cls, mul, order: int, max_k: int = 16):
    """Least k with the exact k-fold product full, None on a repeated state."""
    base = frozenset(cls)
    cur = base
    seen = set()
    for k in range(1, max_k + 1):
        if len(cur) == order:
            return k
        if cur in seen:
            return None
        seen.add(cur)
        cur = frozenset(mul(a, b) for a in cur for b in base)
    raise RuntimeError(f"undecided after {max_k} steps")


def power_covering_bruteforce(elements, mul, sides):
    """Whether S_1 * ... * S_t is the whole group for every choice of one
    power per side, by brute force over element sets.

    Each side is (x, k, m, symmetric) and gives, for each power
    1 <= i <= m (m = inf: up to the order of x), the exact k-fold product
    S = B^k of B = C(x^i), or C(x^i) u C(x^-i) when symmetric.  Powers come
    from repeated products, classes from conjugating by every element, and
    set products from every pair (stopping once the whole group is met).
    """
    identity = next(x for x in elements if mul(x, x) == x)
    order = len(elements)
    inverse = {}
    for h in elements:
        y = h
        while mul(y, h) != identity:
            y = mul(y, h)
        inverse[h] = y

    def conjugacy_class(z):
        return frozenset(mul(mul(h, z), inverse[h]) for h in elements)

    def product(a, b):
        out = set()
        for u in a:
            out.update(mul(u, v) for v in b)
            if len(out) == order:
                break
        return frozenset(out)

    kfold = {}

    def power_sets(x, k, m, symmetric):
        if m == math.inf:
            m, y = 1, x
            while y != identity:
                m, y = m + 1, mul(y, x)
        sets = []
        y = x
        for _ in range(m):
            base = conjugacy_class(y)
            if symmetric:
                base |= conjugacy_class(inverse[y])
            if (base, k) not in kfold:
                s = base
                for _ in range(k - 1):
                    s = product(s, base)
                kfold[base, k] = s
            sets.append(kfold[base, k])
            y = mul(y, x)
        return sets

    for choice in itertools.product(*(power_sets(*side) for side in sides)):
        s = choice[0]
        for t in choice[1:]:
            s = product(s, t)
        if len(s) != order:
            return False
    return True


def exact_product_sizes_rows(class_tuples, k: int):
    """Row-array version of exact_product_sizes for permutation classes too
    large for the set-of-tuples route (thousands of elements)."""
    base = np.array(sorted(class_tuples), dtype=np.uint8)
    cur = base
    sizes = [len(cur)]
    for _ in range(k - 1):
        stacked = np.concatenate([cur[:, b] for b in base])
        cur = np.unique(stacked, axis=0)
        sizes.append(len(cur))
    return sizes


def class_structure_constants(elements, mul, classes):
    """Structure constants of the class algebra, by brute force.

    classes lists each conjugacy class as indices into elements, its first
    listed member serving as the class's representative.  Returns two
    r x r x r integer arrays:
      n[j, i, k] = #{y in C_i : x_j y in C_k}, x_j the representative of C_j;
      a[i, j, k] = #{(x, y) in C_i x C_j : x y = z_k}, z_k that of C_k,
    the latter counted through the partner y = x^-1 z_k of each x in C_i,
    with x^-1 the last power of x before the identity.
    """
    index = {x: t for t, x in enumerate(elements)}
    class_of = {t: c for c, members in enumerate(classes) for t in members}
    identity = next(x for x in elements if mul(x, x) == x)
    reps = [elements[members[0]] for members in classes]
    r = len(classes)
    n = np.zeros((r, r, r), dtype=np.int64)
    a = np.zeros((r, r, r), dtype=np.int64)
    for i, members in enumerate(classes):
        for t in members:
            y = elements[t]
            for j, x in enumerate(reps):
                n[j, i, class_of[index[mul(x, y)]]] += 1
            y_inv = y
            while mul(y_inv, y) != identity:
                y_inv = mul(y_inv, y)
            for k, z in enumerate(reps):
                a[i, class_of[index[mul(y_inv, z)]], k] += 1
    return n, a


# -- SL2(p) carrier ----------------------------------------------------------

def sl2_gens(p: int):
    """Standard generators (1,1;0,1) and (0,1;-1,0) as entry 4-tuples."""
    return [(1, 1, 0, 1), (0, 1, p - 1, 0)]


def sl2_mul(p: int):
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            (a * e + b * g) % p,
            (a * f + b * h) % p,
            (c * e + d * g) % p,
            (c * f + d * h) % p,
        )
    return mul


def sl2_inv(p: int):
    def inv(x):
        a, b, c, d = x
        # det is 1 throughout SL2
        return (d % p, -b % p, -c % p, a % p)
    return inv


# -- character degrees, two independent routes -------------------------------

def degrees_regular_rep(gens, mul, inv, seed: int = 7):
    """Degrees from eigenvalue clusters of a random central element in the
    regular representation; each irreducible contributes a d^2 cluster."""
    elements = sorted(group_closure(gens, mul))
    order = len(elements)
    index = {x: i for i, x in enumerate(elements)}
    classes = conjugacy_partition(elements, gens, mul, inv)
    rng = np.random.default_rng(seed)
    z = np.zeros((order, order), dtype=complex)
    cols = np.arange(order)
    for cls in classes:
        w = complex(rng.standard_normal(), rng.standard_normal())
        for x in cls:
            rows = np.array([index[mul(x, h)] for h in elements])
            z[rows, cols] += w
    eig = np.linalg.eigvals(z)
    return _degrees_from_clusters(eig, order)


def _degrees_from_clusters(eig, order: int):
    tol = 1e-6 * (1.0 + float(np.abs(eig).max()))
    centers = []
    counts = []
    for e in sorted(eig, key=lambda v: (v.real, v.imag)):
        for i, c in enumerate(centers):
            if abs(e - c) < tol:
                counts[i] += 1
                break
        else:
            centers.append(e)
            counts.append(1)
    degs = []
    for c in counts:
        d = round(c ** 0.5)
        if d * d != c:
            raise RuntimeError(f"cluster size {c} is not a perfect square")
        degs.append(d)
    degs.sort()
    if sum(d * d for d in degs) != order:
        raise RuntimeError("degree squares do not sum to the order")
    return tuple(degs)


def degrees_class_algebra(gens, mul, inv, seed: int = 11):
    """Degrees from the class algebra over C.

    Multiplication by a class sum acts on the span of the class sums; the
    simultaneous eigenvectors give the central characters omega_i(C_j) =
    |C_j| chi_i(g_j) / d_i, and the second orthogonality relation turns
    each eigenvector into its degree:
    d_i^2 = |G| / sum_j |omega_ij|^2 / |C_j|.
    """
    elements = group_closure(gens, mul)
    order = len(elements)
    classes = conjugacy_partition(elements, gens, mul, inv)
    classes.sort(key=lambda c: (len(c), sorted(c)[0]))
    r = len(classes)
    reps = [sorted(c)[0] for c in classes]
    class_of = {x: i for i, c in enumerate(classes) for x in c}

    a = np.zeros((r, r, r))  # a[i, j, k] = #{(x, y) in C_i x C_j : xy = rep_k}
    for i, cls in enumerate(classes):
        for x in cls:
            xi = inv(x)
            for k, rep in enumerate(reps):
                a[i, class_of[mul(xi, rep)], k] += 1

    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    m_all = [a[i].T for i in range(r)]
    combo = sum(c * m for c, m in zip(coeff, m_all))
    _, vecs = np.linalg.eig(combo)

    sizes = np.array([len(c) for c in classes], dtype=float)
    degs = []
    for t in range(r):
        v = vecs[:, t]
        pivot = int(np.argmax(np.abs(v)))
        omega = np.array([(m @ v)[pivot] / v[pivot] for m in m_all])
        d_sq = order / float(np.sum(np.abs(omega) ** 2 / sizes))
        d = round(d_sq ** 0.5)
        if abs(d * d - d_sq) > 1e-4 * max(1.0, d_sq):
            raise RuntimeError(f"non-integer degree estimate {d_sq ** 0.5}")
        degs.append(d)
    degs.sort()
    if sum(d * d for d in degs) != order:
        raise RuntimeError("degree squares do not sum to the order")
    return tuple(degs)


# -- character degrees in closed form ----------------------------------------
# Each family's degree multiset from its formula, sorted, and checked to
# have squares summing to |G|: S_n by hook lengths (Frame, Robinson and
# Thrall 1954), A_n by restriction from S_n, and SL2(q) and PSL2(q) for odd
# q (Fulton and Harris, Representation Theory, 1991, sections 5.1 and 5.2).

def _closed_form(degrees, order: int):
    degrees = tuple(sorted(degrees))
    assert sum(d * d for d in degrees) == order
    return degrees


def partitions(n: int, largest: int):
    """The partitions of n into parts of at most largest, as non-increasing
    tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate_partition(shape):
    return tuple(sum(1 for row in shape if row > j) for j in range(shape[0]))


def hook_length_degree(shape) -> int:
    """n! over the product of the hook lengths of the Young diagram."""
    cols = conjugate_partition(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return math.factorial(sum(shape)) // hooks


def symmetric_degrees(n: int):
    return _closed_form(map(hook_length_degree, partitions(n, n)), math.factorial(n))


def alternating_degrees(n: int):
    """A pair of conjugate shapes restricts to one irreducible of A_n, and a
    self-conjugate shape splits into two of half its degree (n >= 2)."""
    out = []
    for shape in partitions(n, n):
        conj = conjugate_partition(shape)
        f = hook_length_degree(shape)
        if shape == conj:
            out += [f // 2, f // 2]
        elif shape > conj:
            out.append(f)
    return _closed_form(out, math.factorial(n) // 2)


def sl2_degrees(q: int):
    """SL2(q), q odd: 1, q, q + 1 (q - 3)/2 times, q - 1 (q - 1)/2 times,
    and (q + 1)/2 and (q - 1)/2 twice each."""
    out = [1, q] + [q + 1] * ((q - 3) // 2) + [q - 1] * ((q - 1) // 2)
    out += [(q + 1) // 2] * 2 + [(q - 1) // 2] * 2
    return _closed_form(out, q * (q * q - 1))


def psl2_degrees(q: int):
    """PSL2(q), q odd: the characters of SL2(q) trivial on -1."""
    if q % 4 == 1:
        out = [q + 1] * ((q - 5) // 4) + [q - 1] * ((q - 1) // 4) + [(q + 1) // 2] * 2
    else:
        out = [q + 1] * ((q - 3) // 4) + [q - 1] * ((q - 3) // 4) + [(q - 1) // 2] * 2
    return _closed_form([1, q] + out, q * (q * q - 1) // 2)


def cyclic_degrees(n: int):
    return _closed_form([1] * n, n)


def dihedral_degrees(n: int):
    """D_n of order 2n: 2 linear characters for odd n and 4 for even n, the
    rest of degree 2."""
    linear = 2 if n % 2 else 4
    return _closed_form([1] * linear + [2] * ((2 * n - linear) // 4), 2 * n)


def product_degrees(a, b):
    return _closed_form(
        [d * e for d in a for e in b], sum(d * d for d in a) * sum(e * e for e in b)
    )


# -- mod-p elimination, written small and slow -------------------------------

def rank_mod_p(rows, p: int) -> int:
    rows = [[int(x) % p for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * scale) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def echelon_mod_p(rows, p: int):
    """gf._eliminate's contract for one matrix: in each column the first
    nonzero row is the pivot row, scaled to a leading 1 and stored at its
    column, and the column is cleared in every row, the pivot row too, so
    that row is zero from then on.  Returns (echelon, pivots): echelon[c]
    the scaled pivot row of column c or zeros, pivots[c] its entry before
    scaling or 0."""
    rows = [[int(x) % p for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    echelon = [[0] * ncols for _ in range(ncols)]
    pivots = [0] * ncols
    for col in range(ncols):
        piv = next((i for i, row in enumerate(rows) if row[col]), None)
        if piv is None:
            continue
        pivots[col] = rows[piv][col]
        scale = pow(pivots[col], p - 2, p)
        echelon[col] = [(x * scale) % p for x in rows[piv]]
        rows = [[(x - row[col] * y) % p for x, y in zip(row, echelon[col])] for row in rows]
    return echelon, pivots


def det_mod_p(rows, p: int) -> int:
    rows = [[int(x) % p for x in row] for row in rows]
    n = len(rows)
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = (det * rows[col][col]) % p
        scale = pow(rows[col][col], p - 2, p)
        for i in range(col + 1, n):
            f = (rows[i][col] * scale) % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[col])]
    return det % p


def jordan_length_reference(entries, p: int) -> Fraction:
    """(n - max_a dim ker(a - g))/n over a in F_p^*, by plain elimination."""
    n = len(entries)
    best = 0
    for a in range(1, p):
        shifted = [
            [((a if i == j else 0) - entries[i][j]) % p for j in range(n)]
            for i in range(n)
        ]
        best = max(best, n - rank_mod_p(shifted, p))
    return Fraction(n - best, n)


def poly_roots_bruteforce(coeffs, ell: int):
    """The x in F_ell, ascending, at which the polynomial with coefficients
    coeffs, leading first, vanishes mod ell: Horner's rule in Python ints."""
    roots = []
    for x in range(ell):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % ell
        if acc == 0:
            roots.append(x)
    return roots


# -- unitary geometry at 50 digits -------------------------------------------

def packing_m_highprec(eps: Fraction) -> int:
    """Least m >= 2 with 2 sin(pi/m) < eps; the two rational ties are
    detected by a window of eps * 10^-(40 + d) and count as not-below, d
    the digits of 1/eps.  The chord passes eps at m = pi / asin(eps / 2), so
    the scan starts just below it; 50 + 2d digits resolve chords of
    neighbouring m, which differ by about eps^2 / 2 pi, far past the window."""
    d = len(str(eps.denominator // eps.numerator))
    with mp.workdps(50 + 2 * d):
        target = mp.mpf(eps.numerator) / eps.denominator
        window = target * mp.mpf(10) ** -(40 + d)
        m = max(2, int(mp.floor(mp.pi / mp.asin(target / 2))) - 2)
        while True:
            chord = 2 * mp.sin(mp.pi / m)
            if abs(chord - target) > window and chord < target:
                return m
            m += 1


def power_witness_highprec(angles, d: int, kmax: int = 10**5):
    """Smallest k with sum_j |e^(ik theta) - 1|^2 > 2, plus the length."""
    with mp.workdps(50):
        for k in range(1, kmax + 1):
            sq = 2 * d - 2 * sum(mp.cos(k * t) for t in angles)
            if sq - 2 > mp.mpf("1e-30"):
                return k, float(mp.sqrt(sq))
        return None


def chord_highprec(k: int, m: int) -> float:
    """|e^(2 pi i k / m) - 1| = 2 sin(pi k / m) at 50 digits, as a float."""
    with mp.workdps(50):
        return float(2 * mp.sin(mp.pi * k / m))


# -- small arithmetic oracles ------------------------------------------------

def solve_two_prime_bruteforce(n: int, p: int, q: int):
    """Minimal-a solution of n = ap + bq with a, b >= 1 and max(a, b) >= 2."""
    for a in range(1, n // p + 1):
        rest = n - a * p
        if rest < q:
            break
        if rest % q == 0 and max(a, rest // q) >= 2:
            return a, rest // q
    return None


# -- length axioms on U_D, one Haar sample at a time -------------------------

def haar_unitary_loop(d: int, rng) -> np.ndarray:
    """One Haar unitary: QR of a complex Ginibre matrix, real part drawn
    first, with the phases of R's diagonal folded back into Q."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def length_axioms_loop(samples: int, d: int, seed: int) -> dict:
    """Worst violation of each length axiom of ell(A) = ||A - I|| over
    Haar triples (a, b, c), drawn and checked one sample at a time.

    An inverse is the conjugate transpose as a view, so its norm sums its
    entries in the same memory order as a copy made with np.array would.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(d)

    def length(x):
        return float(np.linalg.norm(x - eye))

    def dist(x, y):
        return float(np.linalg.norm(x - y))

    worst = {
        "identity_length": length(eye),
        "symmetry": 0.0,
        "conjugation": 0.0,
        "triangle": 0.0,
        "bi_invariance": 0.0,
        "trace_identity": 0.0,
    }
    for _ in range(samples):
        a, b, c = (haar_unitary_loop(d, rng) for _ in range(3))
        la, lb = length(a), length(b)
        worst["symmetry"] = max(worst["symmetry"], abs(la - length(a.conj().T)))
        conj = b @ a @ b.conj().T
        worst["conjugation"] = max(worst["conjugation"], abs(length(conj) - la))
        worst["triangle"] = max(worst["triangle"], length(a @ b) - la - lb)
        direct = dist(b, c)
        worst["bi_invariance"] = max(
            worst["bi_invariance"],
            abs(dist(a @ b, a @ c) - direct),
            abs(dist(b @ a, c @ a) - direct),
        )
        trace_form = 2 * d - 2 * np.trace(a).real
        worst["trace_identity"] = max(worst["trace_identity"], abs(la * la - trace_form))
    return worst
