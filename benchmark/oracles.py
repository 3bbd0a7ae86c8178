"""Answers computed apart from qhgrass, for the benchmark's output checks.

Nothing here imports the program.  Each function derives a value the
mathematics forces from a textbook description (Gaussian binomials, Weyl group
degrees, beta sets, the eigenvalues of quantum multiplication at q = 1), so a
check that compares the program's output against it is not the program
agreeing with itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

# dim H_prim(Y) in even degree for the smooth hyperplane section Y of Gr(3, n):
# the middle Hodge number h^{d,d} of Y exceeds the ambient count by one for
# n = 6 and n = 8, and Y has odd dimension for n = 7.  A stored copy; the
# README gives the command that recomputes it by localization.
SECTION_PRIMITIVE = {6: 1, 7: 0, 8: 1}


# -- polynomials with integer coefficients, lowest degree first --------------


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Division by a polynomial with leading coefficient 1."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = rem[shift + len(den) - 1]
        if c:
            quot[shift] = c
            for i, d in enumerate(den):
                rem[shift + i] -= c * d
    return quot, rem[: len(den) - 1]


def q_integer(d: int) -> list:
    """[d]_t = 1 + t + ... + t^{d-1}."""
    return [1] * d


# -- Grassmannians and their hyperplane sections --------------------------------


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial [n choose k]_t: the even Betti
    numbers of Gr(k, n), and the number of partitions of each size in the
    k x (n-k) box."""
    if k < 0 or k > n:
        return (0,)
    if k == 0 or k == n:
        return (1,)
    left = gaussian_binomial(n - 1, k - 1)
    right = (0,) * k + gaussian_binomial(n - 1, k)
    size = max(len(left), len(right))
    return tuple(
        (left[i] if i < len(left) else 0) + (right[i] if i < len(right) else 0)
        for i in range(size)
    )


def section_betti(k: int, n: int, primitive: int) -> list[int]:
    """Even Betti numbers of the smooth hyperplane section Y of Gr(k, n).

    Below the middle they are those of Gr(k, n) (Lefschetz hyperplane
    theorem), above it they mirror (Poincare duality), and the middle one
    adds the even primitive classes.
    """
    ambient = gaussian_binomial(n, k)
    dim_y = k * (n - k) - 1
    return [
        ambient[min(j, dim_y - j)] + (primitive if 2 * j == dim_y else 0)
        for j in range(dim_y + 1)
    ]


def periodic_betti(betti: list[int], index: int) -> list[int]:
    """tilde_b(i): Betti numbers summed over complex degrees = i mod index."""
    out = [0] * index
    for j, b in enumerate(betti):
        out[j % index] += b
    return out


def screen_violations(betti: list[int], index: int) -> list[tuple[int, int, int, int]]:
    """Every (i, d, tilde_b(i), tilde_b(d i)) with tilde_b(i) > tilde_b(d i),
    in lexicographic order of (i, d), 1 <= d <= index."""
    tb = periodic_betti(betti, index)
    return [
        (i, d, tb[i], tb[d * i % index])
        for i in range(index)
        for d in range(1, index + 1)
        if tb[i] > tb[d * i % index]
    ]


def is_ade(k: int, n: int) -> bool:
    """The A-D-E test: 1/2 + 1/k + 1/(n-k) > 1."""
    return Fraction(1, 2) + Fraction(1, k) + Fraction(1, n - k) > 1


# -- cores in a box -------------------------------------------------------------


def box_partitions_at_least(k: int, n: int, least: int) -> list[tuple[int, ...]]:
    """Partitions in the k x (n-k) box with at least `least` cells."""
    out = []

    def rec(prefix, rows_left, maxpart, total):
        if rows_left == 0:
            if total >= least:
                out.append(tuple(a for a in prefix if a))
            return
        # the remaining rows hold at most rows_left * maxpart cells
        for a in range(maxpart, -1, -1):
            if total + a * rows_left < least:
                break
            rec(prefix + (a,), rows_left - 1, a, total + a)

    rec((), k, n - k, 0)
    return out


def is_core(lam: tuple[int, ...], ell: int, k: int) -> bool:
    """lam is an ell-core iff its beta set B = {lam_i + k - i} satisfies
    b in B, b > ell  =>  b - ell in B."""
    padded = tuple(lam) + (0,) * (k - len(lam))
    beta = {padded[i] + k - i for i in range(k)}
    return all(b - ell in beta for b in beta if b > ell)


def core_hits(k: int, n: int) -> list[tuple[tuple[int, ...], int]]:
    """(lam, i) with lam an (n-i)-core of at least k(n-k) - i cells in the box,
    i from n-1 down to 1, partitions lexicographically decreasing."""
    full = k * (n - k)
    out = []
    for i in range(n - 1, 0, -1):
        for lam in sorted(box_partitions_at_least(k, n, full - i), reverse=True):
            if is_core(lam, n - i, k):
                out.append((lam, i))
    return out


# -- quantum multiplication at q = 1 through its eigenvalues --------------------


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial, from t^m - 1 = prod over d | m of Phi_d."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly_divmod(num, list(cyclotomic(d)))
            if any(rem):
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(num)


@lru_cache(maxsize=None)
def ambient_charpoly_power(k: int, n: int, e1_power: int, e2_power: int) -> tuple[int, ...]:
    """Characteristic polynomial of e_1^a e_2^b on all of QH(Gr(k, n)) at q = 1.

    The algebra is semisimple with one idempotent per k-subset I of the roots
    of x^n = (-1)^(k+1); there e_p acts by the elementary symmetric function
    e_p(x_I).  The eigenvalues lie in Z[zeta_2n], which is kept exact modulo
    the cyclotomic polynomial; the final coefficients must be integers.
    """
    m = 2 * n
    phi = list(cyclotomic(m))
    width = len(phi) - 1
    odd = (k + 1) % 2  # roots zeta^(2j + odd)

    def reduce(a):
        return poly_divmod(a + [0] * max(0, width + 1 - len(a)), phi)[1]

    def mul(a, b):
        return reduce(poly_mul(a, b))

    def power_of_zeta(e):
        out = [0] * m
        out[e % m] = 1
        return reduce(out)

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    zero = [0] * width
    one = [1] + [0] * (width - 1)
    exponents = [2 * j + odd for j in range(n)]
    charpoly = [one]  # coefficients in Z[zeta], lowest degree first
    for subset in combinations(exponents, k):
        e1 = zero
        for a in subset:
            e1 = add(e1, power_of_zeta(a))
        e2 = zero
        for a, b in combinations(subset, 2):
            e2 = add(e2, power_of_zeta(a + b))
        value = one
        for _ in range(e1_power):
            value = mul(value, e1)
        for _ in range(e2_power):
            value = mul(value, e2)
        # multiply by (x - value)
        shifted = [zero] + charpoly
        scaled = [mul(c, [-v for v in value]) for c in charpoly] + [zero]
        charpoly = [add(a, b) for a, b in zip(shifted, scaled)]
    out = []
    for c in charpoly:
        if any(c[1:]):
            raise ArithmeticError("characteristic polynomial coefficient is not rational")
        out.append(c[0])
    return tuple(out)


# -- generalized Grassmannians G/P_k of exceptional type ------------------------

WEYL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}

_E_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (6, 7), (7, 8)]

# Levi types of the maximal parabolics of F4 and G2 (Bourbaki labels; the
# degrees of B_m and C_m agree, so either name serves).
_NON_SIMPLY_LACED_LEVI = {
    ("F", 4): {1: [("C", 3)], 2: [("A", 1), ("A", 2)], 3: [("A", 2), ("A", 1)], 4: [("B", 3)]},
    ("G", 2): {1: [("A", 1)], 2: [("A", 1)]},
}


def _degrees(family: str, rank: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in "BC":
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return WEYL_DEGREES[(family, rank)]


def _simply_laced_type(nodes: set[int], edges: list[tuple[int, int]]) -> tuple[str, int]:
    """Type of a connected simply-laced Dynkin diagram from its shape."""
    adj = {v: [w for a, b in edges for v2, w in ((a, b), (b, a)) if v2 == v and w in nodes] for v in nodes}
    branch = [v for v in nodes if len(adj[v]) == 3]
    if not branch:
        return ("A", len(nodes))
    arms = []
    for start in adj[branch[0]]:
        length, prev, cur = 1, branch[0], start
        while len(adj[cur]) == 2:
            prev, cur = cur, next(w for w in adj[cur] if w != prev)
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return ("D", len(nodes))
    return ("E", len(nodes))


def levi_components(family: str, rank: int, node: int) -> list[tuple[str, int]]:
    if (family, rank) in _NON_SIMPLY_LACED_LEVI:
        return _NON_SIMPLY_LACED_LEVI[(family, rank)][node]
    edges = [(a, b) for a, b in _E_EDGES if a <= rank and b <= rank]
    rest = set(range(1, rank + 1)) - {node}
    parts = []
    while rest:
        comp, frontier = set(), [min(rest)]
        while frontier:
            v = frontier.pop()
            if v in comp:
                continue
            comp.add(v)
            frontier += [w for a, b in edges for v2, w in ((a, b), (b, a)) if v2 == v and w in rest]
        parts.append(_simply_laced_type(comp, edges))
        rest -= comp
    return parts


def exceptional_poincare(family: str, rank: int, node: int) -> list[int]:
    """Poincare polynomial of G/P_node in t = q^2:
    prod over degrees d of G of [d]_t, divided by the same product for the Levi."""
    num = [1]
    for d in _degrees(family, rank):
        num = poly_mul(num, q_integer(d))
    den = [1]
    for fam, r in levi_components(family, rank, node):
        for d in _degrees(fam, r):
            den = poly_mul(den, q_integer(d))
    quot, rem = poly_divmod(num, den)
    if any(rem):
        raise ArithmeticError("Levi Poincare polynomial does not divide")
    return quot
