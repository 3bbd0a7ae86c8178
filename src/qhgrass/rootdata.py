"""Root systems of types A-G and numerical invariants of G/P_k.

Simple roots are indexed by Bourbaki node labels.  Roots are kept as integer
coordinate vectors over the simple-root basis, and everything derives from
the integer Cartan matrix, which the Dynkin diagram and the root lengths give
directly.  positive_roots grows the roots layer by height, and each root
carries its Cartan pairings and root-string depths to the roots above it;
during the search a root is an int key (see _DIGIT).  dimension, fano_index
and nilradical_heights read one cached pass over the nilradical of G/P_k.

The Betti numbers come from root heights.  Macdonald (The Poincare series of
a Coxeter group, Math. Ann. 1972) gives sum_{w in W} t^l(w) as the product of
[ht beta + 1]_t / [ht beta]_t over the positive roots, with
[m]_t = 1 + t + ... + t^(m-1).  The Schubert cells of G/P_k are indexed by
W / W_P with dimension the length of the shortest coset representative, so
P(G/P_k; t) = P_W(t) / P_{W_P}(t).  The positive roots of the Levi are those
with beta_k = 0, and the height of such a root is the sum of its simple-root
coefficients, the same in the Levi as in G.  Their factors cancel, and what is
left is the product over the nilradical roots, beta_k > 0.  Each bracket
[m]_t is multiplied in as a running window sum and divided out through
q [m]_t = p <=> q (1 - t^m) = p (1 - t), in O(deg) steps; every quotient is
multiplied back and checked.  The tests compare both with the string-walking
search and a polynomial product with one exact division.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import compress
from operator import add, gt

from .errors import InternalConsistencyError, InvalidInputError

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class DynkinType(namedtuple("DynkinType", "family rank")):
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        lo_hi = _RANK_RANGE.get(family)
        if lo_hi is None:
            raise InvalidInputError(f"unknown family {family!r}")
        lo, hi = lo_hi
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidInputError(f"rank {rank} invalid for type {family}")
        return super().__new__(cls, family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


class GrassmannianId(namedtuple("GrassmannianId", "type node")):
    """G/P_k: the quotient by the maximal parabolic omitting Bourbaki node k."""

    __slots__ = ()

    def __new__(cls, type: DynkinType, node: int):
        if not 1 <= node <= type.rank:
            raise InvalidInputError(f"node {node} out of range for {type}")
        return super().__new__(cls, type, node)

    def __str__(self):
        return f"{self.type}/P{self.node}"


def parse_type(text: str) -> DynkinType:
    """Parse 'E7', 'a5', 'D10' into a DynkinType."""
    text = text.strip()
    if len(text) < 2 or not text[1:].isdigit():
        raise InvalidInputError(f"cannot parse Dynkin type {text!r}")
    return DynkinType(text[0].upper(), int(text[1:]))


def _edges(t: DynkinType) -> list[tuple[int, int]]:
    """Dynkin diagram edges as 1-indexed node pairs, Bourbaki labels."""
    n = t.rank
    if t.family in "ABCFG":
        return [(i, i + 1) for i in range(1, n)]
    if t.family == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    # E types: chain 1-3-4-5-...-n plus node 2 hanging off node 4
    chain = [(1, 3)] + [(i, i + 1) for i in range(3, n)]
    return chain + [(2, 4)]


def _root_lengths(t: DynkinType) -> list[int]:
    """Squared lengths (alpha_i, alpha_i), short roots normalized to 2."""
    n = t.rank
    if t.family in ("A", "D", "E"):
        return [2] * n
    if t.family == "B":
        return [4] * (n - 1) + [2]
    if t.family == "C":
        return [2] * (n - 1) + [4]
    if t.family == "F":
        return [4, 4, 2, 2]
    return [2, 6]  # G2: alpha_1 short, alpha_2 long


@lru_cache(maxsize=None)
def cartan_matrix(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i), an integer.

    An edge carries as many bonds as the squared length ratio of its ends, so
    its entry is -ratio in the shorter root's row and -1 in the other's.
    """
    n = t.rank
    d = _root_lengths(t)
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in _edges(t):
        i, j = a - 1, b - 1
        cartan[i][j] = -max(1, d[j] // d[i])
        cartan[j][i] = -max(1, d[i] // d[j])
    return tuple(tuple(row) for row in cartan)


_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


# The root search time grows about as rank^2.6: A59, with 1,770 positive
# roots, takes 0.010-0.014 s of CPU on one Xeon core (best of 7, Python
# 3.11.7); E8, the largest exceptional type, has 120.
MAX_POSITIVE_ROOTS = 1_800

# Roots are searched as ints whose base-256 digits are the simple-root
# coefficients, alpha_1 the most significant: no coefficient of a root of a
# finite root system exceeds 6 (E8's highest root), so no digit carries and
# integer order is tuple order.
_DIGIT = 256


@lru_cache(maxsize=None)
def positive_roots(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """All positive roots in simple-root coordinates, by increasing height.
    A type with more than MAX_POSITIVE_ROOTS is refused before the search.

    The alpha_i-string through a root beta runs from beta - p alpha_i to
    beta + (p - <beta, alpha_i^v>) alpha_i, so beta + alpha_i is a root iff
    p > <beta, alpha_i^v>.  Each root carries its pairings and string depths
    p forward, layer by height: the pairings of beta + alpha_i are those of
    beta plus column i of the Cartan matrix, and its alpha_i-depth is one more
    than beta's.  Every root one step below a new root lies in the layer
    before it, so its depths are complete before it is read.  As a _DIGIT
    key, beta + alpha_i is one addition and a layer sorts as ints; the keys
    are decoded into coordinate tuples once, at the end.
    """
    expected = _POSITIVE_ROOT_COUNT[t.family](t.rank)
    if expected > MAX_POSITIVE_ROOTS:
        raise InvalidInputError(f"{t} has {expected} positive roots, over {MAX_POSITIVE_ROOTS}")
    n = t.rank
    columns = list(zip(*cartan_matrix(t)))
    steps = [_DIGIT ** (n - 1 - i) for i in range(n)]
    layer = {steps[i]: (columns[i], [0] * n) for i in range(n)}
    ordered = list(layer)
    while layer:
        nxt: dict = {}
        for key, (pairing, depth) in layer.items():
            for i in compress(range(n), map(gt, depth, pairing)):
                up = key + steps[i]
                entry = nxt.get(up)
                if entry is None:
                    entry = nxt[up] = (tuple(map(add, pairing, columns[i])), [0] * n)
                entry[1][i] = depth[i] + 1
        ordered.extend(sorted(nxt, reverse=True))
        layer = nxt
    if len(ordered) != expected:
        raise InternalConsistencyError(
            f"{t}: found {len(ordered)} positive roots, expected {expected}"
        )
    return tuple(tuple(key.to_bytes(n, "big")) for key in ordered)


@lru_cache(maxsize=None)
def _nilradical(g: GrassmannianId) -> tuple[int, int, Counter]:
    """One pass over the nilradical roots (beta_k > 0) of G/P_k: their
    number, the Fano index and the number of each height.  The index is the
    pairing of their sum against the marked coroot."""
    k = g.node - 1
    roots = [beta for beta in positive_roots(g.type) if beta[k]]
    total = [sum(c) for c in zip(*roots)]
    index = sum(x * c for x, c in zip(total, cartan_matrix(g.type)[k]))
    return len(roots), index, Counter(map(sum, roots))


def dimension(g: GrassmannianId) -> int:
    """Complex dimension: positive roots with positive alpha_k coefficient."""
    return _nilradical(g)[0]


def fano_index(g: GrassmannianId) -> int:
    """Pairing of the sum of roots in the nilradical against the marked coroot."""
    return _nilradical(g)[1]


def nilradical_heights(g: GrassmannianId) -> Counter:
    """The number of nilradical roots (beta_k > 0) of each height."""
    return _nilradical(g)[2]


def _times_bracket(coeffs: list[int], m: int) -> list[int]:
    """coeffs * [m]_t: each output coefficient is a window sum of m inputs."""
    out, window = [], 0
    for i in range(len(coeffs) + m - 1):
        window += (coeffs[i] if i < len(coeffs) else 0) - (coeffs[i - m] if i >= m else 0)
        out.append(window)
    return out


def _over_bracket(coeffs: list[int], m: int) -> list[int]:
    """coeffs / [m]_t, from q [m]_t = p <=> q (1 - t^m) = p (1 - t): q_i is
    p_i - p_(i-1) + q_(i-m).  The quotient is multiplied back and must give
    coeffs again."""
    out: list[int] = []
    for i in range(len(coeffs) - m + 1):
        out.append(coeffs[i] - (coeffs[i - 1] if i else 0) + (out[i - m] if i >= m else 0))
    if _times_bracket(out, m) != coeffs:
        raise InternalConsistencyError(f"[{m}]_t does not divide the bracket product")
    return out


def poincare_polynomial(g: GrassmannianId) -> tuple[int, ...]:
    """Coefficients, lowest degree first, whose t^i entry is the even Betti
    number b_{2i}(G/P_k).

    With c_h the number of nilradical roots of height h, the product of
    [h + 1]_t / [h]_t over those roots telescopes to
    prod_{m >= 2} [m]_t^(c_{m-1} - c_m).  The positive powers are multiplied
    in first, so each negative power then divides exactly; both take O(deg)
    steps per bracket.
    """
    heights = nilradical_heights(g)
    exponents = {m: heights[m - 1] - heights[m] for m in range(2, max(heights) + 2)}
    coeffs = [1]
    for m, e in exponents.items():
        for _ in range(e):
            coeffs = _times_bracket(coeffs, m)
    for m, e in exponents.items():
        for _ in range(-e):
            coeffs = _over_bracket(coeffs, m)
    if len(coeffs) - 1 != dimension(g):
        raise InternalConsistencyError(f"Poincare polynomial degree mismatch for {g}")
    if coeffs != coeffs[::-1]:
        raise InternalConsistencyError(f"Poincare polynomial of {g} is not palindromic")
    return tuple(coeffs)
