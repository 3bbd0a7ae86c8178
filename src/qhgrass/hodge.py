"""chi_y genera of Gr(k, n) and of its hyperplane sections by localization.

The torus with weights x_1, ..., x_n acts on Gr(k, n) with one fixed point per
k-subset S, tangent weights x_j - x_i for i in S, j outside, and Pluecker line
weight sum(x_i, i in S).  Summing the holomorphic Lefschetz contributions

    prod (1 + y t^-w) / (1 - t^-w)    [times (1 - t^h) / (1 + y t^h) for the
                                       degree-one section, h the line weight]

over fixed points gives an equivariant character; the numeric genus is its
value in the non-equivariant limit t -> 1.  The limit is taken exactly: with
the x_i specialized to distinct random integers (one draw; a failure is a
bug), each contribution is a Laurent series in u = t - 1 and the pole parts
must cancel in the sum, asserted term by term.  One pass over the fixed points
serves every integer y-sample: the y-independent series are built once per
fixed point, and each sample divides by its unit through one scaled integer
inverse, so series products stay in ints.  The y-polynomial is interpolated
exactly from the samples under Serre symmetry, with one extra sample as a
checksum and integrality of every coefficient enforced.

Sign conventions are pinned by two built-in anchors: the ambient genus must
equal the box-partition count polynomial, and chi_y(0) = 1; any mismatch is a
fatal internal error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import InternalConsistencyError, InvalidInputError
from .partitions import Box, box_partitions_of_size
from .polynomials import UniPoly
from .screen import BettiProfile

DEFAULT_SEED = 20250809


def _binomial_row(m: int, order: int) -> list[int]:
    """Coefficients of (1 + u)^m up to degree `order` (m may be negative)."""
    row = [1]
    c = 1
    for j in range(1, order + 1):
        num = c * (m - j + 1)
        c, r = divmod(num, j)
        if r:
            raise InternalConsistencyError("binomial recursion left a remainder")
        row.append(c)
    return row


def _series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            top = order - i
            for j, bj in enumerate(b[: top + 1]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _scaled_inverse(a: list[int], order: int) -> list[int]:
    """Integers b' with 1/a = sum_j b'_j u^j / e0^(order+1), e0 = a[0].

    b'_j = b_j e0^(order-j) for the integer recursion b_0 = 1,
    b_j = -sum_{i>=1} a_i e0^(i-1) b_{j-i}; so the division by e0 is exact.
    """
    if not a or a[0] == 0:
        raise InternalConsistencyError("series inversion needs a unit")
    out = [a[0] ** order]
    for j in range(1, order + 1):
        out.append(-sum(a[i] * out[j - i] for i in range(1, min(j, len(a) - 1) + 1)) // a[0])
    return out


def draw_torus_weights(n: int, seed: int) -> list[int]:
    """Distinct nonzero integer specializations of the torus weights."""
    rng = random.Random(seed)
    return rng.sample(range(1, 12 * n + 1), n)


def _fixed_point_sums(k: int, n: int, section: bool, xs: list[int], ys: list[int]) -> list[Fraction]:
    """Exact value of the fixed-point sum at t = 1 for each integer sample y.

    Each contribution is u^{-d} (ambient) or u^{-(d-1)} (section, whose
    numerator carries one factor of u) times a regular series in u = t - 1:
    the numerator prod (1 + y (1+u)^-w) [times H = (1 - (1+u)^h) / u] over
    the unit D = prod (1 - (1+u)^-w) / u [times 1 + y (1+u)^h].  The weights,
    D and H are built once per fixed point; the pole part of every sum is
    checked to cancel exactly, and its constant Laurent coefficient returned.
    """
    d = k * (n - k)
    order = d if not section else d - 1
    rows: dict[int, list[int]] = {}

    def row(m):
        # one term beyond the truncation order: factors divided by u shift down
        if m not in rows:
            rows[m] = _binomial_row(m, order + 1)
        return rows[m]

    totals = [[Fraction(0)] * (order + 1) for _ in ys]
    for subset in combinations(range(n), k):
        tails = [row(xs[i] - xs[j])[1:] for i in subset for j in range(n) if j not in subset]
        denom = [1]
        for tail in tails:
            # (1 - (1+u)^-w) / u, a unit since w != 0
            denom = _series_mul(denom, [-c for c in tail], order)
        if section:
            h_tail = row(sum(xs[i] for i in subset))[1:]
            h_series = [-c for c in h_tail]  # (1 - (1+u)^h) / u
        for y, total in zip(ys, totals):
            num = [1]
            for tail in tails:
                num = _series_mul(num, [1 + y] + [y * c for c in tail], order)
            unit = denom
            if section:
                num = _series_mul(num, h_series, order)
                unit = _series_mul(denom, [1 + y] + [y * c for c in h_tail], order)
            scale = unit[0] ** (order + 1)
            for m, c in enumerate(_series_mul(num, _scaled_inverse(unit, order), order)):
                if c:
                    total[m] += Fraction(c, scale)
    for y, total in zip(ys, totals):
        for j in range(order):
            if total[j] != 0:
                raise InternalConsistencyError(
                    f"pole part did not cancel at order u^{j - order} (k={k}, n={n}, y={y})"
                )
    return [total[order] for total in totals]


def chi_y(k: int, n: int, section: bool = False, seed: int = DEFAULT_SEED) -> UniPoly:
    """chi_y(Gr(k,n)) or, with section=True, chi_y of its hyperplane section."""
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    d = k * (n - k)
    degree = d - 1 if section else d
    if section and degree < 0:
        raise InvalidInputError("section of a point")
    # unknown coefficients c_p for p <= degree/2; c_{degree-p} = (-1)^degree c_p
    unknowns = degree // 2 + 1
    ys = list(range(unknowns + 2))
    values = _fixed_point_sums(k, n, section, draw_torus_weights(n, seed), ys)
    sign = (-1) ** degree
    rows = []
    for y in ys:
        row = []
        for p in range(unknowns):
            mirror = degree - p
            if mirror == p:
                row.append(Fraction(y) ** p)
            else:
                row.append(Fraction(y) ** p + sign * Fraction(y) ** mirror)
        rows.append(row)
    # tall exact system: Serre symmetry is imposed, every sample must agree
    solution = linalg.solve(rows, values)
    coeffs = [Fraction(0)] * (degree + 1)
    for p, c in enumerate(solution):
        coeffs[p] = c
        coeffs[degree - p] = sign * c if degree - p != p else c
    poly = UniPoly(coeffs)
    if any(isinstance(c, Fraction) and c.denominator != 1 for c in poly.coeffs):
        raise InternalConsistencyError("chi_y has a non-integer coefficient")
    if poly(0) != 1:
        raise InternalConsistencyError("chi_y(0) != 1: sign conventions are broken")
    if not section:
        expected = UniPoly(
            [(-1) ** p * len(box_partitions_of_size(k, n, p)) for p in range(d + 1)]
        )
        if poly != expected:
            raise InternalConsistencyError("ambient chi_y does not match box-partition counts")
    return poly


@dataclass(frozen=True)
class HodgeDiamond:
    """Hodge numbers h^{p,q} of a smooth hyperplane section, with the chi_y
    genus they were solved from."""

    dim: int
    entries: tuple[tuple[int, ...], ...]
    genus: UniPoly

    def h(self, p: int, q: int) -> int:
        return self.entries[p][q]

    def total(self) -> int:
        return sum(sum(row) for row in self.entries)

    def middle_off_diagonal(self) -> list[tuple[int, int, int]]:
        out = []
        for p in range(self.dim + 1):
            q = self.dim - p
            if p != q and self.entries[p][q]:
                out.append((p, q, self.entries[p][q]))
        return out

    def column(self) -> list[int]:
        """Diagonal entries h^{0,0}, ..., h^{d,d} (the displayed diamond column)."""
        return [self.entries[p][p] for p in range(self.dim + 1)]

    def is_hodge_tate(self) -> bool:
        return not self.middle_off_diagonal()


def diamond(k: int, n: int, seed: int = DEFAULT_SEED) -> HodgeDiamond:
    """Hodge diamond of the smooth hyperplane section of Gr(k, n).

    Off-middle rows are copied from the ambient box-partition counts through
    the Lefschetz isomorphism; the middle anti-diagonal is solved from the
    chi_y coefficients.
    """
    if n < 2 or not 1 <= k <= n // 2:
        raise InvalidInputError(f"diamond needs 1 <= k <= n/2, got k={k}, n={n}")
    genus = chi_y(k, n, section=True, seed=seed)
    d = k * (n - k) - 1
    box_count = [len(box_partitions_of_size(k, n, p)) for p in range(d + 2)]
    h = [[0] * (d + 1) for _ in range(d + 1)]
    for p in range(d + 1):
        if 2 * p != d:
            h[p][p] = box_count[min(p, d - p)]
    for p in range(d + 1):
        q = d - p
        chi_p = genus[p]
        if p == q:
            value = (-1) ** p * chi_p
        else:
            value = (-1) ** q * (chi_p - (-1) ** p * h[p][p])
        if value < 0:
            raise InternalConsistencyError(f"negative Hodge number h^({p},{q}) = {value}")
        h[p][q] = value
    for p in range(d + 1):
        if h[p][d - p] != h[d - p][p]:
            raise InternalConsistencyError("Hodge symmetry failed on the middle row")
    result = HodgeDiamond(d, tuple(tuple(row) for row in h), genus)
    euler = sum(
        (-1) ** (p + q) * result.entries[p][q] for p in range(d + 1) for q in range(d + 1)
    )
    if euler != genus(-1):
        raise InternalConsistencyError("diamond disagrees with the Euler number")
    return result


@dataclass(frozen=True)
class HodgeTateCertificate:
    method: str  # "middle-row-jump" (fast path) or "diamond"
    detail: tuple


def is_hodge_tate(k: int, n: int, seed: int = DEFAULT_SEED) -> tuple[bool, HodgeTateCertificate]:
    """Whether the hyperplane section of Gr(k, n) has only (p,p) cohomology.

    When dim Gr(k, n) > 2n the answer is no with the middle-row Hodge number
    h^{dim X - n, n - 1} = 1 as certificate, without any localization; the
    borderline dim = 2n cases go through the full diamond.
    """
    if n < 2 * k:
        raise InvalidInputError(f"assume n >= 2k (use the dual side), got k={k}, n={n}")
    dim_x = k * (n - k)
    if dim_x > 2 * n:
        return False, HodgeTateCertificate("middle-row-jump", (dim_x - n, n - 1, 1))
    dia = diamond(k, n, seed=seed)
    off = dia.middle_off_diagonal()
    if off:
        return False, HodgeTateCertificate("diamond", tuple(off))
    return True, HodgeTateCertificate("diamond", ())


def vanishing_check(k: int, n: int) -> bool:
    """Exhaustive combinatorial confirmation of the twisted-form vanishing used
    by the middle-row fast path, through the nonvanishing witness search."""
    from .partitions import snow_witnesses

    dim_x = k * (n - k)
    if dim_x <= 2 * n:
        raise InvalidInputError("vanishing check applies only when k(n-k) > 2n")
    box = Box(k, n)
    for p in range(2, n + 1):
        for j in range(1, p):
            if snow_witnesses(box, dim_x - j, p - j):
                return False
    return True


def section_profile(k: int, n: int, seed: int = DEFAULT_SEED) -> BettiProfile:
    """Even Betti profile of the hyperplane section, from its Hodge diamond.

    Only defined when the section has no odd cohomology (all middle
    anti-diagonal contributions sit in even total degree).
    """
    dia = diamond(k, n, seed=seed)
    d = dia.dim
    if d % 2 == 1 and dia.middle_off_diagonal():
        raise InvalidInputError(
            f"section of Gr({k},{n}) has odd-degree cohomology; no even Betti profile"
        )
    betti = []
    for i in range(d + 1):
        b = dia.h(i, i)
        if 2 * i == d:
            b += sum(v for p, q, v in dia.middle_off_diagonal())
        betti.append(b)
    return BettiProfile(tuple(betti), n - 1, f"section of Gr({k},{n})")
