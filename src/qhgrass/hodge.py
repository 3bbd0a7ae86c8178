"""chi_y genera of Gr(k, n) and of its hyperplane sections by Borel-Weil-Bott.

Let S and Q be the tautological sub- and quotient bundles on X = Gr(k, n),
d = k(n-k).  Omega_X = S (x) Q*, so by the Cauchy formula Omega^p_X is the sum
of the irreducible homogeneous bundles S^lam S (x) S^lam' Q* over the
partitions lam of p in the k x (n-k) box (Weyman, Cohomology of Vector
Bundles and Syzygies, 2.3).  By Borel-Weil-Bott (Bott 1957; Weyman ch. 4)
the Euler characteristic of such a summand twisted by O(t) is the GL_n Weyl
dimension V(mu + rho) / V(rho), V(v) = prod_{i<j} (v_i - v_j), at
mu = (t - lam_k, ..., t - lam_1 | lam'_1, ..., lam'_{n-k}) and
rho = (n-1, ..., 1, 0).

The entries of mu + rho are t + n - 1 - x for x in the beta set
X = {lam_r + k - r : r = 1..k} of lam and n - 1 - y for y in its complement Y
in [0, n-1].  The factors inside each block are free of t, so the value is a
constant times the cross product prod_{x in X, y in Y} (t + y - x).  At t = 0
the entries are those of rho, reordered by a permutation with one inversion
for each pair y < x, and there are sum_r (x_r - (k - r)) = |lam| such pairs.
So the value at t = 0 is (-1)^|lam|, and |lam| is the degree Bott's algorithm
gives the summand: sorting mu + rho takes |lam| transpositions, so its one
nonzero group is H^|lam|, as it must be on a variety with only (p,p) classes.
So a(p, 0) = chi(Omega^p_X) is (-1)^p times the q^p coefficient of the
Gaussian binomial [n choose k]_q (partitions.box_counts): no Weyl product.
At the twist t = -j

    chi = (-1)^|lam| prod_{x, y} (y - x - j) / prod_{x, y} (y - x).

It is zero exactly when some x + j lies in Y (a singular weight), which one
bit-mask test detects.  Otherwise every s = x + j lies in X or beyond n - 1,
and the product over Y is read off the one over all of [0, n-1]:

    prod_{y in Y} (y - s) = A(s) / prod_{x' in X, x' != s} (x' - s),
    A(s) = prod_{y in [0, n-1], y != s} (y - s),

with A tabulated once per box from factorials.  Gr(k, n) = Gr(n - k, n) with
the same O(1), and exchanging k with n - k takes X to n - 1 - Y and Y to
n - 1 - X, which leaves every factor y - x - j as it is; so the sums are
taken on the narrow side, k' = min(k, n - k), and each twist is k' table
reads, about k'^2 small factors and one exact division, whose remainder is
checked.

For the smooth hyperplane section Y, a section of O(1), the exact sequences

    0 -> Omega^p_X(-1) -> Omega^p_X -> Omega^p_X|_Y -> 0,
    0 -> Omega^{p-1}_Y(-1) -> Omega^p_X|_Y -> Omega^p_Y -> 0

give chi(Omega^p_Y) = sum_{j=0}^{p} (-1)^j [a(p-j, -j) - a(p-j, -j-1)] with
a(m, t) = chi(Omega^m_X(t)).  With B(q) = sum_j (-1)^j a(q-j, -j) the sum is
B(p) + B(p+1) - a(p+1, 0), so each a(m, t) is computed once.

By the Lefschetz theorems h^{p,q}(Y) = h^{p,q}(X) off the middle row
p + q = dim Y, and X has only (p,p) classes, so the diamond is stored as two
lines: the diagonal h^{p,p} (box-partition counts off the middle) and the
middle row h^{p, dim Y - p}, solved from chi_y.  Every other h^{p,q} is 0.

Everything is exact and seedless, and each check here is a fatal internal
error on failure: the box counts sum to C(n, k) and are palindromic, the
section's beta sets tally to the same counts, each Weyl value is one exact
division, the section genus has Serre symmetry chi_p = (-1)^dim chi_{dim-p},
and chi_y(0) = 1.  The diamond is also checked against the A-D-E bijection:
the section is Hodge-Tate exactly when 1/2 + 1/k + 1/(n - k) > 1, that is
k(n - k) < 2n.  A box is refused before the first Weyl product when it has
more partitions than MAX_BWB_PARTITIONS, the only bound: the slowest box it
admits takes under a second.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import prod

from .errors import InternalConsistencyError, InvalidInputError
from .partitions import bounded_box_count, box_counts
from .screen import BettiProfile

# accepted and echoed by the CLI; no computation depends on it
DEFAULT_SEED = 20250809

# CPU of the section's chi_y, best of 5 (Intel Xeon, 2 vCPUs, Python 3.11.7), over every section admitted
# with 2 <= k <= n/2: (2, 99) 0.66 s and (2, 100) 0.48 s the slowest, (3, 32) 0.24 s, (7, 14) 0.25 s;
# the (1, 5000) section, with no regular twist, 0.01 s
MAX_BWB_PARTITIONS = 5_000


def _cross_table(n: int, top: int) -> list[int]:
    """A(s) = prod (y - s) over y in [0, n-1], y != s, for s = 0..top."""
    fact = [1]
    for i in range(1, top + 1):
        fact.append(fact[-1] * i)
    return [(-1) ** s * fact[s] * fact[n - 1 - s] if s < n else (-1) ** n * fact[s] // fact[s - n]
            for s in range(top + 1)]


def _euler_sums(k: int, n: int) -> list[int]:
    """B(q) for q = 0..d, the alternating twist sums of the section.

    One beta set X of Gr(k', n), k' = min(k, n - k), per box partition, with
    |lam| = sum X - k'(k'-1)/2.  At t = 0 each value is (-1)^|lam|.  At
    t = -j it is (-1)^|lam| prod_x A(x + j) / prod_x A(x) times the pairwise
    factors prod_{x' != x} (x' - x) over prod_{x' != x + j} (x' - x - j), the
    latter including the k' diagonal factors -j; zero when the shifted mask
    meets Y.  The beta sets are tallied by size as they go, and the tally
    must equal box_counts.
    """
    d = k * (n - k)
    counts = box_counts(k, n)
    k = min(k, n - k)
    tally = [0] * (d + 1)
    alternating = [0] * (d + 1)
    table = None
    full = (1 << n) - 1
    for beta in combinations(range(n), k):
        p = sum(beta) - k * (k - 1) // 2
        sign = -1 if p % 2 else 1
        tally[p] += 1
        alternating[p] += sign
        x_mask = sum(1 << x for x in beta)
        y_mask = full ^ x_mask
        diffs = None
        # a regular twist moves the largest x past n - 1, since x + j is not in X
        for j in range(max(1, n - beta[-1]), d - p + 1):
            if (x_mask << j) & y_mask:
                continue
            if diffs is None:
                # built at the first regular twist, so never on projective space;
                # s = x + j <= max X + d - |lam| <= d + k - 1, since |lam| >= lam_1 = max X - k + 1
                table = table or _cross_table(n, d + k - 1)
                diffs = [y - x for x in beta for y in beta if y != x]
                base = prod(table[x] for x in beta)
                scale = sign * prod(diffs)
            value, rem = divmod(
                scale * prod(table[x + j] for x in beta),
                base * (-j) ** k * prod(e - j for e in diffs if e != j),
            )
            if rem:
                raise InternalConsistencyError(f"Weyl dimension of beta set {beta} at t={-j} is fractional")
            alternating[p + j] += -value if j % 2 else value
    if tuple(tally) != counts:
        raise InternalConsistencyError("beta sets do not match box-partition counts")
    return alternating


def chi_y(k: int, n: int, section: bool = False) -> tuple[int, ...]:
    """chi_y(Gr(k,n)) or, with section=True, chi_y of its hyperplane section,
    as coefficients of y^0, y^1, ...

    The ambient genus is sum_p (-1)^p N_p y^p, N = box_counts, checked to sum
    to C(n, k), the count the refusal takes, and to be palindromic; the
    section takes a(p + 1, 0) = (-1)^(p+1) N_{p+1} and B = _euler_sums.  On a
    wrong kernel these can still fire: the beta-set tally and the remainder
    of each exact division in _euler_sums, Serre symmetry and chi_y(0) = 1,
    then in diamond nonnegativity and the A-D-E bound.  The tests compare
    this route with the localization oracle (fixed-point sums) and the
    hook-content oracle (the Weyl product cell by cell).
    """
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    count = bounded_box_count(k, n, MAX_BWB_PARTITIONS, f"chi_y({k}, {n}) needs {{}} box partitions")
    counts = box_counts(k, n)
    if sum(counts) != count or counts != counts[::-1]:
        raise InternalConsistencyError("box-partition counts do not sum to C(n, k) or are not palindromic")
    coeffs = [(-1) ** p * c for p, c in enumerate(counts)]
    if section:
        d = k * (n - k) - 1
        alternating = _euler_sums(k, n)
        coeffs = [alternating[p] + alternating[p + 1] - coeffs[p + 1] for p in range(d + 1)]
        if any(coeffs[p] != (-1) ** d * coeffs[d - p] for p in range(d + 1)):
            raise InternalConsistencyError("section chi_y breaks Serre symmetry")
    if coeffs[0] != 1:
        raise InternalConsistencyError("chi_y(0) != 1: sign conventions are broken")
    return tuple(coeffs)


class HodgeDiamond(namedtuple("HodgeDiamond", "dim column middle genus")):
    """Hodge numbers of a smooth hyperplane section of dimension dim, as the
    two lines the Lefschetz theorems leave: column[p] = h^{p,p} and
    middle[p] = h^{p,dim-p}.  Every other h^{p,q} is 0.  When dim is even
    both lines hold h^{m,m}, m = dim/2.  genus is the chi_y genus the middle
    row was solved from."""

    __slots__ = ()

    def total(self) -> int:
        shared = 0 if self.dim % 2 else self.column[self.dim // 2]
        return sum(self.column) + sum(self.middle) - shared

    def middle_off_diagonal(self) -> list[tuple[int, int, int]]:
        return [(p, self.dim - p, v) for p, v in enumerate(self.middle) if v and 2 * p != self.dim]

    def is_hodge_tate(self) -> bool:
        return not self.middle_off_diagonal()


@lru_cache(maxsize=None)
def diamond(k: int, n: int) -> HodgeDiamond:
    """Hodge diamond of the smooth hyperplane section of Gr(k, n), read on
    the narrow side when k > n/2.

    The diagonal off the middle is copied through the Lefschetz isomorphism
    from box_counts, the table chi_y has read and checked; the middle row is
    solved from chi_p = (-1)^p h^{p,p} + (-1)^q h^{p,q}, q = dim - p, one
    term when p = q.  Cached, so the section screen and the section ring of
    one command share one chi_y.

    Two of the checks below are identities on any genus chi_y returns, and
    are kept: the Euler number, since the middle row is solved from chi_p
    and so the signed sum is chi_y(-1) whatever the column holds; and the
    symmetry of the middle row, which follows from the Serre symmetry chi_y
    asserts, the column being palindromic.  Nonnegativity and the A-D-E
    bound can fire.
    """
    genus, counts = chi_y(k, n, section=True), box_counts(k, n)
    k = min(k, n - k)  # Gr(k, n) = Gr(n - k, n) with the same O(1)
    d = k * (n - k) - 1
    column = [(-1) ** p * genus[p] if 2 * p == d else counts[min(p, d - p)] for p in range(d + 1)]
    middle = [column[p] if 2 * p == d else (-1) ** (d - p) * (genus[p] - (-1) ** p * column[p])
              for p in range(d + 1)]
    if (low := min(middle)) < 0:
        p = middle.index(low)
        raise InternalConsistencyError(f"negative Hodge number h^({p},{d - p}) = {low}")
    # identity: with the column palindromic, middle[p] and middle[d - p] agree
    # exactly when genus[p] = (-1)^d genus[d - p], which chi_y asserts
    if middle != middle[::-1]:
        raise InternalConsistencyError("Hodge symmetry failed on the middle row")
    result = HodgeDiamond(d, tuple(column), tuple(middle), genus)
    # each h^{p,q} weighs (-1)^(p+q); total() counts the h^{m,m} of an even dimension once
    euler = result.total() if d % 2 == 0 else sum(column) - sum(middle)
    # identity: the middle row is solved from chi_p, so the signed sum of the
    # diamond is chi_y(-1) whatever the column holds
    if euler != sum((-1) ** p * c for p, c in enumerate(genus)):
        raise InternalConsistencyError("diamond disagrees with the Euler number")
    # the A-D-E bijection: Hodge-Tate exactly when 1/2 + 1/k + 1/(n - k) > 1
    if (tate := result.is_hodge_tate()) != (k * (n - k) < 2 * n):
        raise InternalConsistencyError(
            f"Hodge-Tate is {tate} for the section of Gr({k},{n}), against the A-D-E bound k(n-k) < 2n")
    return result


# method: "middle-row-jump" (fast path) or "diamond"
HodgeTateCertificate = namedtuple("HodgeTateCertificate", "method detail")


def is_hodge_tate(k: int, n: int) -> tuple[bool, HodgeTateCertificate]:
    """Whether the hyperplane section of Gr(k, n) has only (p,p) cohomology.

    When dim Gr(k, n) > 2n the answer is no with the middle-row Hodge number
    h^{dim X - n, n - 1} = 1 as certificate, without computing chi_y; the
    borderline dim = 2n cases go through the full diamond.
    """
    if n < 2 * k:
        raise InvalidInputError(f"assume n >= 2k (use the dual side), got k={k}, n={n}")
    dim_x = k * (n - k)
    if dim_x > 2 * n:
        return False, HodgeTateCertificate("middle-row-jump", (dim_x - n, n - 1, 1))
    dia = diamond(k, n)
    off = dia.middle_off_diagonal()
    if off:
        return False, HodgeTateCertificate("diamond", tuple(off))
    return True, HodgeTateCertificate("diamond", ())


def section_profile(k: int, n: int) -> BettiProfile:
    """Even Betti profile of the hyperplane section, from its Hodge diamond.

    Only defined when the section has no odd cohomology (all middle
    anti-diagonal contributions sit in even total degree).
    """
    dia = diamond(k, n)
    d = dia.dim
    if d % 2 == 1 and dia.middle_off_diagonal():
        raise InvalidInputError(
            f"section of Gr({k},{n}) has odd-degree cohomology; no even Betti profile"
        )
    betti = list(dia.column)
    if d % 2 == 0:
        betti[d // 2] = sum(dia.middle)
    return BettiProfile(tuple(betti), n - 1, f"section of Gr({k},{n})")
