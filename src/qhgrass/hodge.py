"""chi_y genera of Gr(k, n) and of its hyperplane sections by Borel-Weil-Bott.

Let S and Q be the tautological sub- and quotient bundles on X = Gr(k, n),
d = k(n-k).  Omega_X = S (x) Q*, so by the Cauchy formula Omega^p_X is the sum
of the irreducible homogeneous bundles S^lam S (x) S^lam' Q* over the
partitions lam of p in the k x (n-k) box (Weyman, Cohomology of Vector
Bundles and Syzygies, 2.3).  By Borel-Weil-Bott (Bott 1957; Weyman ch. 4)
the Euler characteristic of such a summand twisted by O(t) is the GL_n Weyl
dimension polynomial

    prod_{i<j} (mu_i - mu_j + j - i) / (j - i)

at mu = (t - lam_k, ..., t - lam_1 | lam'_1, ..., lam'_{n-k}).  The product is
anti-invariant under the Weyl group, so it is zero on singular weights and
carries Bott's sign (-1)^length without any sorting.  The factors inside each
block are free of t; over their (j - i) they give dim S^lam C^k times
dim S^lam' C^(n-k), by the hook-content formula the product over the cells x
of lam of (k + c(x)) (n - k - c(x)) / hook(x)^2.  The k(n-k) cross factors
are (t - h) / (r + c - 1), one per cell (r, c) of the box, with
h = lam_r + lam'_c - r - c + 1 (the hook length on the cells of lam, negative
off them).  Each value is one exact division.

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

Everything is exact and seedless.  Three anchors are asserted, each a fatal
internal error on failure: chi_y(0) = 1, the ambient genus equals the signed
box-partition counts, and Serre symmetry chi_p = (-1)^dim chi_{dim-p}.  The
diamond is also checked against the A-D-E bijection: the section is
Hodge-Tate exactly when 1/2 + 1/k + 1/(n - k) > 1, that is k(n - k) < 2n.
A box is refused before the first Weyl product when it has more partitions
than MAX_BWB_PARTITIONS or when the products' estimated work (_bwb_work) is
over MAX_BWB_WORK.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, prod

from .errors import InternalConsistencyError, InvalidInputError
from .partitions import box_partitions_of_size, log10_box_count, transpose
from .polynomials import UniPoly
from .screen import BettiProfile

# accepted and echoed by the CLI; no computation depends on it
DEFAULT_SEED = 20250809

# one Weyl product per box partition and twist; (7, 14) has C(14, 7) = 3,432
MAX_BWB_PARTITIONS = 5_000
# and the work of those products (_bwb_work): the (7, 14) section is 2.1e7
# (0.4 s of CPU), Gr(1, 1000) 1.7e8 (1.4 s), Gr(1, 1500) 6.3e8 (2.9 s) and
# Gr(1, 2500) 3.2e9 (15 s)
MAX_BWB_WORK = 5 * 10**8


def _euler_sums(k: int, n: int, section: bool) -> tuple[list[int], list[int]]:
    """a(p, 0) for p = 0..d and, for the section, B(q) for q = 0..d."""
    d = k * (n - k)
    box_hooks = prod(r + c + 1 for r in range(k) for c in range(n - k))  # the cross (j - i)
    at_zero = [0] * (d + 1)
    alternating = [0] * (d + 1)
    for p in range(d + 1):
        for lam in box_partitions_of_size(k, n, p):
            rows = lam + (0,) * (k - len(lam))
            cols = transpose(lam)
            cols += (0,) * (n - k - len(cols))
            # the generalized hook h of each cell (r, c) of the box, here counted from 0
            hooks = [rows[r] + cols[c] - r - c - 1 for r in range(k) for c in range(n - k)]
            # block factors over their (j - i): dim S^lam C^k * dim S^lam' C^(n-k), by hook-content
            num = prod((k + c - r) * (n - k - c + r) for r in range(len(lam)) for c in range(lam[r]))
            den = prod(h for h in hooks if h > 0) ** 2 * box_hooks
            singular = set(hooks)
            for j in range(d - p + 1 if section else 1):
                if -j in singular:
                    continue
                value, rem = divmod(num * prod(-j - h for h in hooks), den)
                if rem:
                    raise InternalConsistencyError(f"Weyl dimension of {lam} at t={-j} is fractional")
                if j == 0:
                    at_zero[p] += value
                alternating[p + j] += -value if j % 2 else value
    return at_zero, alternating


def _bwb_work(k: int, n: int, section: bool) -> int:
    """Up-front estimate of _euler_sums' work: partitions x twists x the
    k(n - k) factors of each Weyl product, each factor weighted by the size
    in 64-bit words of the running product, whose d factors have at most
    log2(n + d) bits each.

    Each partition of p is taken at the twists t = -j, j = 0..d - p, for the
    section; the box-partition counts are palindromic, so that is d/2 + 1
    twists on average.  On projective space (k or n - k is 1) every twist
    but t = 0 is singular (Bott's formula) and costs no product.
    """
    d = k * (n - k)
    products = comb(n, k)
    if section and min(k, n - k) > 1:
        products = products * (d + 2) // 2
    return products * d * (1 + d * (n + d).bit_length() // 64)


def chi_y(k: int, n: int, section: bool = False) -> UniPoly:
    """chi_y(Gr(k,n)) or, with section=True, chi_y of its hyperplane section."""
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    d = k * (n - k)
    if (digits := log10_box_count(k, n)) > 9:
        raise InvalidInputError(
            f"chi_y({k}, {n}) needs about 10^{digits:.0f} box partitions, over {MAX_BWB_PARTITIONS}"
        )
    if (count := comb(n, k)) > MAX_BWB_PARTITIONS:
        raise InvalidInputError(
            f"chi_y({k}, {n}) needs {count} box partitions, over {MAX_BWB_PARTITIONS}"
        )
    if (work := _bwb_work(k, n, section)) > MAX_BWB_WORK:
        raise InvalidInputError(
            f"chi_y({k}, {n}) needs about {work:.1e} word operations of Weyl products, over {MAX_BWB_WORK:.0e}"
        )
    at_zero, alternating = _euler_sums(k, n, section)
    if not section:
        poly = UniPoly(at_zero)
        expected = UniPoly(
            [(-1) ** p * len(box_partitions_of_size(k, n, p)) for p in range(d + 1)]
        )
        if poly != expected:
            raise InternalConsistencyError("ambient chi_y does not match box-partition counts")
    else:
        d -= 1
        coeffs = [alternating[p] + alternating[p + 1] - at_zero[p + 1] for p in range(d + 1)]
        if any(coeffs[p] != (-1) ** d * coeffs[d - p] for p in range(d + 1)):
            raise InternalConsistencyError("section chi_y breaks Serre symmetry")
        poly = UniPoly(coeffs)
    if poly(0) != 1:
        raise InternalConsistencyError("chi_y(0) != 1: sign conventions are broken")
    return poly


class HodgeDiamond(namedtuple("HodgeDiamond", "dim column middle genus")):
    """Hodge numbers of a smooth hyperplane section of dimension dim, as the
    two lines the Lefschetz theorems leave: column[p] = h^{p,p} and
    middle[p] = h^{p,dim-p}.  Every other h^{p,q} is 0.  When dim is even
    both lines hold h^{m,m}, m = dim/2.  genus is the chi_y genus the middle
    row was solved from."""

    __slots__ = ()

    def h(self, p: int, q: int) -> int:
        if p == q:
            return self.column[p]
        return self.middle[p] if p + q == self.dim else 0

    def total(self) -> int:
        shared = 0 if self.dim % 2 else self.column[self.dim // 2]
        return sum(self.column) + sum(self.middle) - shared

    def middle_off_diagonal(self) -> list[tuple[int, int, int]]:
        return [(p, self.dim - p, v) for p, v in enumerate(self.middle) if v and 2 * p != self.dim]

    def is_hodge_tate(self) -> bool:
        return not self.middle_off_diagonal()


@lru_cache(maxsize=None)
def diamond(k: int, n: int) -> HodgeDiamond:
    """Hodge diamond of the smooth hyperplane section of Gr(k, n).

    The diagonal off the middle is copied from the ambient box-partition
    counts through the Lefschetz isomorphism; the middle row is solved from
    chi_p = (-1)^p h^{p,p} + (-1)^q h^{p,q}, q = dim - p, one term when
    p = q.  Cached, so the section screen and the section ring of one
    command share one chi_y.
    """
    if n < 2 or not 1 <= k <= n // 2:
        raise InvalidInputError(f"diamond needs 1 <= k <= n/2, got k={k}, n={n}")
    genus = chi_y(k, n, section=True)
    d = k * (n - k) - 1
    column, middle = [], []
    for p in range(d + 1):
        q = d - p
        chi_p = genus[p]
        if p == q:
            value = (-1) ** p * chi_p
            column.append(value)
        else:
            column.append(len(box_partitions_of_size(k, n, min(p, q))))
            value = (-1) ** q * (chi_p - (-1) ** p * column[p])
        if value < 0:
            raise InternalConsistencyError(f"negative Hodge number h^({p},{q}) = {value}")
        middle.append(value)
    if middle != middle[::-1]:
        raise InternalConsistencyError("Hodge symmetry failed on the middle row")
    result = HodgeDiamond(d, tuple(column), tuple(middle), genus)
    # each h^{p,q} weighs (-1)^(p+q); total() counts the h^{m,m} of an even dimension once
    euler = result.total() if d % 2 == 0 else sum(column) - sum(middle)
    if euler != genus(-1):
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
