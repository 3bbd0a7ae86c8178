"""Partitions in a box: hooks, cores, and the nonvanishing searches.

Partitions are stored canonically as tuples of positive integers in weakly
decreasing order (trailing zeros stripped), so they can serve as dictionary
keys.  Box membership is a separate predicate: the same partition value can be
tested against several boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError

Partition = tuple[int, ...]


def canonical(parts) -> Partition:
    """Strip trailing zeros and validate weak decrease."""
    parts = tuple(int(a) for a in parts)
    if any(a < 0 for a in parts):
        raise InvalidInputError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InvalidInputError(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def size(lam: Partition) -> int:
    return sum(lam)


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (columns become rows)."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for a in lam:
        for j in range(a):
            cols[j] += 1
    return tuple(cols)


@dataclass(frozen=True)
class Box:
    """A k x (n-k) box: at most k parts, each at most n-k."""

    k: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise InvalidInputError(f"need 1 <= k <= n-1, got k={self.k}, n={self.n}")

    @property
    def cols(self) -> int:
        return self.n - self.k

    def contains(self, lam: Partition) -> bool:
        return len(lam) <= self.k and (not lam or lam[0] <= self.cols)

    def require(self, lam: Partition) -> Partition:
        lam = canonical(lam)
        if not self.contains(lam):
            raise InvalidInputError(f"{lam} does not fit in the {self.k}x{self.cols} box")
        return lam

    def dual(self, lam: Partition) -> Partition:
        """Complement inside the box, rotated: the Poincare-dual label."""
        lam = self.require(lam)
        padded = lam + (0,) * (self.k - len(lam))
        return canonical(tuple(self.cols - padded[self.k - 1 - i] for i in range(self.k)))


@lru_cache(maxsize=None)
def box_partitions_of_size(k: int, n: int, p: int) -> tuple[Partition, ...]:
    """Partitions of p in the box, lexicographically decreasing; generated
    directly so that large boxes never require a full enumeration."""
    out: list[Partition] = []

    def rec(prefix, remaining, rows_left, maxpart):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if rows_left == 0:
            return
        for a in range(min(maxpart, remaining), 0, -1):
            if a * rows_left < remaining:
                break
            prefix.append(a)
            rec(prefix, remaining - a, rows_left - 1, a)
            prefix.pop()

    if 0 <= p <= k * (n - k):
        rec([], p, k, n - k)
    return tuple(out)


def hook_lengths(lam: Partition) -> dict[tuple[int, int], int]:
    """Hook length of every cell, keyed by 1-indexed (row, col)."""
    lam = canonical(lam)
    tr = transpose(lam)
    return {
        (i, j): lam[i - 1] - j + tr[j - 1] - i + 1
        for i in range(1, len(lam) + 1)
        for j in range(1, lam[i - 1] + 1)
    }


def snow_witnesses(box: Box, p: int, ell: int) -> list[tuple[Partition, int]]:
    """Witnesses for nonvanishing twisted Hodge cohomology of Gr(k, n).

    Returns every partition of p in the box with no cell of hook length ell,
    paired with its count of cells of hook length greater than ell.  The
    cohomology group in bidegree (p, j) is nonzero exactly for the returned
    pairs (lam, j).
    """
    if p < 0 or ell < 0:
        raise InvalidInputError("p and ell must be nonnegative")
    out = []
    for lam in box_partitions_of_size(box.k, box.n, p):
        hooks = hook_lengths(lam).values()
        if ell in hooks:
            continue
        out.append((lam, sum(1 for h in hooks if h > ell)))
    return out


# (12, 24), the criterion-3 sweep's largest box, has 4,917 candidates; boxes just
# under the bound, such as (20, 50) with 999,350, take about 0.1 s pruned (3.6 s not)
MAX_CORE_CANDIDATES = 1_000_000


def _count_small_partitions(k: int, cols: int, budget: int) -> int:
    """Partitions of at most `budget` cells with at most k parts, each at most
    cols: exact up to MAX_CORE_CANDIDATES, and above it a lower bound that is
    itself over the bound.

    The partitions in an i x cols box have generating function the Gaussian
    binomial prod over j <= i of (1 - q^(cols+j)) / (1 - q^j).  Each factor
    is applied to the series cut at degree budget in O(budget) steps, and the
    count after i factors, which grows with i, ends the product once it
    passes the bound, so a large box is refused after a few factors.
    """
    series = [1] + [0] * budget
    for i in range(1, min(k, budget) + 1):
        for s in range(budget, cols + i - 1, -1):  # times 1 - q^(cols+i)
            series[s] -= series[s - cols - i]
        for s in range(i, budget + 1):  # divided by 1 - q^i
            series[s] += series[s - i]
        if sum(series) > MAX_CORE_CANDIDATES:
            break
    return sum(series)


def core_search(box: Box) -> list[tuple[Partition, int]]:
    """Large (n-i)-core partitions in the box, the obstruction to vanishing.

    Each (lam, i) with |lam| >= k(n-k) - i and lam an (n-i)-core, i from n-1 down
    to 1 and lam lexicographically decreasing; nonempty exactly for (k, n) in
    {(3,6), (4,8), (3,9)}.  One pass over the box complements mu of at most n-1
    cells: lam's beta set {lam_m + k-m+1} is the bitmask A with bits n-k+m-mu_m,
    and lam is an ell-core iff (A >> ell) & ~A & ~1 == 0, i.e. A is closed under
    a -> a-ell on [1, n] (James-Kerber 2.7).  Refused over MAX_CORE_CANDIDATES.

    The bitmask alone decides a hit; the search only skips pairs it would
    reject, by the overhang lemma.  The cells of row j right of column
    lam_{j+1} (lam_{k+1} = 0) have hook lengths 1, ..., lam_j - lam_{j+1}, and
    likewise for columns, so an (n-i)-core has every such overhang below n - i.
    Read off mu, the overhangs are n-k - mu_1, each mu_m - mu_{m+1}, mu_len
    when len mu < k, and how many of mu's k parts equal each of 0..n-k-1.  So
    at mu with largest overhang g only i in [max(|mu|, 1), n-1-g] can hit, and
    a subtree is cut when |mu| plus the overhang its descendants all keep (the
    differences behind the last part, n-k - mu_1 and the multiplicity of each
    part below n-k) exceeds n - 1, since appending parts only adds cells.
    """
    k, n = box.k, box.n
    if not (3 <= k and 2 * k <= n):
        raise InvalidInputError(f"core_search needs 3 <= k <= n/2, got k={k}, n={n}")
    if (count := _count_small_partitions(k, n - k, n - 1)) > MAX_CORE_CANDIDATES:
        raise InvalidInputError(f"core_search({k}, {n}) has at least {count} candidates, over {MAX_CORE_CANDIDATES}")
    hits: list[list[Partition]] = [[] for _ in range(n)]

    def visit(mu, beta, cells, fixed, run):
        # fixed: the largest overhang every descendant keeps; run: parts equal to the last
        last = mu[-1] if mu else n - k
        g = max(fixed, last, k - len(mu)) if len(mu) < k else fixed
        for i in range(max(cells, 1), n - g):
            if not (beta >> (n - i)) & ~beta & ~1:
                hits[i].append(box.dual(mu))
        if len(mu) < k:
            bit = n - k + len(mu) + 1  # the next row's beta bit while its mu part is 0
            for a in range(1, min(last, n - 1 - cells) + 1):
                run_a = run + 1 if a == last else 1
                fixed_a = max(fixed, last - a, run_a if a < n - k else 0)
                if cells + a + fixed_a < n:
                    visit(mu + (a,), beta ^ (1 << bit) ^ (1 << (bit - a)), cells + a, fixed_a, run_a)

    visit((), ((1 << k) - 1) << (n - k + 1), 0, 0, 0)
    return [(lam, i) for i in range(n - 1, 0, -1) for lam in sorted(hits[i], reverse=True)]
