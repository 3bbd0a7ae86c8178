"""Partitions in a box: hooks, cores, and the nonvanishing searches.

Partitions are stored canonically as tuples of positive integers in weakly
decreasing order (trailing zeros stripped), so they can serve as dictionary
keys.  Box membership is a separate predicate: the same partition value can be
tested against several boxes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import count
from math import comb, inf, lgamma, log, log1p

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


class Box(namedtuple("Box", "k n")):
    """A k x (n-k) box: at most k parts, each at most n-k."""

    __slots__ = ()

    def __new__(cls, k: int, n: int):
        if not 1 <= k <= n - 1:
            raise InvalidInputError(f"need 1 <= k <= n-1, got k={k}, n={n}")
        return super().__new__(cls, k, n)

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
        return self.complement(self.require(lam))

    def complement(self, lam: Partition) -> Partition:
        """dual(lam) for a lam known to fit, with no re-validation."""
        return tuple(self.cols - a for a in reversed(lam + (0,) * (self.k - len(lam))) if a < self.cols)


def log10_box_count(k: int, n: int) -> float:
    """log10 C(n, k), the count of the k x (n - k) box, so that a bound can
    refuse a count before it is taken.  Past n = 2^40, lgamma(n + 1) -
    lgamma(n - k + 1) loses digits (all by 10^17), so there it is Stirling's
    log n!/(n - m)!, m = min(k, n - k), with no two near-equal terms to cancel
    and n never made a float: (n - m + 1/2) log(1 - x) is taken as
    m (1 - x + 1/(2n)) log1p(-x) / x with x = m / n, an int quotient that
    cannot overflow.  From m = 2^1000, where lgamma(m + 1) nears a float's
    range, the count is inf."""
    if n < 2**40:
        return (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(10)
    m = min(k, n - k)
    if m.bit_length() > 1000:
        return inf
    x = m / n
    tail = m * (1 - x + 1 / (2 * n)) * (log1p(-x) / x if x else -1.0)
    return (m * log(n) - tail - m - lgamma(m + 1)) / log(10)


def bounded_box_count(k: int, n: int, bound: int, counted: str) -> int:
    """C(n, k), or InvalidInputError when it is over bound (under 10^9), the
    message counted.format(count) + ", over <bound>".  A count whose
    logarithm is over 9 is refused as "about 10^<digits>" before the exact
    count is taken, so a huge box never makes a huge int."""
    if (digits := log10_box_count(k, n)) > 9:
        count = f"about 10^{digits:.0f}"
    elif (count := comb(n, k)) <= bound:
        return count
    raise InvalidInputError(f"{counted.format(count)}, over {bound}")


def _box_partitions(p: int, rows: int, cols: int):
    """Each partition of p in the rows x cols box, lexicographically
    decreasing, one at a time.  The first fills each part greedily; the next
    lowers by one the last part whose remainder still fits in the rows left,
    and fills the rest greedily under it.  One step left within a run of
    parts v adds v - 1 cells of room and v cells to place, so when the last of
    a run cannot be lowered none of it can, and a step costs one pass per run
    it drops; no step recurses, so a partition may have any number of parts."""
    if p == 0:
        yield ()
        return
    if p < 0 or p > rows * cols:
        return
    parts: list[int] = []
    cells, cap = p, cols  # filled greedily: cells in parts of at most cap
    while True:
        q, r = divmod(cells, cap)
        parts += [cap] * q + [r] * (r > 0)
        yield tuple(parts)
        tail = 0  # the cells of the runs dropped so far
        while parts:
            v = parts[-1]
            start = parts.index(v)
            if v > 1 and (v - 1) * (rows - len(parts) + 1) >= tail + v:
                parts[-1] = v - 1
                cells, cap = tail + 1, v - 1
                break
            tail += v * (len(parts) - start)
            del parts[start:]
        else:
            return


@lru_cache(maxsize=None)
def box_partitions_of_size(k: int, n: int, p: int) -> tuple[Partition, ...]:
    """Partitions of p in the box, lexicographically decreasing; generated
    directly so that large boxes never require a full enumeration."""
    return tuple(_box_partitions(p, k, n - k))


def _hook_counts(lam: Partition, ell: int) -> tuple[int, int]:
    """How many cells of lam have hook length ell, and how many a longer one,
    read off the beta set B = {lam_i + m - i} (m parts), in O(m log m).

    The hooks of row i are b_i - x over the x in [0, b_i) not in B, so ell is
    a hook of b's row iff b - ell >= 0 is not in B, and the row has
    b - ell - #{c in B : c < b - ell} hooks longer than ell."""
    beta = [a + j for j, a in enumerate(reversed(lam))]  # increasing
    members = set(beta)
    exact = longer = 0
    for b in beta:
        if (t := b - ell) >= 0:
            exact += t not in members
            longer += t - bisect_left(beta, t)
    return exact, longer


# hook counts take about 0.6 us a part, so a million parts is under a second
MAX_SNOW_PARTITIONS = 50_000
MAX_SNOW_PARTS = 1_000_000


def snow_witnesses(box: Box, p: int, ell: int) -> list[tuple[Partition, int]]:
    """Witnesses for nonvanishing twisted Hodge cohomology of Gr(k, n).

    Returns every partition of p in the box with no cell of hook length ell,
    paired with its count of cells of hook length greater than ell.  The
    cohomology group in bidegree (p, j) is nonzero exactly for the returned
    pairs (lam, j).  Over MAX_SNOW_PARTITIONS partitions of p, or over
    MAX_SNOW_PARTS parts among them, are refused: up front when the first
    partition, which has the fewest parts, ceil(p / (n - k)), is alone over
    the bound, and otherwise by an enumeration that stops at either bound.
    """
    if p < 0 or ell < 0:
        raise InvalidInputError(f"snow needs a nonnegative --p and --twist, got p={p}, twist={ell}")
    name = f"snow({box.k}, {box.n}, p={p})"
    if (fewest := -(-p // box.cols)) > MAX_SNOW_PARTS:
        raise InvalidInputError(f"{name} has partitions of at least {fewest} parts, over {MAX_SNOW_PARTS}")
    parts = 0
    for i, lam in enumerate(_box_partitions(p, box.k, box.cols)):
        if i == MAX_SNOW_PARTITIONS:
            raise InvalidInputError(f"{name} has over {MAX_SNOW_PARTITIONS} partitions of p")
        if (parts := parts + len(lam)) > MAX_SNOW_PARTS:
            raise InvalidInputError(f"{name} has over {MAX_SNOW_PARTS} parts in its partitions of p")
    # enumerated again rather than kept, so a refusal holds one partition at a time
    witnesses = []
    for lam in _box_partitions(p, box.k, box.cols):
        exact, longer = _hook_counts(lam, ell)
        if not exact:
            witnesses.append((lam, longer))
    return witnesses


def _gaussian_series(k: int, cols: int, top: int):
    """The partition counts of the i x cols box by size, cut at degree top, for
    i = 0..k in one list, each i by the factor (1 - q^(cols+i)) / (1 - q^i)."""
    series = [1] + [0] * top
    yield series
    for i in range(1, min(k, top) + 1):
        for s in range(top, cols + i - 1, -1):  # times 1 - q^(cols+i)
            series[s] -= series[s - cols - i]
        for s in range(i, top + 1):  # divided by 1 - q^i
            series[s] += series[s - i]
        yield series


@lru_cache(maxsize=None)
def box_counts(k: int, n: int) -> tuple[int, ...]:
    """Partitions of each size p = 0..k(n-k) in the box, [n choose k]_q, from
    the min(k, n - k) factors of the narrow box: transposing keeps the size."""
    *_, series = _gaussian_series(min(k, n - k), max(k, n - k), k * (n - k))
    return tuple(series)


# (12, 24), the criterion-3 sweep's largest box, has 4,917 candidates; boxes just
# under the bound, such as (20, 50) with 999,350, take about 4 ms (2.3 s unpruned)
MAX_CORE_CANDIDATES = 1_000_000
_THREE_PART_EDGE = next(m for m in count() if comb(m + 3, 3) > MAX_CORE_CANDIDATES)


def _count_small_partitions(k: int, cols: int, budget: int) -> int:
    """Partitions of at most `budget` cells with at most k parts, each at most
    cols: exact up to MAX_CORE_CANDIDATES, and above it a lower bound that is
    itself over the bound.

    The Gaussian binomial of box_counts, cut at degree top = min(budget, 3m):
    the count after i factors, which grows with i, ends the product once it
    passes the bound, so a large box is refused after a few factors.  m =
    _THREE_PART_EDGE is the least with C(m + 3, 3), the partitions into three
    parts of at most m, over the bound; so for k >= 3 and cols >= m (core_search
    has cols >= n/2 > budget/2) a cut budget leaves a count over the bound.
    """
    for series in _gaussian_series(k, cols, min(budget, 3 * _THREE_PART_EDGE)):
        if sum(series) > MAX_CORE_CANDIDATES:
            break
    return sum(series)


def core_search(box: Box) -> list[tuple[Partition, int]]:
    """Large (n-i)-core partitions in the box, the obstruction to vanishing.

    Each (lam, i) with |lam| >= k(n-k) - i and lam an (n-i)-core, i from n-1 down
    to 1 and lam lexicographically decreasing; nonempty exactly for (k, n) in
    {(3,6), (4,8), (3,9)}.  Refused over MAX_CORE_CANDIDATES.

    lam is an ell-core iff no cell has hook length ell (James-Kerber 2.7.40).
    On the beta set {lam_j + k-j+1} in [1, n] the row of bead b has hooks b - x
    for the holes x in [1, b): with the holes kept as bits n - x, the mask
    `holes` shifted right by n - b.  One pass over the box complements mu of at most
    n-1 cells: each part appended to mu decides lam's next row up, whose hooks
    (arm in the row, leg below it) every descendant keeps; they are carried as
    the bitmask `hooks`.  The rows not yet decided are full, beads n-k+m+1..n
    for m = len(mu), so the hits at mu are the ell in [1, n - max(|mu|, 1)] in
    neither `hooks` nor the holes spread over k - m shifts.  Parts only add
    cells and hooks, so a child is cut once `hooks` holds all of [1, n - |mu|];
    one over n - |mu| - t cells, t the least length not in it, is not tried.
    """
    k, n = box.k, box.n
    if not (3 <= k and 2 * k <= n):
        raise InvalidInputError(f"core_search needs 3 <= k <= n/2, got k={k}, n={n}")
    if (count := _count_small_partitions(k, n - k, n - 1)) > MAX_CORE_CANDIDATES:
        raise InvalidInputError(f"core_search({k}, {n}) has at least {count} candidates, over {MAX_CORE_CANDIDATES}")
    hits: list[list[Partition]] = [[] for _ in range(n)]

    def visit(mu, holes, hooks, cells):
        rows, full = 0, k - len(mu)  # full: the rows not yet decided
        for s in range(full):
            rows |= holes >> s
        free = ~(hooks | rows) & ((2 << (n - max(cells, 1))) - 2)
        while free:
            ell = free.bit_length() - 1
            hits[n - ell].append(box.dual(mu))
            free ^= 1 << ell
        if full:
            top = full - 1  # the next row's mirrored bead while its mu part is 0
            t = ((hooks | 1) ^ (hooks | 1) + 1).bit_length() - 1
            for a in range(1, min(mu[-1] if mu else n - k, n - cells - t) + 1):
                child = holes ^ (1 << top) ^ (1 << (top + a))
                if ~(seen := hooks | child >> (top + a)) & ((2 << (n - cells - a)) - 2):
                    visit(mu + (a,), child, seen, cells + a)

    visit((), ((1 << (n - k)) - 1) << k, 0, 0)
    return [(lam, i) for i in range(n - 1, 0, -1) for lam in sorted(hits[i], reverse=True)]
