"""Exact linear algebra over the rationals.

Matrices are plain lists of rows; entries are ints or Fractions and never
floats.  Integral values stay ints: every division goes through exact_div,
which refuses floats and returns an int whenever the quotient is integral, and
products and elimination steps hand back ints for integral entries, so a
Fraction entry is always genuinely non-integral.  The kernels skip what the
nonzero pattern rules out: mat_mul runs over nonzeros, det_bareiss over the
connected blocks of the pattern.  The e-operators are sparse rows
{column: value}; the Pieri recursions quantum.label_recursion and
quantum.h_operators, the commutativity check, e_power_charpoly's thin
blocks and the section's self-adjointness check of e_1 read them through
one kernel, sparse_mul_sum: a sum of products c * (a @ b) accumulated row by
row, in which a term with a = I adds c * b.  No whole e-operator is made
dense, and the dense readers refuse sparse rows; section.radical_and_perp
slices each residue block of E_1 into a dense list for kernel_basis.  The
commutativity and self-adjointness checks multiply int multiples of the
e-operators (integral_multiple), not the Fractions.
Both Pieri recursions keep their blocks seed-major, one row per seed
vector, so in each step a is a block of s rows (the rows s^T L_lam', or
the images of H_(m-i)) and b is E_p, or E_i^T held as E_i's columns for
the h-recursion: the step loops over the s seed rows, not over d.
The relation check of either ring seeds at most two rows, the unit and beta;
the trace vector's reverse pass (quantum.trace_row) takes one row per label.
Determinants take one fraction-free (Bareiss) elimination, _bareiss, over
ints or Fractions.  A Gram matrix or pairing whose grading fixes its blocks
comes as sparse rows to block_nonsingular, which checks that every nonzero
lies in its block and runs _bareiss on each block alone, so no d x d matrix
is made; a block that is, entry by entry, the transpose of one already
decided nonsingular shares its determinant and takes no elimination, which
halves the off-diagonal blocks of a symmetric form.  det_bareiss, which
finds the blocks of a dense matrix from its nonzero pattern, serves the
small radical Gram and the tests.  The characteristic polynomial takes no
division at all: charpoly is the Berkowitz recursion, and the tests check
it against two routes through _bareiss, evaluation and interpolation over
the integers, and elimination over the polynomial ring.
There is no inverse and no solver.  A kernel takes one Gauss-Jordan
elimination (rref), of the matrix with its columns reversed (kernel_basis).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InternalConsistencyError, InvalidInputError

Matrix = list


def _integral(x):
    """x as an int when it is an integral Fraction, otherwise x itself."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _integral_entries(row: list) -> list:
    """The row with its integral Fractions turned into ints."""
    # over ints and Fractions the sum is an int exactly when no entry is a
    # Fraction, and summing ints is several times faster than testing types
    return row if type(sum(row)) is int else [_integral(x) for x in row]


def exact_div(a, b):
    """The exact quotient a / b: an int when it is integral, else a Fraction.

    Both arguments must be ints or Fractions; a float raises TypeError, so no
    float can enter the exact core through a division.
    """
    if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
        raise TypeError(f"exact division needs ints or Fractions, got {a!r} / {b!r}")
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _integral(Fraction(a) / b)


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(m: int) -> Matrix:
    out = zeros(m, m)
    for i in range(m):
        out[i][i] = 1
    return out


def _require_dense(*mats) -> None:
    """Refuse a sparse row, whose iteration would yield its column keys."""
    if any(type(row) is dict for m in mats for row in m):
        raise TypeError("a dense matrix reader was handed sparse rows {column: value}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over the nonzeros of a and of b's rows (a (3, 8) section operator
    is about 9 % nonzero); integral entries of the product are ints."""
    _require_dense(a, b)
    b_nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for arow in a:
        acc = [0] * len(b[0])
        for aik, bk in zip(arow, b_nonzeros):
            if aik:
                for j, x in bk:
                    acc[j] += aik * x
        out.append(_integral_entries(acc))
    return out


def _integral_row(acc: dict) -> dict:
    """The nonzeros of a sparse row, integral Fractions turned into ints."""
    if type(sum(acc.values())) is int:
        return {j: x for j, x in acc.items() if x}
    return {j: _integral(x) for j, x in acc.items() if x}


def sparse_mul_sum(terms) -> list[dict]:
    """The sum of c * (a @ b) over the (c, a, b) triples of terms, on sparse
    rows, accumulated row by row with no intermediate product: each row of a
    combines the rows of b its nonzeros name, so the work is the number of
    nonzero products.  Integral entries are ints and zeros are dropped."""
    out = []
    for r in range(len(terms[0][1])):
        acc: dict = {}
        for c, a, b in terms:
            for k, x in a[r].items():
                cx = c * x
                for j, y in b[k].items():
                    acc[j] = acc[j] + cx * y if j in acc else cx * y
        out.append(_integral_row(acc))
    return out


def integral_multiple(rows: list[dict]) -> list[dict]:
    """The rows times the lcm of their denominators, as ints; int rows come
    back themselves after one type test, summed row by row so that only the
    rows holding a Fraction add Fractions."""
    if {int}.issuperset(map(type, map(sum, map(dict.values, rows)))):
        return rows
    d = lcm(*{x.denominator for row in rows for x in row.values() if type(x) is not int})
    return [{j: x * d if type(x) is int else x.numerator * (d // x.denominator) for j, x in row.items()}
            for row in rows]


def mat_pow(a: Matrix, e: int) -> Matrix:
    if e < 0:
        raise InvalidInputError(f"matrix power needs a nonnegative exponent, got {e}")
    result = identity(len(a))
    base = a
    while e > 0:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def trace(a: Matrix):
    return sum(a[i][i] for i in range(len(a)))


def trace_product(a: Matrix, b: Matrix):
    """trace(a @ b) without forming the product."""
    return sum(x * y for arow, bcol in zip(a, zip(*b)) for x, y in zip(arow, bcol))


def rref(a: Matrix) -> tuple[list[int], Matrix]:
    """Reduced row echelon form; returns (pivot column indices, reduced rows)."""
    m = [_integral_entries(list(row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        _eliminate(m, r, c)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, m[:r]


def _eliminate(m: Matrix, r: int, c: int) -> None:
    """Scale row r to a leading 1 in column c and clear column c elsewhere."""
    lead = m[r][c]
    if lead != 1:
        m[r] = [exact_div(x, lead) for x in m[r]]
    prow = m[r]
    for i in range(len(m)):
        f = m[i][c]
        if i != r and f != 0:
            m[i] = [_integral(x - f * y) if y else x for x, y in zip(m[i], prow)]


def kernel_basis(a: Matrix) -> list[list]:
    """The reduced echelon basis of the right null space: each vector has a
    leading 1 in the earliest possible coordinate, where the others are 0.

    One elimination of a with its columns reversed gives it.  There the
    pivots fall on the latest possible columns, so the free columns are the
    earliest possible leads, and each pivot variable is a combination of free
    variables before it.  The vector of a free column f (1 at f, minus the
    reduced entry of f at each pivot) therefore leads at f and is 0 at every
    other free column: it is already reduced.
    """
    if not a:
        return []
    last = len(a[0]) - 1
    pivots, red = rref([row[::-1] for row in a])
    pivots = [last - c for c in pivots]
    vecs = []
    for f in range(last + 1):
        if f in pivots:
            continue
        v = [0] * (last + 1)
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[last - f]
        vecs.append(v)
    return vecs


def _nonzero_blocks(a: Matrix) -> list[tuple[list[int], list[int]]]:
    """(rows, columns) of each connected block of a's nonzero pattern, where
    row i and column j are joined when a[i][j] != 0; ascending within a block."""
    n = len(a)
    parent = list(range(2 * n))  # union-find: rows are 0..n-1, columns n..2n-1

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                parent[root(i)] = root(n + j)
    blocks: dict = {}
    for v in range(2 * n):
        blocks.setdefault(root(v), ([], []))[v >= n].append(v % n)
    return list(blocks.values())


def _sign(perm: list[int]) -> int:
    return (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1 :])


def det_bareiss(a: Matrix):
    """Determinant over the connected blocks of the nonzero pattern.

    Permuting rows and columns block by block makes a block diagonal, so the
    determinant is the product of the blocks' Bareiss determinants times the
    signs of the two permutations, or 0 if a block is not square (a zero row
    or column is one).  Grams and pairings that vanish by residue or degree
    split into many small blocks this way.
    """
    if any(len(row) != len(a) for row in a):
        raise InvalidInputError("determinant of a non-square matrix")
    blocks = _nonzero_blocks(a)
    if any(len(rows) != len(cols) for rows, cols in blocks):
        return 0
    det = _sign([i for rows, _ in blocks for i in rows]) * _sign([j for _, cols in blocks for j in cols])
    for rows, cols in blocks:
        det *= _block_det([[a[i][j] for j in cols] for i in rows])
    return _integral(det)


def _block_det(block: Matrix):
    """The Bareiss determinant of a square block, over the ints when every
    entry is an int, with checked divisions."""
    integral = all(type(x) is int for row in block for x in row)
    return _bareiss(block, _int_div if integral else exact_div)


def block_nonsingular(rows: list[dict], blocks) -> bool:
    """Whether the matrix on the blocks' rows and columns is nonsingular,
    when a grading says it vanishes outside the blocks.

    rows[i] is row i as {column: value}; blocks is a list of (row indices,
    column indices), whose row lists partition the rows considered and
    whose column lists partition the columns considered.  Entries in other
    rows or columns are not read.  A nonzero in a considered row and column
    outside its row's block contradicts the grading and raises.  Permuting
    rows and columns block by block makes the matrix block diagonal, so it
    is nonsingular exactly when every block is square with a nonzero
    Bareiss determinant.  A block whose entries are those of a decided
    block (C, R) transposed, compared entry by entry, has that block's
    nonzero determinant and takes no elimination: a symmetric form, such as
    a Gram matrix or a pairing, decides half its off-diagonal blocks so.
    """
    owner = {j: b for b, (_, cols) in enumerate(blocks) for j in cols}
    for b, (block_rows, _) in enumerate(blocks):
        if any(owner.get(j, b) != b for i in block_rows for j in rows[i]):
            raise InternalConsistencyError("a nonzero entry lies outside the blocks its grading allows")
    decided = {}
    for block_rows, cols in blocks:
        block = [[rows[i].get(j, 0) for j in cols] for i in block_rows]
        mirror = decided.get((tuple(cols), tuple(block_rows)))
        if mirror is None or block != [list(col) for col in zip(*mirror)]:
            if len(block_rows) != len(cols) or _block_det(block) == 0:
                return False
        decided[tuple(block_rows), tuple(cols)] = block
    return True


def _int_div(a: int, b: int) -> int:
    """a // b, checked to be exact: a Bareiss step over Z divides exactly."""
    q, r = divmod(a, b)
    if r:
        raise InternalConsistencyError("Bareiss division not exact")
    return q


def _bareiss(a: Matrix, divide):
    """Determinant by fraction-free (Bareiss) elimination on the whole matrix,
    over any ring whose exact quotient is divide(num, den): ints or
    Fractions here.  The tests run it on xI - a as the oracles of charpoly,
    over the integers at x = 0..n and over the polynomial ring.  Each step
    divides by the previous pivot; the first divides by 1 and is skipped, so
    the entries need only +, -, * and a truth value."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pivot_row, lead = m[k], m[k][k]
        # column k below the pivot is never read again, so it is not cleared
        for row in m[k + 1 :]:
            below = row[k]
            for j in range(k + 1, n):
                num = row[j] * lead - below * pivot_row[j]
                row[j] = num if prev is None else divide(num, prev)
        prev = lead
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def charpoly(a: Matrix) -> tuple:
    """Coefficients, lowest degree first, of the monic characteristic
    polynomial det(xI - a), by the Berkowitz recursion (_berkowitz), checked
    monic with x^(n - 1) coefficient -trace(a)."""
    out = _berkowitz(a)
    if out[-1] != 1:
        raise InternalConsistencyError("characteristic polynomial is not monic")
    if a and out[-2] != -trace(a):
        raise InternalConsistencyError("characteristic polynomial's x^(n-1) coefficient is not -trace")
    return out


def _berkowitz(a: Matrix) -> tuple:
    """det(xI - a), lowest degree first, with no division (Berkowitz, Inf.
    Process. Lett. 18, 1984).  With p_i that of the leading i x i block A_i,
    R and C the first i entries of row and column i and d = a[i][i], p_(i+1)
    is the lower triangular Toeplitz matrix with first column 1, -d, -R C,
    -R A_i C, ..., -R A_i^(i-1) C times p_i."""
    poly = [1]  # p_i, highest degree first
    for i in range(len(a)):
        sub = [row[:i] for row in a[:i]]
        row_r, v = a[i][:i], [row[i] for row in a[:i]]
        col = [1, -a[i][i]]
        for _ in range(i):
            col.append(-sum(r * x for r, x in zip(row_r, v)))
            v = [sum(x * y for x, y in zip(srow, v)) for srow in sub]
        poly = [sum(col[j - s] * poly[s] for s in range(max(0, j - i - 1), min(j, i) + 1)) for j in range(i + 2)]
    return tuple(_integral(c) for c in reversed(poly))
