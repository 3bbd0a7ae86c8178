"""Exact linear algebra over the rationals.

Matrices are plain lists of rows; entries are ints or Fractions and never
floats.  Integral values stay ints: every division goes through exact_div,
which refuses floats and returns an int whenever the quotient is integral, and
products and elimination steps hand back ints for integral entries, so a
Fraction entry is always genuinely non-integral.  The kernels skip what the
nonzero pattern rules out: mat_mul runs over nonzeros, det_bareiss over the
connected blocks of the pattern.  The section e-operators, the Pieri
recursions (the label recursion quantum.label_recursion and the h-recursion
quantum.h_operators) and the commutativity check run on sparse rows
{column: value} through one kernel, sparse_mul_sum: a sum of products
c * (a @ b) accumulated row by row, in which a term with a = I adds c * b.
The label recursion keeps its block seed-major, one row per seed vector,
so in each step a is the block of lam' (s rows) and b is E_p^T, held as
E_p's columns (E_p itself for the transposed run): the step loops over the
s seed rows, not over d.
Determinants and characteristic polynomials share one fraction-free (Bareiss)
elimination, _bareiss, run over ints, Fractions or the polynomial ring; the
tests check charpoly against the Berkowitz recursion.  There is no inverse and
no solver: coordinates in an echelon basis are read off its pivots (see
section.perp_piece_operators).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalConsistencyError, InvalidInputError
from .polynomials import UniPoly

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over the nonzeros of a and of b's rows (a (3, 8) section operator
    is about 9 % nonzero); integral entries of the product are ints."""
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


def sparse_rows(a: Matrix) -> list[dict]:
    """a's rows as {column: value} over their nonzeros."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def dense(rows: list[dict], cols: int) -> Matrix:
    """The matrix with these sparse rows and cols columns."""
    out = []
    for row in rows:
        full = [0] * cols
        for j, x in row.items():
            full[j] = x
        out.append(full)
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


def mat_vec(a: Matrix, v: list) -> list:
    out = [0] * len(a)
    for k, vk in enumerate(v):
        if vk:
            for i in range(len(a)):
                aik = a[i][k]
                if aik:
                    out[i] += aik * vk
    return _integral_entries(out)


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
    """Basis of the right null space, echelonized so that each vector has a
    leading 1 in the earliest possible coordinate."""
    if not a:
        return []
    cols = len(a[0])
    pivots, red = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    vecs = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        vecs.append(v)
    if not vecs:
        return []
    _, echelon = rref(vecs)
    return echelon


def generalized_kernel(a: Matrix, pairing: Matrix) -> list[list]:
    """kernel_basis(a^dim), the generalized 0-eigenspace, for an a that is
    self-adjoint for the nondegenerate pairing (pairing @ a = a^T @ pairing),
    by squaring a until the pairing is nondegenerate on ker a^m.

    The kernels of a^m increase with m up to K = ker a^dim.  K and the image
    of a^dim are orthogonal both ways, <a^dim w, x> = <w, a^dim x> = 0 for x
    in K, and together span the space, so the pairing is nondegenerate on K.
    While ker a^m is smaller than K, some w in ker a^(2m) is outside it, and
    z = a^m w != 0 lies in ker a^m with <z, x> = <w, a^m x> = 0 for every x
    there, so the pairing is degenerate on ker a^m.  The test is the
    determinant of the |ker a^m| x |ker a^m| Gram matrix.  kernel_basis
    returns the reduced echelon basis, which depends only on the subspace,
    so the vectors are those of kernel_basis(mat_pow(a, dim)).  A kernel
    that stops growing while the pairing is still degenerate on it means a
    is not self-adjoint, and raises.
    """
    power, last = a, None
    while True:
        kernel = kernel_basis(power)
        paired = [mat_vec(pairing, v) for v in kernel]
        if det_bareiss([[sum(x * y for x, y in zip(u, pv)) for pv in paired] for u in kernel]) != 0:
            return kernel
        if len(kernel) == last:
            raise InternalConsistencyError("the pairing is degenerate on the generalized kernel")
        power, last = mat_mul(power, power), len(kernel)


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
        block = [[a[i][j] for j in cols] for i in rows]
        integral = all(type(x) is int for row in block for x in row)
        det *= _bareiss(block, _int_div if integral else exact_div)
    return _integral(det)


def _int_div(a: int, b: int) -> int:
    """a // b, checked to be exact: a Bareiss step over Z divides exactly."""
    q, r = divmod(a, b)
    if r:
        raise InternalConsistencyError("Bareiss division not exact")
    return q


def _bareiss(a: Matrix, divide):
    """Determinant by fraction-free (Bareiss) elimination on the whole matrix,
    over any ring whose exact quotient is divide(num, den): ints, Fractions or
    UniPolys.  Each step divides by the previous pivot; the first divides by 1
    and is skipped, so the entries need only +, -, * and a truth value."""
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


def charpoly(a: Matrix) -> UniPoly:
    """Monic characteristic polynomial det(xI - a), by _bareiss over the
    polynomial ring."""
    n = len(a)
    if n == 0:
        return UniPoly.one()
    x_minus_a = [[UniPoly([-a[i][j], 1]) if i == j else UniPoly([-a[i][j]]) for j in range(n)] for i in range(n)]
    out = _bareiss(x_minus_a, UniPoly.div_exact)
    if not out or out.leading() != 1:
        raise InternalConsistencyError("characteristic polynomial is not monic")
    return out
