import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    ColumnSpanSolver,
    UniPoly,
    charpoly_by_interpolation,
    charpoly_by_polynomial_bareiss,
    dense,
    dense_square,
    interpolate,
    kernel_basis,
    label_ops,
    mat_combine,
    mat_inverse,
    mat_vec,
    perp_piece_operators,
    perp_space,
    perp_subalgebra_operators,
    poly_from_roots,
    rank,
    solve,
    sparse_combine,
    sparse_rows,
    trace_form_gram,
    unipoly_div_exact,
    unipoly_divmod,
)
from qhgrass import linalg
from qhgrass.errors import InternalConsistencyError, InvalidInputError


def test_unipoly_basics():
    p = UniPoly([1, 2, 3])
    q = UniPoly([0, 1])
    assert (p + q).coeffs == (1, 3, 3)
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert (-p).coeffs == (-1, -2, -3)
    assert p(2) == 1 + 4 + 12
    assert UniPoly([1, 0, 0]).coeffs == (1,)
    assert UniPoly().degree == -1
    assert not UniPoly() and not UniPoly([0, 0]) and UniPoly([0, 1]) and UniPoly([Fraction(1, 2)])
    assert UniPoly([Fraction(4, 2)]).coeffs == (2,)


def test_unipoly_division():
    p = UniPoly([1, 2, 1])  # (1+x)^2
    q, r = unipoly_divmod(p, UniPoly([1, 1]))
    assert q == UniPoly([1, 1]) and not r
    assert unipoly_div_exact(p, UniPoly([1, 1])) == UniPoly([1, 1])
    with pytest.raises(InternalConsistencyError):
        unipoly_div_exact(UniPoly([1, 0, 1]), UniPoly([1, 1]))


def _fraction_divmod(a: UniPoly, b: UniPoly):
    """Long division with every step in Fractions (the route for non-unit
    leading coefficients)."""
    rem = list(a.coeffs)
    lead = Fraction(b.coeffs[-1])
    quot = [0] * max(0, len(rem) - len(b.coeffs) + 1)
    for i in range(len(rem) - len(b.coeffs), -1, -1):
        c = Fraction(rem[i + len(b.coeffs) - 1]) / lead
        quot[i] = c
        for j, x in enumerate(b.coeffs):
            rem[i + j] -= c * x
    return UniPoly(quot), UniPoly(rem)


int_coeffs = st.lists(st.integers(-10**6, 10**6), max_size=9)


@settings(max_examples=300, deadline=None)
@given(int_coeffs, int_coeffs, st.sampled_from([1, -1, 2, -3]))
def test_unipoly_divmod_integer_route_matches_fractions(a, b, lead):
    num, den = UniPoly(a), UniPoly(b + [lead])
    q, r = unipoly_divmod(num, den)
    assert (q, r) == _fraction_divmod(num, den)
    assert q * den + r == num and r.degree < den.degree
    if lead in (1, -1):  # the integer route: no Fraction anywhere
        assert all(type(c) is int for c in q.coeffs + r.coeffs)
    # an exact quotient over Z[x], as in the Bareiss steps of the charpoly oracle
    assert unipoly_div_exact(num * den, den) == num


def test_unipoly_repr():
    assert repr(UniPoly([1, -2, 0, Fraction(1, 2), 0])) == "UniPoly([1, -2, 0, Fraction(1, 2)])"
    assert repr(UniPoly()) == "UniPoly([])"


def test_interpolation_round_trip():
    p = poly_from_roots([1, 2, Fraction(1, 3)])
    points = [(x, p(x)) for x in range(5)]
    assert interpolate(points) == p


def test_kernel_rank_solve():
    a = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    assert rank(a) == 2
    ker = linalg.kernel_basis(a)
    assert len(ker) == 1
    for row in a:
        assert sum(x * y for x, y in zip(row, ker[0])) == 0
    b = [[2, 0], [0, 3], [1, 1]]
    x = solve(b, [4, 9, 5])
    assert x == [2, 3]
    with pytest.raises(InternalConsistencyError):
        solve(b, [4, 9, 6])


def test_det_and_inverse():
    a = [[2, 1], [1, 1]]
    assert linalg.det_bareiss(a) == 1
    inv = mat_inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)
    assert linalg.det_bareiss([[1, 2], [2, 4]]) == 0
    with pytest.raises(InternalConsistencyError):
        mat_inverse([[1, 2], [2, 4]])


def test_charpoly_known_values():
    a = [[2, 1], [1, 2]]
    assert linalg.charpoly(a) == (3, -4, 1)  # (x-1)(x-3)
    assert charpoly_by_interpolation(a) == (3, -4, 1)
    ident = linalg.identity(4)
    assert linalg.charpoly(ident) == poly_from_roots([1, 1, 1, 1]).coeffs


def test_charpoly_dual_route_random():
    rng = random.Random(7)
    for trial in range(25):
        m = rng.randrange(1, 7)
        a = [[Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2))) for _ in range(m)] for _ in range(m)]
        p1 = linalg.charpoly(a)
        p2 = charpoly_by_interpolation(a)
        assert p1 == p2, (trial, a)
        # trace and determinant read off the coefficients
        assert p1[m - 1] == -linalg.trace(a)
        assert p1[0] == (-1) ** m * linalg.det_bareiss(a)


def test_trace_product_matches_explicit():
    rng = random.Random(3)
    a = [[rng.randrange(-3, 4) for _ in range(5)] for _ in range(5)]
    b = [[rng.randrange(-3, 4) for _ in range(5)] for _ in range(5)]
    assert linalg.trace_product(a, b) == linalg.trace(linalg.mat_mul(a, b))


def test_column_span_solver():
    cols = [[1, 0, 2], [0, 1, 3]]
    solver = ColumnSpanSolver(cols)
    assert solver.coords([1, 1, 5]) == [1, 1]
    with pytest.raises(InternalConsistencyError):
        solver.coords([1, 1, 6])
    with pytest.raises(InternalConsistencyError):
        ColumnSpanSolver([[1, 2], [2, 4]])


def test_mat_pow():
    a = [[1, 1], [0, 1]]
    assert linalg.mat_pow(a, 5) == [[1, 5], [0, 1]]
    assert linalg.mat_pow(a, 0) == linalg.identity(2)
    with pytest.raises(InvalidInputError):
        linalg.mat_pow(a, -1)


def test_exact_div_types():
    assert linalg.exact_div(6, 3) == 2 and type(linalg.exact_div(6, 3)) is int
    assert linalg.exact_div(-7, 2) == Fraction(-7, 2)
    assert type(linalg.exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert linalg.exact_div(Fraction(3, 2), 3) == Fraction(1, 2)
    for a, b in [(1.0, 2), (1, 2.0), (0.5, 0.5)]:
        with pytest.raises(TypeError):
            linalg.exact_div(a, b)
    with pytest.raises(ZeroDivisionError):
        linalg.exact_div(1, 0)


def test_mat_combine():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    out = mat_combine([(Fraction(1, 2), a), (Fraction(1, 2), b)], [[1, 0], [0, 1]])
    assert out == [[Fraction(3, 2), Fraction(3, 2)], [2, 3]]
    assert type(out[1][0]) is int
    assert mat_combine([(0, a), (-1, b)]) == [[0, -1], [-1, 0]]


def _entries(x):
    if isinstance(x, (list, tuple)):
        for v in x:
            yield from _entries(v)
    else:
        yield x


def _int_first(x) -> bool:
    """No float, and no Fraction that is an integer in disguise."""
    return all(
        type(e) is int or (type(e) is Fraction and e.denominator != 1) for e in _entries(x)
    )


_scalars = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3])),
)


def test_charpoly_of_the_empty_matrix_is_one():
    assert linalg.charpoly([]) == (1,)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.lists(_scalars, min_size=m * m, max_size=m * m)))
def test_bareiss_over_polynomials_is_the_charpoly(entries):
    # _bareiss run on xI - a over the polynomial ring is an oracle for charpoly
    m = int(len(entries) ** 0.5)
    a = [entries[i * m : (i + 1) * m] for i in range(m)]
    assert charpoly_by_polynomial_bareiss(a) == linalg.charpoly(a) == charpoly_by_interpolation(a)


def _charpoly_cases():
    """Square matrices for the charpoly routes: the edge shapes, singular
    and nilpotent ones, entries over 10^50 and denominators that are
    distinct primes, then random int and Fraction matrices."""
    rng = random.Random(2027)
    big = 10**50
    cases = [
        [],
        [[0]],
        [[7]],
        [[Fraction(-5, 3)]],
        [[big + 1]],
        [[1, 2], [2, 4]],  # singular
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],  # nilpotent
        [[2, -1, 0, 3], [4, -2, 0, 6], [0, 0, 0, 0], [1, 1, 1, 1]],  # singular, a zero row
        [[0, 5, -2], [0, 0, 9], [0, 0, 0]],  # nilpotent, strictly upper
        [[big, -big + 3], [big * 7, 11]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]],
        [[Fraction(big, 11), 1, 0], [0, Fraction(3, 13), Fraction(-big, 17)], [Fraction(1, 19), 0, 2]],
    ]
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for trial in range(40):
        m = rng.randrange(1, 7)
        if trial % 4 == 0:
            entry = lambda: rng.randrange(-big * 10, big * 10)  # noqa: E731
        elif trial % 4 == 1:
            entry = lambda: Fraction(rng.randrange(-9, 10), rng.choice(primes))  # noqa: E731
        elif trial % 4 == 2:
            entry = lambda: Fraction(rng.randrange(-big, big), rng.choice(primes) * rng.choice(primes))  # noqa: E731
        else:
            entry = lambda: rng.choice([0, 0, 0, 1, -1, 2])  # noqa: E731
        a = [[entry() for _ in range(m)] for _ in range(m)]
        if trial % 5 == 0 and m > 1:
            a[-1] = [x + y for x, y in zip(a[0], a[1])]  # singular by a dependent row
        cases.append(a)
    return cases


@pytest.mark.parametrize("a", _charpoly_cases())
def test_charpoly_by_interpolation_matches_berkowitz_and_polynomial_bareiss(a):
    # production charpoly is the Berkowitz recursion; both oracles divide
    got = linalg.charpoly(a)
    assert got == charpoly_by_interpolation(a) == charpoly_by_polynomial_bareiss(a)
    assert len(got) - 1 == len(a) and got[-1] == 1
    assert all(type(c) is int or c.denominator != 1 for c in got)
    if a:
        assert got[0] == (-1) ** len(a) * linalg.det_bareiss(a)


def _shift_bareiss(monkeypatch, shift):
    """linalg._bareiss with shift(x) added to the value of its call x, which
    in charpoly_by_interpolation is det(xI - a)."""
    original, calls = linalg._bareiss, []

    def shifted(m, divide):
        calls.append(m)
        return original(m, divide) + shift(len(calls) - 1)

    monkeypatch.setattr(linalg, "_bareiss", shifted)


def test_interpolation_oracle_refuses_values_that_fit_no_integer_polynomial(monkeypatch):
    # f(1) off by one: Delta^3 f(0) / 3! is no longer an integer
    _shift_bareiss(monkeypatch, lambda x: x == 1)
    with pytest.raises(InternalConsistencyError, match="fit no integer polynomial"):
        charpoly_by_interpolation([[2, 1, 0], [1, 2, 1], [0, 1, 3]])


def _shift_berkowitz(monkeypatch, shift):
    """linalg._berkowitz with shift(j) added to its coefficient of x^j."""
    original = linalg._berkowitz
    monkeypatch.setattr(linalg, "_berkowitz", lambda a: tuple(c + shift(j) for j, c in enumerate(original(a))))


def test_charpoly_refuses_values_that_break_its_certificates(monkeypatch):
    a = [[2, 1, 0], [1, 2, 1], [0, 1, 3]]
    # a monic polynomial with the wrong x^2 coefficient
    _shift_berkowitz(monkeypatch, lambda j: j == 2)
    with pytest.raises(InternalConsistencyError, match="coefficient is not -trace"):
        linalg.charpoly(a)
    # a polynomial that is not monic
    monkeypatch.undo()
    _shift_berkowitz(monkeypatch, lambda j: j == 3)
    with pytest.raises(InternalConsistencyError, match="not monic"):
        linalg.charpoly(a)


def test_dense_readers_refuse_sparse_rows():
    from qhgrass.partitions import Box
    from qhgrass.quantum import grassmannian

    rows = grassmannian(Box(2, 4)).e_ops[1]
    square = dense_square(rows)
    with pytest.raises(TypeError, match="sparse rows"):
        linalg.mat_mul(rows, square)
    with pytest.raises(TypeError, match="sparse rows"):
        linalg.mat_mul(square, rows)
    with pytest.raises(TypeError, match="sparse rows"):
        mat_vec(rows, [1] * len(rows))
    with pytest.raises(TypeError, match="sparse rows"):
        mat_vec(square, rows[0])
    with pytest.raises(TypeError, match="sparse rows"):
        sparse_rows(rows)
    # their dense forms are read as before
    assert sparse_rows(square) == rows
    assert mat_vec(square, [1] + [0] * (len(rows) - 1)) == [row.get(0, 0) for row in rows]


def test_bareiss_over_the_integers_checks_every_division():
    assert linalg._bareiss([[2, 1], [1, 1]], linalg._int_div) == 1
    with pytest.raises(InternalConsistencyError, match="Bareiss division not exact"):
        linalg._int_div(7, 2)
    # a wrong elimination step shows as an inexact division in Z
    def off_by_one(num, prev):
        return linalg._int_div(num + 1, prev)

    with pytest.raises(InternalConsistencyError, match="Bareiss division not exact"):
        linalg._bareiss([[2, 1, 0], [1, 2, 1], [0, 1, 3]], off_by_one)


@st.composite
def _matrices(draw, square=False):
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 4))
    return [[draw(_scalars) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=60, deadline=None)
@given(_matrices())
# a later pivot column of the reversed elimination is a combination of
# earlier free columns with Fraction and integral-Fraction entries
@example([[0, 2, Fraction(1, 2), Fraction(4, 2), 0, 1], [0, 1, Fraction(-1, 3), 0, 3, 0], [0, 3, Fraction(1, 6), 2, 3, 1]])
def test_rref_and_kernel_are_exact_and_int_first(a):
    pivots, red = linalg.rref(a)
    assert len(pivots) == len(red) == rank(a)
    assert all(red[r][c] == 1 for r, c in enumerate(pivots))
    kernel = linalg.kernel_basis(a)
    assert len(kernel) == len(a[0]) - len(pivots)
    for v in kernel:
        assert all(x == 0 for x in mat_vec(a, v))
    assert _int_first(red) and _int_first(kernel)
    # the one-elimination kernel is the two-elimination reference, value for
    # value and type for type
    typed = lambda vecs: [[(type(x), x) for x in v] for v in vecs]
    assert typed(kernel) == typed(kernel_basis(a))


@settings(max_examples=60, deadline=None)
@given(_matrices(square=True), st.lists(_scalars, min_size=4, max_size=4))
def test_solve_round_trips(a, x):
    x = x[: len(a)]
    b = mat_vec(a, x)
    if linalg.det_bareiss(a) == 0:
        return
    assert solve(a, b) == x
    assert _int_first(solve(a, b))
    inv = mat_inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(len(a)) and _int_first(inv)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(st.integers(-3, 3), min_size=m * m, max_size=m * m)))
def test_integral_results_are_ints(entries):
    # L * U with unit triangular integer factors is unimodular: its inverse
    # and the solutions of integer systems are integral and must be int-typed
    m = int(len(entries) ** 0.5)
    lower = [[1 if i == j else (entries[i * m + j] if i > j else 0) for j in range(m)] for i in range(m)]
    upper = [[1 if i == j else (entries[i * m + j] if i < j else 0) for j in range(m)] for i in range(m)]
    a = linalg.mat_mul(lower, upper)
    assert all(type(x) is int for row in mat_inverse(a) for x in row)
    x = entries[:m]
    assert [type(v) for v in solve(a, mat_vec(a, x))] == [int] * m
    fractional = [[Fraction(v) for v in row] for row in a]
    assert all(type(v) is int for row in linalg.rref(fractional)[1] for v in row)


# -- determinants, sparse products, scaled span solver -----------------------


def _leibniz(a):
    """det(a) as the sum over permutations, for small matrices."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


@st.composite
def _permuted_block_diagonal(draw):
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    n = sum(sizes)
    a = linalg.zeros(n, n)
    start = 0
    for m in sizes:
        for i in range(start, start + m):
            for j in range(start, start + m):
                a[i][j] = draw(_scalars)
        start += m
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return [[a[i][j] for j in cols] for i in rows]


def _berkowitz_det(a):
    """det(a) = (-1)^n det(0 I - a), the constant term of the Berkowitz
    charpoly, which takes no division."""
    return (-1) ** len(a) * linalg.charpoly(a)[0]


@settings(max_examples=150, deadline=None)
@given(_permuted_block_diagonal())
def test_det_of_a_permuted_block_diagonal_matches_leibniz_and_berkowitz(a):
    det = linalg.det_bareiss(a)
    assert det == _berkowitz_det(a) and _int_first([det])
    if len(a) <= 6:
        assert det == _leibniz(a)


def test_det_block_split_edge_cases():
    assert linalg.det_bareiss([]) == 1
    assert linalg.det_bareiss([[Fraction(-3, 2)]]) == Fraction(-3, 2)
    assert linalg.det_bareiss([[0]]) == 0
    assert type(linalg.det_bareiss([[Fraction(4, 2)]])) is int
    assert linalg.det_bareiss([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0  # zero row
    assert linalg.det_bareiss([[0, 1], [1, 0]]) == -1
    singular = [[1, 0, 0], [2, 0, 0], [0, 3, 4]]
    assert linalg.det_bareiss(singular) == 0 == _berkowitz_det(singular)
    with pytest.raises(InvalidInputError):
        linalg.det_bareiss([[1, 2]])


def test_det_of_ring_grams_and_pairing_matches_the_oracle():
    from qhgrass import quantum, section
    from qhgrass.partitions import Box

    ring7, ring8 = section.build_ring(3, 7), section.build_ring(3, 8)
    rad = section.radical_and_perp(ring8)
    perp = perp_space(ring8, rad, dense_square(ring8.pairing))
    leads = set(map(min, rad))
    rest = [i for i in range(len(ring8.basis)) if i not in leads]
    shifted = quantum.trace_form_rows(ring8, shifted=True)
    box = Box(4, 8)
    ambient = label_ops(quantum.grassmannian(box))
    matrices = {
        "(3,8) pairing": dense_square(ring8.pairing),
        "(3,7) trace form": trace_form_gram([label_ops(ring7)[lab] for lab in ring7.basis]),
        "(3,8) perp trace form": trace_form_gram(perp_subalgebra_operators(ring8, perp)[0]),
        "(3,8) shifted trace form off the radical's leads": [[shifted[a].get(b, 0) for b in rest] for a in rest],
        "Gr(4,8) trace form": trace_form_gram([ambient[lam] for lam in quantum.schubert_basis(box)]),
    }
    for name, mat in matrices.items():
        det = linalg.det_bareiss(mat)
        assert det != 0 and det == _berkowitz_det(mat), name
    # the matrices the oracle's perp route decides on
    generators, shift = perp_piece_operators(ring8, perp)
    for name, mat in {"(3,8) G_P": trace_form_gram(generators), "(3,8) M_z": shift}.items():
        det = linalg.det_bareiss(mat)
        assert det != 0 and det == _berkowitz_det(mat), name


@st.composite
def _graded_form(draw):
    # a form on residue pieces mod r that vanishes off the blocks of residue
    # rho against shift - rho, often symmetric, sometimes with one entry of
    # a mirrored block changed
    r, shift = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    sizes = [draw(st.integers(0, 3)) for _ in range(r)]
    starts = [sum(sizes[:rho]) for rho in range(r)]
    pieces = [list(range(start, start + size)) for start, size in zip(starts, sizes)]
    blocks = [(pieces[rho], pieces[(shift - rho) % r]) for rho in range(r)]
    d = sum(sizes)
    a = [[0] * d for _ in range(d)]
    for block_rows, cols in blocks:
        for i in block_rows:
            for j in cols:
                a[i][j] = draw(st.sampled_from([0, 1, 1, 2, -1, Fraction(1, 2)]))
    if draw(st.booleans()):
        a = [[a[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
    entries = [(i, j) for block_rows, cols in blocks for i in block_rows for j in cols]
    if entries and draw(st.booleans()):
        i, j = draw(st.sampled_from(entries))
        a[i][j] = draw(st.sampled_from([0, 1, 3]))
    return a, blocks


@settings(max_examples=200, deadline=None)
@given(_graded_form())
def test_block_nonsingular_is_the_determinant_test(case):
    # mirrored blocks share a determinant only when they are transposes
    # entry by entry, so the shortcut never changes the verdict
    a, blocks = case
    assert linalg.block_nonsingular(sparse_rows(a), blocks) == (linalg.det_bareiss(a) != 0)


def _counting_bareiss(monkeypatch) -> list:
    calls, original = [], linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda a, divide: calls.append(len(a)) or original(a, divide))
    return calls


def test_a_mirrored_block_reuses_the_determinant_only_when_it_is_the_transpose(monkeypatch):
    calls = _counting_bareiss(monkeypatch)
    blocks = [([0, 1], [2, 3]), ([2, 3], [0, 1])]
    symmetric = [{2: 1, 3: 2}, {2: 3, 3: 4}, {0: 1, 1: 3}, {0: 2, 1: 4}]
    assert linalg.block_nonsingular(symmetric, blocks) and calls == [2]
    # the mirror of a nonsingular block differs and is singular: still False
    calls.clear()
    differ = [{2: 1, 3: 2}, {2: 3, 3: 4}, {0: 1, 1: 2}, {0: 2, 1: 4}]
    assert not linalg.block_nonsingular(differ, blocks) and calls == [2, 2]
    # ... and a mirror that differs but is nonsingular is decided by its own
    calls.clear()
    assert linalg.block_nonsingular([{2: 1, 3: 2}, {2: 3, 3: 4}, {0: 1, 1: 5}, {0: 2, 1: 4}], blocks)
    assert calls == [2, 2]
    # a block on the diagonal has no mirror but itself, decided once
    calls.clear()
    assert not linalg.block_nonsingular([{0: 1, 1: 2}, {0: 2, 1: 4}], [([0, 1], [0, 1])]) and calls == [2]


@st.composite
def _product_pair(draw):
    rows, inner, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = [[draw(_scalars) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(_scalars) for _ in range(cols)] for _ in range(inner)]
    return a, b


@settings(max_examples=150, deadline=None)
@given(_product_pair())
def test_mat_mul_matches_the_triple_sum_and_is_int_first(pair):
    a, b = pair
    naive = [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]
    out = linalg.mat_mul(a, b)
    assert out == naive and _int_first(out)


_sparse_scalars = st.one_of(st.just(0), st.just(0), _scalars)


@st.composite
def _sparse_case(draw):
    rows, inner, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = [[draw(_sparse_scalars) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(_sparse_scalars) for _ in range(cols)] for _ in range(inner)]
    extra = [[draw(_sparse_scalars) for _ in range(cols)] for _ in range(rows)]
    return a, b, draw(_scalars), extra


def _types(a) -> list:
    return [[type(x) for x in row] for row in a]


@settings(max_examples=150, deadline=None)
@given(_sparse_case())
def test_sparse_product_equals_mat_mul_entry_types_included(case):
    a, b, c, extra = case
    cols = len(b[0])
    product = linalg.sparse_mul_sum([(1, sparse_rows(a), sparse_rows(b))])
    expected = linalg.mat_mul(a, b)
    got = dense(product, cols)
    assert got == expected and _types(got) == _types(expected)
    assert all(x for row in product for x in row.values())  # zeros are never stored
    # a term (c, I, m) adds c * m: the label recursion's corrections, fused
    unit = [{i: 1} for i in range(len(a))]
    combined = linalg.sparse_mul_sum(
        [(1, sparse_rows(a), sparse_rows(b)), (c, unit, sparse_rows(extra))]
    )
    assert combined == sparse_combine([(c, sparse_rows(extra))], product)
    expected = mat_combine([(c, extra)], expected)
    got = dense(combined, cols)
    assert got == expected and _types(got) == _types(expected)
    assert all(x for row in combined for x in row.values())


def test_integral_multiple_scales_by_the_lcm_and_leaves_int_rows_alone():
    rows = [{0: Fraction(1, 2), 2: 3}, {}, {1: Fraction(-2, 3)}]
    scaled = linalg.integral_multiple(rows)
    assert scaled == [{0: 3, 2: 18}, {}, {1: -4}] and all(type(x) is int for row in scaled for x in row.values())
    assert rows == [{0: Fraction(1, 2), 2: 3}, {}, {1: Fraction(-2, 3)}]  # the input is not touched
    ints = [{0: 1, 1: -2}, {}]
    assert linalg.integral_multiple(ints) is ints
    # an integral Fraction has denominator 1 and comes back an int
    [[(j, x)]] = [list(row.items()) for row in linalg.integral_multiple([{0: Fraction(4, 2)}])]
    assert (j, x, type(x)) == (0, 2, int)


def test_mat_pow_of_section_e1_is_int_first():
    from qhgrass import section

    power = linalg.mat_pow(dense_square(section.build_ring(3, 8).e_ops[1]), 51)
    assert _int_first(power)
    assert any(type(x) is Fraction for row in power for x in row)  # genuinely non-integral entries stay


@st.composite
def _column_family(draw):
    rows = draw(st.integers(1, 5))
    count = draw(st.integers(1, rows))
    columns = [[draw(_scalars) for _ in range(rows)] for _ in range(count)]
    weights = [draw(_scalars) for _ in range(count)]
    extra = [draw(_scalars) for _ in range(rows)]
    return columns, weights, extra


@settings(max_examples=150, deadline=None)
@given(_column_family())
def test_scaled_span_solver_matches_the_fraction_inverse(family):
    columns, weights, extra = family
    if rank(columns) < len(columns):
        with pytest.raises(InternalConsistencyError):
            ColumnSpanSolver(columns)
        return
    solver = ColumnSpanSolver(columns)
    assert all(type(x) is int for row in solver.scaled for x in row)
    inverse = mat_inverse([[col[r] for col in columns] for r in solver.rows])
    target = [sum(w * col[i] for w, col in zip(weights, columns)) for i in range(len(columns[0]))]
    coords = solver.coords(target)
    assert coords == weights == mat_vec(inverse, [target[r] for r in solver.rows])
    assert _int_first(coords)
    if rank(columns + [extra]) > len(columns):
        with pytest.raises(InternalConsistencyError):
            solver.coords(extra)
    else:
        assert solver.coords(extra) == mat_vec(inverse, [extra[r] for r in solver.rows])
