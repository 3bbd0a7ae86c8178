import copy
import gc
import typing
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cli_pins import lru_caches
from oracles import (
    PRINTED_H,
    ClassVector,
    UniPoly,
    charpoly_on_piece,
    classical_grassmannian,
    commuting_in_fractions,
    cup_e,
    dense,
    dense_square,
    evaluate_e_polynomials,
    giambelli_expr,
    h_relations_on_every_unit_vector,
    label_ops,
    label_piece,
    mat_combine,
    mat_vec,
    mult_operator,
    pairing_q1,
    quantum_pieri,
    radical,
    restrict,
    sigma1_triple_integral,
    sigma_e_polynomial,
    sparse_rows,
    star,
    star_schubert,
    symbolic_e_ops,
    symbolic_label_ops,
    trace_form_gram,
    trace_vector_forward,
    vector,
    vertical_strip_additions,
)
from qhgrass import linalg, quantum, section
from qhgrass.errors import InternalConsistencyError, InvalidInputError
from qhgrass.partitions import Box, canonical, size
from qhgrass.screen import Verdict
from qhgrass.quantum import (
    GradedAlgebra,
    commuting,
    grassmannian,
    pieri_matrix,
    presentation_check,
    qh_semisimple,
    schubert_basis,
    semisimple_test,
    trace_form_rows,
)

BOXES = [Box(k, n) for k in (1, 2, 3) for n in range(k + 1, 9)]
# every box with n <= 12: 66 in all
BOXES_12 = [Box(k, n) for n in range(2, 13) for k in range(1, n)]
# every box with n <= 8
BOXES_8 = [Box(k, n) for n in range(2, 9) for k in range(1, n)]
# every box with n <= 9
BOXES_9 = [Box(k, n) for n in range(2, 10) for k in range(1, n)]


# -- an independent oracle: classical Pieri in the k-row ring reduced by
# -- n-rim-hook removal on beta numbers


def _unbounded_vertical_strips(lam, p, k):
    padded = tuple(lam) + (0,) * (k - len(lam))
    out = []
    for rows in combinations(range(k), p):
        mu = list(padded)
        for i in rows:
            mu[i] += 1
        if all(mu[i] >= mu[i + 1] for i in range(k - 1)):
            out.append(tuple(mu))
    return out


def _rim_reduce(mu, box):
    """Reduce a k-row partition modulo the quantum relations: returns
    (sign, q_power, partition) or None when the class vanishes."""
    k, n = box.k, box.n
    sign, q_power = 1, 0
    mu = list(mu) + [0] * (k - len(mu))
    while mu[0] > n - k:
        beta = [mu[i] + k - (i + 1) for i in range(k)]
        choices = [i for i in range(k) if beta[i] - n >= 0 and beta[i] - n not in beta]
        if not choices:
            return None
        (i,) = choices  # for Pieri products the removal is unique
        new = beta[i] - n
        beta[i] = new
        ordered = sorted(beta, reverse=True)
        height = ordered.index(new) - i + 1
        sign *= (-1) ** (k - height)
        q_power += 1
        mu = [ordered[j] - (k - (j + 1)) for j in range(k)]
    return sign, q_power, canonical(mu)


def _pieri_oracle(p, lam, box):
    terms = {}
    for mu in _unbounded_vertical_strips(lam, p, box.k):
        reduced = _rim_reduce(mu, box)
        if reduced is None:
            continue
        sign, q_power, nu = reduced
        key = (nu, q_power)
        terms[key] = terms.get(key, 0) + sign
    return {key: c for key, c in terms.items() if c}


@pytest.mark.parametrize("box", BOXES, ids=str)
def test_quantum_pieri_matches_rim_hook_oracle(box):
    for lam in schubert_basis(box):
        for p in range(1, box.k + 1):
            assert quantum_pieri(p, lam, box) == _pieri_oracle(p, lam, box), (lam, p)


@pytest.mark.parametrize("box", BOXES_12, ids=str)
def test_particle_moves_match_the_strip_and_rim_rule(box):
    # pieri_entries moves particles on the n-cycle; the oracle adds vertical
    # strips and reads the q terms off transposed interlacing
    basis = schubert_basis(box)
    index = {lam: i for i, lam in enumerate(basis)}
    for p in range(1, box.k + 1):
        want = sorted((index[mu], col, d) for col, lam in enumerate(basis) for mu, d in quantum_pieri(p, lam, box))
        assert sorted(quantum.pieri_entries(box, p)) == want, p
    for p in (0, box.k + 1):
        with pytest.raises(InvalidInputError, match=f"Pieri index p={p} outside"):
            quantum.pieri_entries(box, p)


@pytest.mark.parametrize("box", BOXES, ids=str)
def test_label_operators_read_from_columns_match_the_symbolic_images(box):
    # mult_operators reads e_p * lam' off column lam' of E_p; the oracle builds
    # E_p and the same recursion from quantum_pieri's images, class by class
    alg = grassmannian(box)
    assert {p: dense_square(op) for p, op in alg.e_ops.items()} == symbolic_e_ops(alg)
    assert label_ops(alg) == symbolic_label_ops(alg)


def test_quantum_pieri_examples():
    assert quantum_pieri(1, (2, 2), Box(2, 4)) == {(((1,), 1)): 1} or quantum_pieri(
        1, (2, 2), Box(2, 4)
    ) == {((1,), 1): 1}
    b37 = Box(3, 7)
    assert quantum_pieri(1, (4, 4, 1), b37) == {((4, 4, 2), 0): 1, ((3,), 1): 1}
    assert quantum_pieri(1, (4, 4, 2), b37) == {((4, 4, 3), 0): 1, ((3, 1), 1): 1}
    with pytest.raises(InvalidInputError):
        quantum_pieri(4, (1,), b37)


def test_quantum_pieri_classical_part_is_pieri():
    for box in BOXES:
        for lam in schubert_basis(box):
            for p in range(1, box.k + 1):
                classical = {
                    mu for (mu, qp) in quantum_pieri(p, lam, box) if qp == 0
                }
                assert classical == set(vertical_strip_additions(lam, p, box))


def test_quantum_pieri_grading():
    for box in BOXES:
        for lam in schubert_basis(box):
            for p in range(1, box.k + 1):
                for (mu, qp), coeff in quantum_pieri(p, lam, box).items():
                    assert coeff == 1
                    assert size(mu) + box.n * qp == size(lam) + p


def test_giambelli_expr_examples():
    box = Box(3, 7)
    for p in (1, 2, 3):
        expo = tuple(1 if i == p - 1 else 0 for i in range(3))
        assert giambelli_expr((1,) * p, box) == ((expo, 1),)
    assert dict(giambelli_expr((2,), box)) == {(2, 0, 0): 1, (0, 1, 0): -1}
    assert dict(giambelli_expr((2, 1), Box(2, 5))) == {(1, 1): 1}


def test_quantum_giambelli_unit_invariant():
    for box in BOXES:
        for lam in schubert_basis(box):
            assert star_schubert(lam, ClassVector.unit(box)) == ClassVector.schubert(box, lam)


def test_pieri_matrices_commute():
    for box in BOXES:
        assert commuting([pieri_matrix(box, p) for p in range(1, box.k + 1)]), box


def _graded_pieces(box):
    alg = grassmannian(box)
    return {i: label_piece(alg, i) for i in range(alg.r)}


def test_graded_pieces_golden():
    b37 = Box(3, 7)
    pieces = _graded_pieces(b37)
    assert set(pieces[0]) == {(), (4, 3), (4, 2, 1), (3, 3, 1), (3, 2, 2)}
    b38 = Box(3, 8)
    assert set(_graded_pieces(b38)[0]) == {
        (), (5, 3), (5, 2, 1), (4, 4), (4, 3, 1), (4, 2, 2), (3, 3, 2),
    }
    for box in BOXES:
        pieces = _graded_pieces(box)
        assert sum(len(p) for p in pieces.values()) == comb(box.n, box.k)
        from oracles import gaussian_binomial
        from qhgrass.screen import BettiProfile, periodic_betti

        profile = BettiProfile(
            tuple(int(c) for c in gaussian_binomial(box.n, box.k).coeffs), box.n
        )
        tb = periodic_betti(profile)
        assert {i: len(p) for i, p in pieces.items()} == tb


def test_pieces_partition_the_basis_as_the_label_filter_does():
    # pieces[rho] is read off the degrees the constructor is given; the
    # oracle filters the labels by their degree, beta's dim Y / 2 included
    rings = [section.build_ring(3, n) for n in (6, 7, 8)]
    for alg in [grassmannian(box) for box in BOXES_8] + rings:
        assert sorted(i for piece in alg.pieces for i in piece) == list(range(len(alg.basis)))
        assert all(list(piece) == sorted(piece) for piece in alg.pieces)
        assert [[alg.basis[i] for i in piece] for piece in alg.pieces] == [
            list(label_piece(alg, rho)) for rho in range(alg.r)]
    assert [ring.box.n for ring in rings if ring.prim_dim] == [6, 8]
    for ring in rings:
        if ring.prim_dim:
            assert ring.index[section.BETA] in ring.pieces[(ring.dim_y // 2) % ring.r]


def test_no_lru_cache_in_src_takes_an_algebra():
    # an algebra's derived tables live on it, so a dropped algebra is freed;
    # a cache keyed by an algebra would keep every algebra ever built alive
    for cache in lru_caches():
        hints = typing.get_type_hints(cache.__wrapped__)
        hints.pop("return", None)
        assert not any(isinstance(t, type) and issubclass(t, GradedAlgebra) for t in hints.values()), cache
    gr = grassmannian(Box(3, 7))
    alg = GradedAlgebra(gr.box, gr.basis, gr.degrees, gr.r, gr.e_ops)
    assert quantum.trace_form_nonsingular(alg) and quantum.h_relation_check(alg, [{i: 1} for i in range(len(gr.basis))])
    assert label_ops(alg) and alg.plan == gr.plan
    dropped = weakref.ref(alg)
    del alg
    gc.collect()
    assert dropped() is None


def test_sigma1_shifts_graded_pieces():
    for box in [Box(2, 5), Box(3, 6), Box(3, 7)]:
        idx = {lam: i for i, lam in enumerate(schubert_basis(box))}
        pieces = _graded_pieces(box)
        e1 = dense_square(pieri_matrix(box, 1))
        for residue, piece in pieces.items():
            target = set(pieces[(residue + 1) % box.n])
            for lam in piece:
                col = idx[lam]
                support = {
                    schubert_basis(box)[r] for r in range(len(e1)) if e1[r][col]
                }
                assert support <= target
        # and the n-th power preserves each piece
        op = linalg.mat_pow(e1, box.n)
        for piece in pieces.values():
            restrict(grassmannian(box), op, piece)


def test_char_poly_on_piece_rejects_non_invariant():
    box = Box(3, 7)
    e1 = dense_square(pieri_matrix(box, 1))
    with pytest.raises(InternalConsistencyError, match="does not preserve the requested piece"):
        charpoly_on_piece(grassmannian(box), e1, label_piece(grassmannian(box)))


def test_a_corrupted_operator_in_qh_charpoly_exits_1(capsys, monkeypatch):
    from qhgrass import cli

    # the power is aligned, so the input is fine; E_1 + I keeps each degree as
    # well as raising it, so e_1^4 leaks out of the residue-0 piece
    original = quantum.pieri_matrix

    def shifted(box, p):
        op = original(box, p)
        if p == 1:
            for i, row in enumerate(op):
                row[i] = row.get(i, 0) + 1
        return op

    monkeypatch.setattr(quantum, "pieri_matrix", shifted)
    assert cli.run(["qh", "charpoly", "--k", "2", "--n", "4", "--power", "4"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: operator does not preserve the requested piece\n"


def _dense_power_charpoly(alg, power: int, with_e2: bool) -> tuple:
    """The whole-operator route: E_1^power (* E_2) made dense, restricted to
    the residue-0 piece, then its charpoly's coefficients by interpolation,
    so both the power and the charpoly are checked against a second route."""
    op = linalg.mat_pow(dense_square(alg.e_ops[1]), power)
    if with_e2:
        op = linalg.mat_mul(op, dense_square(alg.e_ops[2]))
    return charpoly_on_piece(alg, op, label_piece(alg)).coeffs


def _aligned_powers(k: int, r: int):
    """(power, with_e2) pairs that keep the residue-0 piece: m = 0 (power < r)
    and m = 1, 2, with e_2 when k >= 2."""
    cases = [(0, False), (r, False), (2 * r, False)]
    if k >= 2:
        cases += [(r - 2, True), (2 * r - 2, True)]
    return cases


@pytest.mark.parametrize("box", BOXES_8, ids=str)
def test_thin_block_charpoly_matches_the_dense_power_on_ambient_boxes(box):
    alg = grassmannian(box)
    piece = alg.pieces[0]
    for power, with_e2 in _aligned_powers(box.k, alg.r):
        got = quantum.e_power_charpoly(alg.e_ops, piece, alg.r, power, with_e2)
        assert got == _dense_power_charpoly(alg, power, with_e2), (power, with_e2)


@pytest.mark.parametrize("n", [7, 8])
def test_thin_block_charpoly_matches_the_dense_power_on_sections(n):
    ring = section.build_ring(3, n)
    piece = ring.pieces[0]
    for power, with_e2 in _aligned_powers(3, ring.r):
        got = quantum.e_power_charpoly(ring.e_ops, piece, ring.r, power, with_e2)
        assert got == _dense_power_charpoly(ring, power, with_e2), (power, with_e2)
        assert got == section.section_charpoly(ring, power, with_e2)


def _leak_from_the_unit(e1: list[dict], basis) -> list[dict]:
    """A copy of E_1 that also sends the unit to the first degree-2 class,
    so E_1^r carries the unit out of the residue-0 piece."""
    leaky = [dict(row) for row in e1]
    target = next(i for i, lab in enumerate(basis) if lab != section.BETA and size(lab) == 2)
    leaky[target][0] = leaky[target].get(0, 0) + 1
    return leaky


@pytest.mark.parametrize(
    "argv",
    [
        ["--k", "3", "--n", "7", "--power", "7"],
        ["--k", "3", "--n", "8", "--power", "14", "--with-e2"],
        ["--section", "--k", "3", "--n", "7", "--power", "6"],
        ["--section", "--k", "3", "--n", "8", "--power", "12", "--with-e2"],
    ],
    ids=" ".join,
)
def test_a_leak_from_the_piece_in_qh_charpoly_exits_1(capsys, monkeypatch, argv):
    from qhgrass import cli

    if "--section" in argv:
        ring = copy.copy(section.build_ring(3, int(argv[argv.index("--n") + 1])))
        # the leak bypasses the constructor, whose grading check would refuse it
        ring.e_ops = {**ring.e_ops, 1: _leak_from_the_unit(ring.e_ops[1], ring.basis)}
        monkeypatch.setattr(section, "build_ring", lambda k, n: ring)
    else:
        original = quantum.pieri_matrix

        def leaky(box, p):
            op = original(box, p)
            return _leak_from_the_unit(op, schubert_basis(box)) if p == 1 else op

        monkeypatch.setattr(quantum, "pieri_matrix", leaky)
    assert cli.run(["qh", "charpoly", *argv]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: operator does not preserve the requested piece\n"


def test_no_command_makes_a_matrix_larger_than_a_residue_piece(capsys, monkeypatch):
    from qhgrass import cli

    rows_seen = []

    def spy(name, rows_of):
        original = getattr(linalg, name)

        def wrapped(*args):
            rows_seen.append((name, rows_of(*args)))
            return original(*args)

        monkeypatch.setattr(linalg, name, wrapped)

    spy("mat_pow", lambda a, e: len(a))
    spy("mat_mul", lambda a, b: max(len(a), len(b)))
    spy("kernel_basis", lambda a: len(a))
    # every determinant, of a whole matrix or of one block of it
    spy("_bareiss", lambda a, divide: len(a))

    def largest_piece(alg):
        return max(map(len, alg.pieces))

    section.build_ring.cache_clear()
    names = set()
    for argv, alg in (
        (["qh", "charpoly", "--k", "4", "--n", "8", "--power", "16"], grassmannian(Box(4, 8))),
        (["qh", "charpoly", "--k", "3", "--n", "8", "--power", "6", "--with-e2"], grassmannian(Box(3, 8))),
        (["qh", "charpoly", "--section", "--k", "3", "--n", "8", "--power", "5", "--with-e2"], None),
        (["qh", "charpoly", "--section", "--k", "3", "--n", "7", "--power", "12"], None),
        (["qh", "semisimple", "--k", "4", "--n", "8"], grassmannian(Box(4, 8))),
        (["qh", "semisimple", "--section", "--k", "3", "--n", "8"], None),
        (["qh", "semisimple", "--section", "--k", "3", "--n", "7"], None),
    ):
        rows_seen.clear()
        assert cli.run(argv) == 0, argv
        capsys.readouterr()
        alg = alg or section.build_ring(3, int(argv[argv.index("--n") + 1]))
        assert all(rows <= largest_piece(alg) < len(alg.basis) for _, rows in rows_seen), (argv, rows_seen)
        names |= {name for name, _ in rows_seen}
    # the section build's kernels, the powers and their products, and the
    # blocks of every Gram and pairing determinant were all seen; linalg has
    # no converter that makes a sparse row dense
    assert names == {"kernel_basis", "mat_pow", "mat_mul", "_bareiss"}


def test_ambient_charpolys_golden():
    b37 = Box(3, 7)
    e1 = dense_square(pieri_matrix(b37, 1))
    alg37 = grassmannian(b37)
    cp = charpoly_on_piece(alg37, linalg.mat_pow(e1, 7), label_piece(alg37))
    assert cp == UniPoly([128, -13, 1]) * UniPoly([1, -57, -289, 1])

    b38 = Box(3, 8)
    alg38 = grassmannian(b38)
    piece = label_piece(alg38)
    e1 = dense_square(pieri_matrix(b38, 1))
    e2 = dense_square(pieri_matrix(b38, 2))
    cp8 = charpoly_on_piece(alg38, linalg.mat_pow(e1, 8), piece)
    expected8 = UniPoly([1, -1]) * UniPoly([1, -1]) * UniPoly([1, -1])
    expected8 = expected8 * UniPoly([1, -1154, 1]) * UniPoly([6561, -34, 1])
    assert cp8 == -expected8  # monic normalization of the displayed product
    cp62 = charpoly_on_piece(alg38, linalg.mat_mul(linalg.mat_pow(e1, 6), e2), piece)
    expected62 = (
        UniPoly([1, -1]) * UniPoly([1, 478, -1]) * UniPoly([1, 0, 1]) * UniPoly([2187, 6, 1])
    )
    assert cp62 == expected62
    # identity on a piece of size m has charpoly (x-1)^m
    ident = linalg.identity(len(schubert_basis(b37)))
    piece0 = label_piece(alg37)
    assert charpoly_on_piece(alg37, ident, piece0) == UniPoly([-1, 1]) * UniPoly(
        [-1, 1]
    ) * UniPoly([-1, 1]) * UniPoly([-1, 1]) * UniPoly([-1, 1])


def test_presentation_check_examples():
    assert presentation_check(Box(2, 4))
    assert presentation_check(Box(3, 7))
    assert presentation_check(Box(1, 5))
    # sigma_7 reduces to q itself for Gr(3,7): sigma_n + (-1)^k q = 0 means
    # the operator of sigma_7 equals q times the identity
    box = Box(3, 7)
    generators = {p: pieri_matrix(box, p) for p in (1, 2, 3)}
    (mat,) = evaluate_e_polynomials([sigma_e_polynomial(7, 3)], generators)
    assert mat == linalg.identity(len(schubert_basis(box)))


@pytest.mark.parametrize("box", BOXES_8, ids=str)
def test_h_recursion_matches_the_monomial_evaluation(box):
    # h_operators runs H_m = sum (-1)^(i+1) E_i H_(m-i); the oracle expands
    # sigma_m in e_1..e_k and evaluates every monomial
    k, dim = box.k, len(schubert_basis(box))
    # seeded with every unit vector, so block m is H_m^T
    generators = {p: pieri_matrix(box, p) for p in range(1, k + 1)}
    columns = grassmannian(box).columns
    identity = [{i: 1} for i in range(dim)]
    for top in (box.n, box.n + 1):
        got = [dense(h, dim) for h in quantum.h_operators(columns, top, identity)]
        polys = [sigma_e_polynomial(m, k) for m in range(top - k + 1, top + 1)]
        assert got == [[list(col) for col in zip(*mat)] for mat in evaluate_e_polynomials(polys, generators)], top
    assert presentation_check(box)


def _perturbed_pieri(monkeypatch, target: int, row: int, col: int, value):
    original = quantum.pieri_matrix

    def perturbed(box, p):
        rows = original(box, p)
        if p == target:
            rows[row][col] = value
            if not value:
                del rows[row][col]
        return rows

    monkeypatch.setattr(quantum, "pieri_matrix", perturbed)


def _clear_caches():
    for cache in lru_caches():
        cache.cache_clear()


def test_presentation_check_fails_on_any_perturbed_pieri_entry(monkeypatch):
    # every nonzero entry dropped or doubled, and on Gr(1, 5) and Gr(2, 4)
    # every zero made 1, each with every cache cleared so that grassmannian
    # reads the perturbed matrices.  The check rests on the
    # constructor's commutativity and grading checks and on label_plan's, so
    # each is refused by one of those (InternalConsistencyError) or fails
    # the check, and wherever the check runs it agrees with the h-recursion
    # on every unit vector.  On Gr(1, 5) commutativity is vacuous, and
    # dropping or doubling q reaches the check
    rejected = {"refused": 0, "check": 0}
    try:
        for box in (Box(1, 5), Box(2, 4), Box(3, 6)):
            dim = len(schubert_basis(box))
            identity = [{i: 1} for i in range(dim)]
            for p in range(1, box.k + 1):
                mat = dense_square(pieri_matrix(box, p))
                for row, col in ((r, c) for r in range(dim) for c in range(dim)):
                    for value in (0, 2) if mat[row][col] else (1,) if box.n < 6 else ():
                        _perturbed_pieri(monkeypatch, p, row, col, value)
                        _clear_caches()
                        try:
                            holds = presentation_check(box)
                        except InternalConsistencyError:
                            rejected["refused"] += 1
                        else:
                            assert not holds, (box, p, row, col, value)
                            columns = grassmannian(box).columns
                            assert not h_relations_on_every_unit_vector(columns, box.n, identity)
                            rejected["check"] += 1
                        monkeypatch.undo()
    finally:
        _clear_caches()
    # only q dropped or doubled on Gr(1, 5) passes every certificate
    assert rejected == {"refused": 298, "check": 2}
    assert presentation_check(Box(3, 6))


def test_a_noncommuting_pieri_matrix_makes_qh_presentation_exit_1(monkeypatch):
    # the relation check takes commutativity from the constructor, so Pieri
    # matrices that do not commute are a fault of the program, not a
    # relation that fails: drop the first entry of E_1 on Gr(2, 4) whose loss
    # breaks commutativity
    from cli_pins import run_pin

    e1, e2 = pieri_matrix(Box(2, 4), 1), pieri_matrix(Box(2, 4), 2)

    def dropped(r, c):
        return [{j: x for j, x in entries.items() if (i, j) != (r, c)} for i, entries in enumerate(e1)]

    row, col = next((r, c) for r, entries in enumerate(e1) for c in sorted(entries)
                    if not commuting([dropped(r, c), e2]))
    _perturbed_pieri(monkeypatch, 1, row, col, 0)
    # the constructor raises, so nothing built from the perturbed matrix is cached
    code, out, err = run_pin("qh presentation --k 2 --n 4")
    assert (code, out) == (1, "")
    assert err == "internal consistency failure: inconsistent Pieri images: e_1..e_k do not commute\n"


def _per_monomial_evaluation(poly, generators):
    dim = len(generators[1])
    terms = []
    for expo, coeff in poly.items():
        term = linalg.identity(dim)
        for p, count in enumerate(expo, start=1):
            for _ in range(count):
                term = linalg.mat_mul(dense_square(generators[p]), term)
        terms.append((coeff, term))
    return mat_combine(terms, linalg.zeros(dim, dim))


def test_shared_prefix_evaluation_matches_per_monomial(monkeypatch):
    from qhgrass.section import build_ring

    box = Box(4, 8)
    ambient = {p: pieri_matrix(box, p) for p in range(1, 5)}
    cases = [
        ([sigma_e_polynomial(8, 4)], ambient, 32),
        ([PRINTED_H[8]], build_ring(3, 8).e_ops, 26),
        ([sigma_e_polynomial(m, 4) for m in range(5, 9)], ambient, 48),
        ([PRINTED_H[7], PRINTED_H[8]], build_ring(3, 8).e_ops, 34),
        ([{(0, 0, 0): 3, (1, 0, 0): -1}], build_ring(3, 7).e_ops, 0),
    ]
    for polys, generators, expected_products in cases:
        expected = [_per_monomial_evaluation(poly, generators) for poly in polys]
        products = []
        original = oracles.sparse_mul

        def counting(a, b):
            products.append(1)
            return original(a, b)

        monkeypatch.setattr(oracles, "sparse_mul", counting)
        assert evaluate_e_polynomials(polys, generators) == expected
        monkeypatch.setattr(oracles, "sparse_mul", original)
        assert len(products) == expected_products
        naive = sum(sum(expo) for poly in polys for expo in poly)
        assert len(products) < naive


def test_sigma_e_polynomial_small():
    assert sigma_e_polynomial(0, 3) == {(0, 0, 0): 1}
    assert sigma_e_polynomial(1, 3) == {(1, 0, 0): 1}
    assert sigma_e_polynomial(2, 3) == {(2, 0, 0): 1, (0, 1, 0): -1}


def test_mult_operator_examples():
    box = Box(2, 4)
    alg = grassmannian(box)
    assert mult_operator(alg, vector(alg, ClassVector.unit(box))) == linalg.identity(6)
    # at q = 0 multiplication by a class of degree d shifts degree up by d
    basis = schubert_basis(box)
    alg0 = classical_grassmannian(box)
    for lam in basis:
        op = mult_operator(alg0, vector(alg0, ClassVector.schubert(box, lam)))
        for col, mu in enumerate(basis):
            for row in range(len(basis)):
                if op[row][col]:
                    assert size(basis[row]) == size(mu) + size(lam)


def test_mult_operator_matches_symbolic_star():
    for box in [Box(2, 4), Box(2, 5), Box(3, 6)]:
        alg = grassmannian(box)
        basis = schubert_basis(box)
        for lam in basis:
            for mu in basis:
                direct = vector(alg, star(ClassVector.schubert(box, lam), ClassVector.schubert(box, mu)))
                assert direct == mat_vec(label_ops(alg)[lam], vector(alg, ClassVector.schubert(box, mu)))


def test_star_grading_homogeneous():
    for box in [Box(2, 4), Box(2, 5), Box(3, 6)]:
        basis = schubert_basis(box)
        for lam in basis:
            for mu in basis:
                product = star(ClassVector.schubert(box, lam), ClassVector.schubert(box, mu))
                degrees = {size(nu) + box.n * qp for nu, qp in product.terms}
                if not product.is_zero():
                    assert degrees == {size(lam) + size(mu)}, (lam, mu)


def test_frobenius_symmetry_exhaustive():
    for box in [Box(2, 4), Box(3, 6)]:
        basis = schubert_basis(box)
        alg = grassmannian(box)
        ops = label_ops(alg)
        idx = {lam: i for i, lam in enumerate(basis)}
        vecs = {lam: vector(alg, ClassVector.schubert(box, lam)) for lam in basis}
        products = {(a, b): mat_vec(ops[a], vecs[b]) for a in basis for b in basis}

        # triple product through the Poincare pairing at q = 1: <a b, c> is the
        # coordinate of a b at the lam with dual(lam) = c, and dual is an involution
        def triple(a, b, c):
            return products[a, b][idx[box.dual(c)]]

        for a in basis:
            for b in basis:
                for c in basis:
                    t = triple(a, b, c)
                    assert t == triple(b, a, c) == triple(a, c, b), (a, b, c)


def test_pairing_q1_duality():
    box = Box(3, 6)
    for lam in schubert_basis(box):
        for mu in schubert_basis(box):
            expected = 1 if mu == box.dual(lam) else 0
            assert (
                pairing_q1(ClassVector.schubert(box, lam), ClassVector.schubert(box, mu))
                == expected
            )


def test_sigma1_triple_integral():
    box = Box(3, 8)
    assert sigma1_triple_integral((5, 5, 4), (), box) == 1
    assert sigma1_triple_integral((5, 5, 5), (), box) == 0
    assert sigma1_triple_integral((5, 4, 4), (1,), box) == 1


def test_radical_across_q():
    # sigma_1 is invertible when n is odd relative to k-subset sums of roots
    # of unity; Gr(2,5) and Gr(3,7) have trivial radical at q = 1, hence at
    # every q != 0: at q = t^n the Pieri entries give t^p D^-1 P_p D with
    # D = diag(t^|lam|), the rescaling sigma_lam -> t^|lam| sigma_lam
    for box in [Box(2, 5), Box(3, 7)]:
        rad, perp = radical(box)
        assert rad == []
        assert len(perp) == len(label_piece(grassmannian(box)))
        assert linalg.det_bareiss(dense_square(pieri_matrix(box, 1))) != 0
        degrees = [size(lam) for lam in schubert_basis(box)]
        for t in (Fraction(2), Fraction(1, 2)):
            for p in range(1, box.k + 1):
                at_q = linalg.zeros(len(degrees), len(degrees))
                for row, col, d in quantum.pieri_entries(box, p):
                    at_q[row][col] = t ** (box.n * d)
                rescaled = [
                    [t ** (p + degrees[col] - degrees[row]) * x for col, x in enumerate(entries)]
                    for row, entries in enumerate(dense_square(pieri_matrix(box, p)))
                ]
                assert at_q == rescaled, (box, t, p)


def test_radical_of_even_quadric_like_boxes():
    # 1 - s_(2,2) is annihilated by sigma_1 at q = 1 on Gr(2,4): the class
    # sigma_1 * s_(2,2) = q s_1 cancels against sigma_1 * 1, so zero is an
    # honest eigenvalue and the kernel is two-dimensional (yet the trace form
    # is still nondegenerate: the ring remains semisimple)
    for box, expected_dim in [(Box(2, 4), 2), (Box(3, 6), 2)]:
        rad, _ = radical(box)
        assert len(rad) == expected_dim
        e1 = dense_square(pieri_matrix(box, 1))
        power = linalg.mat_pow(e1, len(schubert_basis(box)))
        for v in dense(rad, len(schubert_basis(box))):
            assert all(x == 0 for x in mat_vec(power, v))
        assert qh_semisimple(box).holds is True
    box = Box(2, 4)
    rad, _ = radical(box)
    idx = {lam: i for i, lam in enumerate(schubert_basis(box))}
    special = [0] * 6
    special[idx[()]] = 1
    special[idx[(2, 2)]] = -1
    e1 = dense_square(pieri_matrix(box, 1))
    assert all(x == 0 for x in mat_vec(e1, special))


def test_semisimple_test_nilpotent_algebra(monkeypatch):
    # C[x]/(x^2): basis {1, x}; x is nilpotent so the trace form degenerates
    one = linalg.identity(2)
    x = [[0, 0], [1, 0]]
    assert semisimple_test([one, x]) is False
    # semisimple_test takes commutativity from its callers, who assert it on
    # generators: every algebra's constructor on e_1..e_k ...
    bad = [[0, 1], [0, 0]]
    assert not commuting([sparse_rows(x), sparse_rows(bad)])
    gr12 = grassmannian(Box(1, 2))
    e_ops = {1: sparse_rows(x), 2: sparse_rows(bad)}
    with pytest.raises(InternalConsistencyError, match="do not commute"):
        GradedAlgebra(gr12.box, gr12.basis, gr12.degrees, gr12.r, e_ops)
    # ... and the oracle's perp route on the perp generators and e_1^r, both ways
    for generators, shift in [([x, bad], linalg.identity(2)), ([x], bad)]:
        monkeypatch.setattr(oracles, "perp_piece_operators", lambda ring, perp: (generators, shift))
        with pytest.raises(InternalConsistencyError, match="do not commute"):
            oracles.perp_route_semisimple(3, 8)


def test_qh_semisimple_small():
    assert qh_semisimple(Box(2, 4)) == qh_semisimple(Box(3, 7)) == Verdict(True, "trace-form", None)


@pytest.mark.parametrize("box", BOXES_9, ids=str)
def test_trace_vector_and_gram_match_the_label_operators(box):
    # the reverse pass and the thin run against the dense route:
    # t_c = trace(L_c), and trace_form_gram's rows t^T L_a, exactly
    alg = grassmannian(box)
    t, gram = dense([quantum.trace_row(alg)], len(alg.basis))[0], trace_form_rows(alg)
    ops = [label_ops(alg)[lab] for lab in alg.basis]
    assert t == [linalg.trace(op) for op in ops]
    assert dense_square(gram) == trace_form_gram(ops)
    # t vanishes off the residue-0 piece
    piece = set(label_piece(alg))
    assert not any(tc for tc, lab in zip(t, alg.basis) if lab not in piece)


@pytest.mark.parametrize("box", BOXES_9, ids=str)
def test_the_reverse_pass_is_the_forward_trace_vector(box):
    # one row per label, against the run seeded with the residue-0 piece's
    # unit vectors, value for value and type for type
    alg = grassmannian(box)
    typed = lambda v: [(type(x), x) for x in v]
    assert typed(dense([quantum.trace_row(alg)], len(alg.basis))[0]) == typed(trace_vector_forward(alg))


@pytest.mark.parametrize("n, shifted", [(7, False), (7, True), (8, True)])
def test_the_reverse_pass_is_the_forward_trace_vector_on_a_section(n, shifted):
    # (3, 8): beta has no operator and is left out of both sums; its entry,
    # in the residue-0 piece, is 0 both ways.  The forward sums of
    # Fractions there are integral at three labels, which are ints both ways.
    # The Gram rows are seeded with it: the unit's row is t^T, or t^T E_1
    ring = section.build_ring(3, n)
    typed = lambda v: [(type(x), x) for x in v]
    row = quantum.trace_row(ring)
    t = dense([row], len(ring.basis))[0]
    assert typed(t) == typed(trace_vector_forward(ring))
    seed = linalg.sparse_mul_sum([(1, [row], ring.e_ops[1])])[0] if shifted else row
    assert trace_form_rows(ring, shifted)[ring.index[()]] == seed
    if n == 8:
        assert t[ring.index[section.BETA]] == 0
        assert any(type(x) is Fraction for op in ring.e_ops.values() for row in op for x in row.values())


def test_a_trace_vector_off_the_residue_0_piece_exits_1(capsys, monkeypatch):
    from qhgrass import cli

    # a plan step whose correction has the wrong degree, L_(1) = E_1 + I,
    # puts a nonzero of t^T = sum e_lam^T L_lam on sigma_1, off the piece;
    # no constructor makes such a plan, since each correction is read off a
    # graded Pieri image
    alg = copy.copy(grassmannian(Box(2, 4)))
    (lam, p, lam_prime, corrections), *rest = alg.plan
    assert (lam, lam_prime) == ((1,), ())
    alg.plan = ((lam, p, lam_prime, corrections + (((), 1),)), *rest)
    with pytest.raises(InternalConsistencyError, match="the trace vector has a nonzero off the residue-0 piece"):
        trace_form_rows(alg)
    monkeypatch.setattr(quantum, "grassmannian", lambda box: alg)
    assert cli.run(["qh", "semisimple", "--k", "2", "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: the trace vector has a nonzero off the residue-0 piece\n"


def test_a_symmetric_gram_decides_each_mirrored_pair_of_blocks_once(monkeypatch):
    # Gr(5, 10): residues 0 and 5 are their own mirrors, and 1-9, 2-8, 3-7
    # and 4-6 pair off, so 6 of the 10 residue blocks take a determinant
    calls, original = [], linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda a, divide: calls.append(len(a)) or original(a, divide))
    alg = grassmannian(Box(5, 10))
    assert quantum.trace_form_nonsingular(alg)
    assert len(calls) == 6 and sorted(calls) == sorted(len(alg.pieces[rho]) for rho in (0, 1, 2, 3, 4, 5))


def test_a_grams_blocks_are_decided_by_det_bareiss(monkeypatch):
    # the verdict's block determinants are the one determinant routine's
    # calls, one per block that no mirror decides
    calls, original = [], linalg.det_bareiss
    monkeypatch.setattr(linalg, "det_bareiss", lambda a: calls.append(len(a)) or original(a))
    for cache in lru_caches():
        cache.cache_clear()
    assert quantum.qh_semisimple(Box(5, 10)).holds is True
    assert calls == [26, 25, 25, 25, 25, 26]


@pytest.mark.parametrize("box", BOXES_8, ids=str)
def test_shifted_gram_is_the_gram_times_e1(box):
    # t^T E_1 L_a e_b = t^T L_a E_1 e_b: the run seeded with E_1^T t gives
    # G E_1, entry for entry and type for type
    alg = grassmannian(box)
    gram, shifted = trace_form_rows(alg), trace_form_rows(alg, shifted=True)
    typed = lambda op: [[(type(x), x) for x in row] for row in op]
    assert typed(dense_square(shifted)) == typed(linalg.mat_mul(dense_square(gram), dense_square(alg.e_ops[1])))


def test_trace_vector_and_gram_of_a_section_ring():
    # (3, 7) has no beta: its Gram is the whole ring's; (3, 8)'s beta has no
    # operator, so its trace vector is undetermined, and since no command
    # asks for it there, asking is a fault of the program
    ring = section.build_ring(3, 7)
    t, gram = dense([quantum.trace_row(ring)], len(ring.basis))[0], trace_form_rows(ring)
    ops = [label_ops(ring)[lab] for lab in ring.basis]
    assert t == [linalg.trace(op) for op in ops] and dense_square(gram) == trace_form_gram(ops)
    with pytest.raises(InternalConsistencyError, match="every basis class's operator"):
        trace_form_rows(section.build_ring(3, 8))


@pytest.mark.parametrize("box", [Box(4, 9), Box(4, 10), Box(5, 10)], ids=str)
def test_qh_semisimple_on_the_largest_boxes(box):
    # Abrams: QH(Gr(k, n)) is semisimple
    assert qh_semisimple(box).holds is True


def _ungraded_gr24():
    # E_1 + I still commutes with E_2, so the commutativity check admits it,
    # but its diagonal keeps the degree: E_1 no longer raises it by 1 mod 4
    gr = grassmannian(Box(2, 4))
    e_ops = {p: [dict(row) for row in op] for p, op in gr.e_ops.items()}
    for i, row in enumerate(e_ops[1]):
        row[i] = row.get(i, 0) + 1
    return GradedAlgebra(gr.box, gr.basis, gr.degrees, gr.r, e_ops)


def test_the_grading_certificate_refuses_a_corrupted_operator(capsys, monkeypatch):
    from qhgrass import cli

    # the constructor certifies the grading, so the corrupted ring is never built
    with pytest.raises(InternalConsistencyError, match=r"e_1 does not raise degree by 1 mod 4"):
        _ungraded_gr24()
    quantum.require_graded(grassmannian(Box(2, 4)))
    monkeypatch.setattr(quantum, "grassmannian", lambda box: _ungraded_gr24())
    assert cli.run(["qh", "semisimple", "--k", "2", "--n", "4", "--format", "json"]) == 1
    assert "internal consistency failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["qh semisimple --k 2 --n 4", "qh semisimple --section --k 3 --n 7"])
def test_a_gram_entry_outside_its_residue_block_exits_1(capsys, monkeypatch, argv):
    from qhgrass import cli

    # trace(L_a L_b) = phi(a b) vanishes unless deg a + deg b = 0 mod r, so
    # the Gram matrix is decided on the blocks of residue rho against -rho;
    # an entry between the unit and sigma_1 contradicts that grading
    original = quantum.trace_form_rows

    def perturbed(alg, shifted=False):
        unit, sigma1 = alg.index[()], alg.index[(1,)]
        return [{**row, sigma1: 1} if i == unit else row for i, row in enumerate(original(alg, shifted))]

    monkeypatch.setattr(quantum, "trace_form_rows", perturbed)
    assert cli.run(argv.split()) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: a nonzero entry lies outside the blocks its grading allows\n"


def test_ambient_qh_semisimple_builds_no_label_operator(capsys, monkeypatch):
    from qhgrass import cli

    calls = []
    monkeypatch.setattr(quantum, "mult_operators", lambda alg: calls.append(alg))
    assert cli.run(["qh", "semisimple", "--k", "4", "--n", "8", "--format", "json"]) == 0
    assert calls == [] and not capsys.readouterr().err


def test_every_e_operator_is_sparse_rows_with_no_zero_value():
    # row i of e_ops[p] is {column: value} over its nonzeros, for Gr(k, n),
    # for each section ring and for the Pieri matrices they are built from
    rings = [grassmannian(box) for box in BOXES_8] + [section.build_ring(3, n) for n in (6, 7, 8)]
    operators = [(alg.basis, op) for alg in rings for op in alg.e_ops.values()]
    operators += [(schubert_basis(box), pieri_matrix(box, p)) for box in BOXES_8 for p in range(1, box.k + 1)]
    for basis, op in operators:
        assert type(op) is list and len(op) == len(basis)
        for row in op:
            assert type(row) is dict and all(x != 0 for x in row.values())
            assert all(type(j) is int and 0 <= j < len(basis) for j in row)


def test_no_command_converts_a_whole_e_operator(capsys, monkeypatch):
    # every reader takes the e-operators as sparse rows, the trace vector
    # comes out of the reverse pass as one, and the Gram matrix is sparse
    # rows too, so linalg has no converter either way, and these commands
    # never reach mult_operators, the one place that makes rows dense
    from qhgrass import cli

    sizes = []
    original = quantum.mult_operators
    monkeypatch.setattr(quantum, "mult_operators", lambda alg: sizes.append(len(alg.basis)) or original(alg))
    grassmannian.cache_clear()
    section.build_ring.cache_clear()
    for argv in (["qh", "semisimple", "--k", "4", "--n", "8"], ["qh", "presentation", "--k", "4", "--n", "8"],
                 ["qh", "lefschetz", "--n", "8"], ["qh", "semisimple", "--section", "--k", "3", "--n", "7"],
                 ["qh", "semisimple", "--section", "--k", "3", "--n", "8"]):
        assert cli.run(argv + ["--format", "json"]) == 0, argv
    assert not capsys.readouterr().err
    assert sizes == [] and not hasattr(linalg, "dense") and not hasattr(linalg, "sparse_rows")


@pytest.mark.parametrize(
    "argv, k, plans",
    [("qh semisimple --k 4 --n 8", 4, 1), ("qh semisimple --section --k 3 --n 7", 3, 1),
     ("qh semisimple --section --k 3 --n 8", 3, 1), ("qh lefschetz --n 8", 3, 1),
     ("qh charpoly --section --k 3 --n 8 --power 7", 3, 0)],
)
def test_a_command_makes_one_label_plan_per_algebra_and_one_mask_table_per_box(argv, k, plans, monkeypatch):
    from cli_pins import run_pin

    # the plan lives on its algebra, so every label run on one algebra shares
    # one label_plan call; the charpoly runs no label recursion and makes none.
    # run_pin clears every cache, and with it the cache statistics
    made, label_plan = [], quantum.label_plan
    monkeypatch.setattr(quantum, "label_plan", lambda alg: made.append(alg) or label_plan(alg))
    code, out, err = run_pin(argv + " --format json")
    assert code == 0 and out and not err
    assert len(made) == len(set(map(id, made))) == plans
    assert quantum._particles.cache_info().misses == 1
    assert quantum.pieri_entries.cache_info().misses == k


def test_qh_semisimple_checks_commutativity_on_pieri_generators(monkeypatch):
    seen = []

    def recording(ops):
        seen.append(ops)
        return commuting(ops)

    monkeypatch.setattr(quantum, "commuting", recording)
    for box in (Box(2, 5), Box(3, 7), Box(4, 8)):
        seen.clear()
        grassmannian.cache_clear()
        assert qh_semisimple(box).holds is True
        generators = [pieri_matrix(box, p) for p in range(1, box.k + 1)]
        assert seen == [generators], box


def test_no_ambient_verdict_builds_a_dense_matrix(monkeypatch):
    from cli_pins import run_pin

    # Gr(k, n) carries no pairing, and qh semisimple reads only sparse
    # e-operators and thin runs, so no d x d list of lists is made
    calls, zeros = [], linalg.zeros
    monkeypatch.setattr(linalg, "zeros", lambda rows, cols: calls.append((rows, cols)) or zeros(rows, cols))
    for argv in ("qh semisimple --k 4 --n 8", "qh semisimple --k 2 --n 25"):
        code, out, err = run_pin(argv)
        assert code == 0 and out and not err, argv
    assert calls == []
    assert not hasattr(grassmannian(Box(4, 8)), "pairing")


def test_no_section_verdict_builds_a_dense_matrix(monkeypatch):
    from cli_pins import run_pin

    # the section pairing is sparse rows, checked on its degree blocks, and
    # both section verdicts decide their Gram on its residue blocks
    calls, zeros = [], linalg.zeros
    monkeypatch.setattr(linalg, "zeros", lambda rows, cols: calls.append((rows, cols)) or zeros(rows, cols))
    for n in (7, 8):
        code, out, err = run_pin(f"qh semisimple --section --k 3 --n {n}")
        assert code == 0 and out and not err, n
        assert all(type(row) is dict for row in section.build_ring(3, n).pairing)
    assert calls == []


def test_cup_e_is_classical_part():
    box = Box(3, 6)
    for lam in schubert_basis(box):
        cl = cup_e(2, ClassVector.schubert(box, lam))
        qp = quantum_pieri(2, lam, box)
        assert cl.terms == {key: c for key, c in qp.items() if key[1] == 0}


_entries = st.one_of(
    st.just(0), st.integers(-3, 3), st.builds(linalg.exact_div, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4]))
)


@st.composite
def _sparse_operators(draw):
    """One to three random square operators on sparse rows, int and Fraction
    entries mixed, and two polynomials c_0 + c_1 a + c_2 a^2 in the first."""
    dim = draw(st.integers(1, 4))
    ops = [sparse_rows([[draw(_entries) for _ in range(dim)] for _ in range(dim)])
           for _ in range(draw(st.integers(1, 3)))]
    unit = [{i: 1} for i in range(dim)]
    powers = [unit, ops[0], linalg.sparse_mul_sum([(1, ops[0], ops[0])])]
    polys = [linalg.sparse_mul_sum([(draw(_entries), unit, m) for m in powers]) for _ in range(2)]
    return ops, polys


@settings(max_examples=200, deadline=None)
@given(_sparse_operators())
def test_commuting_on_integral_multiples_agrees_with_the_fraction_commutator(case):
    ops, polys = case
    assert commuting(ops) == commuting_in_fractions(ops)
    # polynomials in one operator commute with it and with each other
    assert commuting(polys + ops[:1]) is commuting_in_fractions(polys + ops[:1]) is True
    assert commuting(polys + ops[1:]) == commuting_in_fractions(polys + ops[1:])
