import copy
from fractions import Fraction

import pytest

from oracles import (
    PRINTED_H,
    ClassVector,
    ColumnSpanSolver,
    UndeterminedProductError,
    UniPoly,
    beta,
    betti_numbers,
    build_lifts,
    classical_section_e_ops,
    classical_section_ring,
    cup_e,
    dense_square,
    evaluate_e_polynomials,
    h_relations_on_every_unit_vector,
    label_degree,
    lift_operator,
    mat_combine,
    mat_vec,
    matrix_product_e_ops,
    mult_operator,
    pair_loop_pairing,
    perp_iso_check,
    perp_piece_operators,
    perp_route_semisimple,
    perp_space,
    perp_subalgebra_operators,
    pieri_on_label,
    radical_by_power,
    rank,
    reduce,
    ring_with_e_ops,
    schubert,
    section_pieri,
    sigma_e_polynomial,
    solve,
    sparse_rows,
    star_e,
    symbolic_e_ops,
    symbolic_label_ops,
    trace_form_gram,
    vector,
)
from qhgrass import hodge, linalg, quantum, screen, section
from qhgrass.errors import InternalConsistencyError, InvalidInputError
from qhgrass.partitions import Box, box_partitions_of_size, canonical, size
from qhgrass.quantum import (
    GradedAlgebra,
    commuting,
    grassmannian,
    mult_operators,
    schubert_basis,
)
from qhgrass.section import (
    BETA,
    SectionRing,
    build_ring,
    full_ring_semisimple,
    lefschetz_relation_check,
    perp_subalgebra_semisimple,
    radical_and_perp,
    section_charpoly,
    section_semisimplicity,
)

LEMMA_POLY_37 = UniPoly([128, -13, 1]) * UniPoly([1, -57, -289, 1])
LEMMA_POLY_38_E1 = -(
    UniPoly([1, -1]) * UniPoly([1, -1]) * UniPoly([1, -1])
    * UniPoly([1, -1154, 1]) * UniPoly([6561, -34, 1])
)
LEMMA_POLY_38_E2 = (
    UniPoly([1, -1]) * UniPoly([1, 478, -1]) * UniPoly([1, 0, 1]) * UniPoly([2187, 6, 1])
)

GAMMA_38 = {
    (5, 5, 4): 2, (3, 2, 2): -1, (3, 3, 1): 1, (4, 2, 1): 1,
    (4, 3): -2, (5, 1, 1): -3, (5, 2): 2,
}


def _integral(ring, x):
    """Integral over Y: the coefficient of the top-degree class at the ring's q."""
    (top,) = ring.degree_basis[ring.dim_y]
    return vector(ring, x)[ring.index[top]]


def _pair(ring, x, y):
    return sum(a * b for a, b in zip(vector(ring, x), mat_vec(dense_square(ring.pairing), vector(ring, y))))


def _degrees(ring, x):
    """The degrees deg(label) + r * (q power) of the terms of a class."""
    return {label_degree(ring, lab) + ring.r * qp for lab, qp in x.terms}


def test_ring_dimensions_and_graded_ranks():
    expectations = {
        (3, 6): (18, [1, 1, 2, 3, 4, 3, 2, 1, 1]),
        (3, 7): (30, [1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1]),
        (3, 8): (51, [1, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 1]),
    }
    for (k, n), (total, ranks) in expectations.items():
        ring = build_ring(k, n)
        assert len(ring.basis) == total
        assert list(betti_numbers(ring)) == ranks


def test_section_constants_match_localization():
    # the quotient-ring route (basis size, prim_dim) against the Hodge
    # diamond from localization
    for n, total, prim in [(6, 18, 1), (7, 30, 0), (8, 51, 1)]:
        even_betti = hodge.section_profile(3, n).even_betti
        dim_y = len(even_betti) - 1
        assert len(build_ring(3, n).basis) == sum(even_betti) == total, n
        if dim_y % 2:
            expected = 0
        else:
            mid = dim_y // 2
            expected = even_betti[mid] - len(box_partitions_of_size(3, n, mid))
        assert build_ring(3, n).prim_dim == expected == prim, n


def test_build_ring_rejects_unsupported():
    with pytest.raises(InvalidInputError):
        build_ring(2, 5)
    with pytest.raises(InvalidInputError):
        build_ring(3, 9)


def test_degree_six_relation_golden():
    ring = build_ring(3, 7)
    degree_basis, relations = ring.degree_basis, ring.relations
    assert degree_basis[6] == ((4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2))
    assert relations[(4, 2)] == {
        (4, 1, 1): 2, (3, 3): 1, (3, 2, 1): -1, (2, 2, 2): 1,
    }


def test_residue_zero_pieces_golden():
    ring7 = build_ring(3, 7)
    assert [ring7.basis[i] for i in ring7.pieces[0]] == [(), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2)]
    ring8 = build_ring(3, 8)
    piece = [ring8.basis[i] for i in ring8.pieces[0]]
    assert len(piece) == 9
    assert BETA in piece and (5, 5, 4) in piece


def test_ambient_dimension_38():
    degree_basis = build_ring(3, 8).degree_basis
    assert sum(len(v) for v in degree_basis.values()) == 50


def test_section_pieri_identities_from_source():
    ring = build_ring(3, 7)
    lhs = pieri_on_label(ring, 1, (4, 4, 1))
    rhs = schubert(ring, (4, 4, 2)) + schubert(ring, (3, 1), q_power=1)
    assert lhs == rhs

    # e_{1,1} * j s_(4,4,2) = q (j s_(3,2) + j s_(4,1)) cup j s_1
    #                          - q j s_(3,1) cup j s_(1,1)
    lhs = section_pieri(ring, 2, schubert(ring, (4, 4, 2)))
    part_a = cup_e(1, ClassVector(ring.box, {((3, 2), 0): 1, ((4, 1), 0): 1}))
    part_b = cup_e(2, ClassVector.schubert(ring.box, (3, 1)))
    rhs = reduce(ring, part_a - part_b).shift_q(1)
    assert lhs == rhs


def test_pieri_kills_primitive_class():
    for n in (6, 8):
        ring = build_ring(3, n)
        for p in (1, 2, 3):
            assert section_pieri(ring, p, beta(ring)).is_zero()
    with pytest.raises(InvalidInputError):
        beta(build_ring(3, 7))


def test_section_pieri_well_defined_on_kernel():
    # every cup-sigma_1 kernel element must be sent to zero by the raw rule
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        for pivot, rel in ring.relations.items():
            kernel_elt = ClassVector(ring.box, {(pivot, 0): 1}) - ClassVector(
                ring.box, {(lam, 0): c for lam, c in rel.items()}
            )
            for p in (1, 2, 3):
                classical = cup_e(p, kernel_elt)
                shifted = cup_e(1, kernel_elt)
                quantum = star_e(p, shifted) - cup_e(p, shifted)
                image = reduce(ring, classical + quantum)
                assert image.is_zero(), (n, pivot, p)


def test_operator_commutativity():
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        for a in (1, 2, 3):
            for b in range(a + 1, 4):
                ab = linalg.mat_mul(dense_square(ring.e_ops[a]), dense_square(ring.e_ops[b]))
                ba = linalg.mat_mul(dense_square(ring.e_ops[b]), dense_square(ring.e_ops[a]))
                assert ab == ba, (n, a, b)


def test_degree_homogeneity_with_section_q_degree():
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        for lab in ring.basis:
            m = label_degree(ring, lab)
            for p in (1, 2, 3):
                image = pieri_on_label(ring, p, lab)
                for (mu, qp), coeff in image.terms.items():
                    assert label_degree(ring, mu) + (n - 1) * qp == m + p


def test_frobenius_property_of_operators():
    # <x*y, z> fully symmetric is equivalent to: all multiplication operators
    # self-adjoint for the pairing, and M_x columns symmetric in (x, column)
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        ambient = [lab for lab in ring.basis if lab != BETA]
        for lab in ambient:
            op = ring.label_ops[lab]
            transposed = [list(r) for r in zip(*op)]
            assert linalg.mat_mul(transposed, dense_square(ring.pairing)) == linalg.mat_mul(
                dense_square(ring.pairing), op
            ), (n, lab)
        for x in ambient:
            ix = ring.index[x]
            for y in ambient:
                iy = ring.index[y]
                col_xy = [row[iy] for row in ring.label_ops[x]]
                col_yx = [row[ix] for row in ring.label_ops[y]]
                assert col_xy == col_yx, (n, x, y)


def test_classical_limit_is_quotient_cup_product():
    # R C_p J, the q-free half of E_p, is the cup product pushed to the
    # quotient; beta's column is zero
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        for p, mat in classical_section_e_ops(ring).items():
            for col, lab in enumerate(ring.basis):
                cup = ClassVector(ring.box) if lab == BETA else cup_e(p, ClassVector.schubert(ring.box, lab))
                assert [row.get(col, 0) for row in mat] == vector(ring, reduce(ring, cup)), (n, p, lab)


def test_section_charpolys_golden():
    ring7, ring8 = build_ring(3, 7), build_ring(3, 8)
    assert UniPoly(section_charpoly(ring7, 6)) == LEMMA_POLY_37
    assert UniPoly(section_charpoly(ring8, 7)) == UniPoly([0, 0, 1]) * LEMMA_POLY_38_E1
    assert UniPoly(section_charpoly(ring8, 5, with_e2=True)) == UniPoly([0, 0, 1]) * LEMMA_POLY_38_E2


def test_lefschetz_identities():
    # h_4 = h_5 = 0 and h_6 = e_1 hold on the 18-dimensional (3, 6) ring, beta included
    for n in (6, 7, 8):
        assert lefschetz_relation_check(build_ring(3, n)) is True, n


def _identity_seeds(ring):
    return [{i: 1} for i in range(len(ring.basis))]


@pytest.mark.parametrize("n", (7, 8))
def test_h_recursion_matches_the_monomial_evaluation_on_the_section(n):
    # seeded with every unit vector, block m of h_operators is H_m^T
    ring = build_ring(3, n)
    dim = len(ring.basis)
    for top in (n, n + 1):
        got = [linalg.dense(h, dim) for h in quantum.h_operators(ring.columns, top, _identity_seeds(ring))]
        polys = [sigma_e_polynomial(m, 3) for m in range(top - 2, top + 1)]
        assert got == [[list(col) for col in zip(*mat)] for mat in evaluate_e_polynomials(polys, ring.e_ops)], top


def test_the_lefschetz_check_is_seeded_with_the_unit_and_beta(monkeypatch):
    # the check runs no d x d block: every step of the h-recursion is at
    # most two rows, the unit and beta
    ring = build_ring(3, 8)
    blocks = []
    sparse_mul_sum = linalg.sparse_mul_sum

    def spy(terms):
        blocks.extend(a for _, a, _ in terms)
        return sparse_mul_sum(terms)

    monkeypatch.setattr(linalg, "sparse_mul_sum", spy)
    assert lefschetz_relation_check(ring)
    assert blocks and max(map(len, blocks)) <= 2
    assert [{ring.index[()]: 1}, {ring.index[BETA]: 1}] in blocks


def test_the_relation_commands_seed_the_unit_and_beta_and_run_no_label_recursion(monkeypatch):
    # both presentations are checked by quantum.h_relation_check, seeded with
    # the unit and every label label_plan does not build: beta on (3, 8) alone
    from cli_pins import run_pin

    calls = []
    h_operators = quantum.h_operators

    def recording(columns, top, seeds):
        calls.append(len(seeds))
        return h_operators(columns, top, seeds)

    monkeypatch.setattr(quantum, "h_operators", recording)
    monkeypatch.setattr(quantum, "label_recursion", lambda *args: calls.append("label_recursion"))
    for argv in ("qh presentation --k 4 --n 8", "qh lefschetz --n 7", "qh lefschetz --n 8"):
        code, out, err = run_pin(argv)
        assert (code, err) == (0, "") and out.endswith("holds: yes\n"), argv
    assert calls == [1, 1, 2]


def _ring_with_perturbed_e_ops(monkeypatch, n, perturb):
    """SectionRing(3, n) built with perturb applied to its e-operators, or
    None when the constructor rejects them."""
    original = SectionRing._e_operators

    def perturbed(self, basis, pieri):
        e_ops = original(self, basis, pieri)
        perturb(e_ops)
        return e_ops

    monkeypatch.setattr(SectionRing, "_e_operators", perturbed)
    try:
        return SectionRing(3, n)
    except InternalConsistencyError:
        return None
    finally:
        monkeypatch.undo()


def test_lefschetz_check_fails_on_any_perturbed_section_pieri_entry(monkeypatch):
    # every nonzero entry of E_1, E_2, E_3 dropped, each ring built by the
    # constructor, which asserts that they commute; the seeded check rests on
    # that, so it is never handed a ring no build can produce.  Each is
    # rejected by the constructor or by the check, and wherever the check
    # runs it agrees with the check seeded with every unit vector
    for n in (7, 8):
        ring = build_ring(3, n)
        entries = [(p, r, c) for p in (1, 2, 3) for r, row in enumerate(ring.e_ops[p]) for c in sorted(row)]
        for p, r, c in entries:
            fake = _ring_with_perturbed_e_ops(monkeypatch, n, lambda e_ops: e_ops[p][r].pop(c))
            if fake is not None:
                columns = fake.columns
                seeded = lefschetz_relation_check(fake)
                assert not seeded, (n, p, r, c)
                assert seeded == h_relations_on_every_unit_vector(columns, n, columns[1])
        columns = ring.columns
        assert lefschetz_relation_check(ring)
        assert h_relations_on_every_unit_vector(columns, n, columns[1])


def test_the_lefschetz_check_reads_every_vanishing_h(monkeypatch):
    # h_{n-2} = 0 is a relation as well: with it made nonzero on the seeds,
    # and h_{n-1} = 0 and h_n = E_1 kept, the check fails
    ring = build_ring(3, 7)
    columns = ring.columns
    h_operators = quantum.h_operators
    h_low, h_prev, h_top = h_operators(columns, 7, _identity_seeds(ring))
    assert not any(h_low) and not any(h_prev) and h_top == columns[1]

    def h_low_made_nonzero(columns, top, seeds):
        low, *rest = h_operators(columns, top, seeds)
        return [[{0: 1}] + low[1:], *rest]

    monkeypatch.setattr(quantum, "h_operators", h_low_made_nonzero)
    assert not lefschetz_relation_check(ring)


def test_printed_h_polynomials_are_the_derived_relations():
    # the source prints h_6, h_7, h_8 in e_1, e_2, e_3; lefschetz_relation_check
    # runs the h-recursion, whose expansion in e_1, e_2, e_3 is sigma_e_polynomial
    for m, printed in PRINTED_H.items():
        assert sigma_e_polynomial(m, 3) == printed, m


def test_radical_37_trivial():
    ring = build_ring(3, 7)
    rad = radical_and_perp(ring)
    assert rad == []
    assert len(perp_space(ring, rad, dense_square(ring.pairing))) == 5
    assert linalg.det_bareiss(dense_square(ring.e_ops[1])) != 0


def test_radical_38_matches_source_vector():
    ring = build_ring(3, 8)
    rad = radical_and_perp(ring)
    assert len(rad) == 2 and len(perp_space(ring, rad, dense_square(ring.pairing))) == 7
    beta_vec = [0] * len(ring.basis)
    beta_vec[ring.index[BETA]] = 1
    gamma = reduce(ring, ClassVector(ring.box, {(lam, 0): c for lam, c in GAMMA_38.items()}))
    gamma_vec = vector(ring, gamma)
    span = [list(col) for col in zip(*linalg.dense(rad, len(ring.basis)))]
    for target in (beta_vec, gamma_vec):
        coords = solve(span, target)  # raises if outside the radical
        assert any(coords)
    # the classical integral of j*gamma is 2; its square is 3 j*gamma, whose
    # integral (equivalently the trace of multiplication by j*gamma, or the
    # pairing of j*gamma with itself) is 6, certifying non-nilpotence
    assert _integral(ring, gamma) == 2
    op = mult_operator(ring, gamma_vec)
    assert linalg.trace(op) == 6
    square = mat_vec(op, gamma_vec)
    assert square == [3 * c for c in gamma_vec]
    assert _pair(ring, gamma, gamma) == 6
    # e_1 is invertible off the radical: rank drops by exactly the radical
    assert rank(dense_square(ring.e_ops[1])) == len(ring.basis) - 2


@pytest.mark.parametrize("n", [6, 7, 8])
def test_radical_by_squaring_matches_the_power_route(n):
    # ker e_1, certified by the pairing, is ker e_1^dim from the power of e_1,
    # entry for entry and type for type, both as sparse rows sorted by lead
    ring = build_ring(3, n)
    rad = radical_and_perp(ring)
    expected, _ = radical_by_power(ring, dense_square(ring.pairing))
    typed = lambda vecs: [[(j, type(x), x) for j, x in v.items()] for v in vecs]
    assert typed(rad) == typed(expected)


def test_perp_space_38_is_ambient():
    ring = build_ring(3, 8)
    for v in perp_space(ring, radical_and_perp(ring), dense_square(ring.pairing)):
        assert v[ring.index[BETA]] == 0


def test_perp_isomorphism_checks():
    assert perp_iso_check(3, 7)
    assert perp_iso_check(3, 8)
    with pytest.raises(InvalidInputError):
        perp_iso_check(3, 6)


def test_semisimplicity_routes():
    assert full_ring_semisimple(build_ring(3, 7))
    ok, dim, rad_dim = perp_subalgebra_semisimple(build_ring(3, 8))
    assert ok and dim == 49 and rad_dim == 2
    # no command sends a ring with beta to the full-ring route, so reaching
    # it is a fault of the program
    with pytest.raises(InternalConsistencyError, match="every basis class's operator"):
        full_ring_semisimple(build_ring(3, 8))
    with pytest.raises(InternalConsistencyError, match="every basis class's operator"):
        full_ring_semisimple(build_ring(3, 6))


def test_perp_route_on_the_37_section_is_the_whole_ring():
    # the radical is empty, so S is the whole 30-dimensional ring
    ring = build_ring(3, 7)
    assert perp_subalgebra_semisimple(ring) == (True, 30, 0)
    assert full_ring_semisimple(ring)


@pytest.mark.parametrize("n, expected", [(6, (True, 15, 3)), (7, (True, 30, 0)), (8, (True, 49, 2))])
def test_perp_route_agrees_with_the_oracle(n, expected):
    # A / ker e_1 from the shifted Gram matrix against S = sum e_1^i P decided
    # on P by the det G_S identity: verdict, dim S and dim R
    assert perp_subalgebra_semisimple(build_ring(3, n)) == perp_route_semisimple(3, n) == expected


def test_shifted_gram_of_a_section_ring():
    # (3, 7): the shifted Gram is the whole ring's Gram times E_1, entry for
    # entry and type for type, and symmetric.  (3, 8): beta's row and column
    # are zero
    typed = lambda op: [[(type(x), x) for x in row] for row in op]
    ring7 = build_ring(3, 7)
    shifted = dense_square(quantum.trace_form_rows(ring7, shifted=True)[1])
    gram = dense_square(quantum.trace_form_rows(ring7)[1])
    assert typed(shifted) == typed(linalg.mat_mul(gram, dense_square(ring7.e_ops[1])))
    assert shifted == [list(col) for col in zip(*shifted)]
    ring8 = build_ring(3, 8)
    shifted = dense_square(quantum.trace_form_rows(ring8, shifted=True)[1])
    b = ring8.index[BETA]
    assert not any(shifted[b]) and not any(row[b] for row in shifted)
    assert shifted == [list(col) for col in zip(*shifted)]


def test_the_38_verdict_makes_one_reverse_pass_and_one_thin_label_run(capsys, monkeypatch):
    # as for Gr(k, n): one reverse pass over the plan for the trace vector,
    # one row per label, then one label run on rows seeded with a single
    # vector; no run on the piece's unit vectors, no label operator, no
    # trace_product
    from qhgrass import cli

    calls = []
    recursion, reverse = quantum.label_recursion, quantum.trace_row

    def recording(alg, seed):
        calls.append(("run", len(seed)))
        return recursion(alg, seed)

    def reverse_recording(alg):
        calls.append(("reverse pass", len(alg.plan)))
        return reverse(alg)

    monkeypatch.setattr(quantum, "label_recursion", recording)
    monkeypatch.setattr(quantum, "trace_row", reverse_recording)
    monkeypatch.setattr(quantum, "mult_operators", lambda *args: calls.append(("label operators", args)))
    monkeypatch.setattr(linalg, "trace_product", lambda *args: calls.append(("trace_product", args)))
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "8", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert '"semisimple": true' in out and not err
    ring = build_ring(3, 8)
    # every basis label but beta has a plan step, or is the unit
    assert len(ring.plan) == len(ring.basis) - 2
    assert calls == [("reverse pass", len(ring.plan)), ("run", 1)]


@pytest.mark.parametrize("n", [7, 8])
def test_perp_subalgebra_gram_determinant_factors_through_the_perp_space(n):
    # det G_S = (-1)^(p floor((r-1)/2)) r^(rp) det(G_P)^r det(M_z)^(r-1), with
    # G_S from the oracle's r p operators and G_P, M_z from the p x p ones
    ring = build_ring(3, n)
    perp = perp_space(ring, radical_and_perp(ring), dense_square(ring.pairing))
    generators, shift = perp_piece_operators(ring, perp)
    p, r = len(perp), ring.r
    assert len(generators) == p and all(len(op) == p for op in generators + [shift])
    det_s = linalg.det_bareiss(trace_form_gram(perp_subalgebra_operators(ring, perp)[0]))
    det_p, det_z = linalg.det_bareiss(trace_form_gram(generators)), linalg.det_bareiss(shift)
    assert det_s == (-1) ** (p * ((r - 1) // 2)) * r ** (r * p) * det_p**r * det_z ** (r - 1)
    assert det_s != 0


@pytest.mark.parametrize("n", [7, 8])
def test_perp_coordinates_read_at_the_pivots_match_the_solver(n):
    ring = build_ring(3, n)
    perp = perp_space(ring, radical_and_perp(ring), dense_square(ring.pairing))
    # a reduced echelon basis: a leading 1 at each pivot, 0 there in the others
    pivots = [next(i for i, c in enumerate(v) if c) for v in perp]
    assert [[v[i] for i in pivots] for v in perp] == linalg.identity(len(perp))
    generators, shift = perp_piece_operators(ring, perp)
    solver = ColumnSpanSolver(perp)

    def solved(images):
        return [list(row) for row in zip(*(solver.coords(w) for w in images))]

    typed = lambda op: [[(type(x), x) for x in row] for row in op]
    # the label recursion seeded with the perp vectors against whole label
    # operators, entry for entry and type for type
    for v, op in zip(perp, generators):
        mult = mult_operator(ring, list(v))
        assert typed(op) == typed(solved([mat_vec(mult, u) for u in perp]))
    e1_power = linalg.mat_pow(dense_square(ring.e_ops[1]), ring.r)
    assert typed(shift) == typed(solved([mat_vec(e1_power, u) for u in perp]))


def test_a_vector_outside_the_perp_space_is_refused(monkeypatch):
    import oracles

    ring = build_ring(3, 8)
    perp = perp_space(ring, radical_and_perp(ring), dense_square(ring.pairing))
    # without its last vector the span misses some products; with v_0 + v_1 in
    # place of v_0 the pivot reading is wrong, and rebuilding the image shows it
    not_reduced = [[a + b for a, b in zip(perp[0], perp[1])]] + perp[1:]
    for basis in (perp[:-1], not_reduced):
        with pytest.raises(InternalConsistencyError, match="vector lies outside the column span"):
            perp_piece_operators(ring, basis)
    monkeypatch.setattr(oracles, "perp_space", lambda alg, rad, pairing: perp[:-1])
    with pytest.raises(InternalConsistencyError, match="vector lies outside the column span"):
        perp_route_semisimple(3, 8)


def test_singular_e1_power_on_the_perp_space_gives_a_degenerate_verdict(monkeypatch):
    import oracles

    # G_P stays nondegenerate, but e_1^r kills P, so the trace form of S degenerates
    ring = build_ring(3, 8)
    generators, shift = perp_piece_operators(ring, perp_space(ring, radical_and_perp(ring), dense_square(ring.pairing)))
    zero = linalg.zeros(len(shift), len(shift))
    monkeypatch.setattr(oracles, "perp_piece_operators", lambda ring, perp: (generators, zero))
    assert quantum.semisimple_test(generators)
    assert perp_route_semisimple(3, 8) == (False, 49, 2)


def test_beta_off_the_radical_leads_exits_1(capsys, monkeypatch):
    from qhgrass import cli

    # e_1 * beta = 0 puts beta in ker e_1, where it leads a basis vector; a
    # radical that misses it is a fault of the program
    monkeypatch.setattr(section, "radical_and_perp", lambda ring: [])
    with pytest.raises(InternalConsistencyError, match="beta is not a lead of the radical ker e_1"):
        perp_subalgebra_semisimple(build_ring(3, 8))
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "8"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: beta is not a lead of the radical ker e_1\n"


def test_a_zero_shifted_gram_row_off_the_leads_gives_a_degenerate_verdict(capsys, monkeypatch):
    from qhgrass import cli

    # the unit is off the radical's leads; with its row of the shifted Gram
    # (sparse rows) emptied, B[C][C] is singular
    original = section.trace_form_rows
    ring = build_ring(3, 8)
    unit = ring.index[()]

    def zeroed(alg, shifted=False):
        t, gram = original(alg, shifted)
        return t, [{} if i == unit else row for i, row in enumerate(gram)]

    monkeypatch.setattr(section, "trace_form_rows", zeroed)
    assert perp_subalgebra_semisimple(ring) == (False, 49, 2)
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "8", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert '"semisimple": false' in out and "degenerate trace form on the perp subalgebra" in out and not err
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "8", "--format", "table"]) == 0
    out, err = capsys.readouterr()
    assert "degenerate trace form on the perp subalgebra" in out and not err


def test_full_ring_semisimple_checks_commutativity_on_e1_e2_e3(monkeypatch):
    seen = []

    def recording(ops):
        seen.append(ops)
        return commuting(ops)

    # the ring build asserts it once; the full-ring test, whose label
    # recursions rely on it, asserts nothing more
    monkeypatch.setattr(quantum, "commuting", recording)
    build_ring.cache_clear()
    ring = build_ring(3, 7)
    assert seen == [[ring.e_ops[1], ring.e_ops[2], ring.e_ops[3]]]
    assert full_ring_semisimple(ring)
    assert seen == [[ring.e_ops[1], ring.e_ops[2], ring.e_ops[3]]]
    # every label operator is a polynomial in e_1, e_2, e_3, so an algebra
    # whose generators fail to commute must be refused when it is built
    e_ops, last = dict(ring.e_ops), len(ring.basis) - 1
    e_ops[2] = [dict(row) for row in ring.e_ops[2]]
    e_ops[2][0][last] = e_ops[2][0].get(last, 0) + 1
    assert not commuting([e_ops[1], e_ops[2], e_ops[3]])
    with pytest.raises(InternalConsistencyError, match="do not commute"):
        GradedAlgebra(ring.box, ring.basis, ring.degrees, ring.r, e_ops)


# commands that read the e-operators, and for the perp verdict the label
# recursion on the perp vectors, but no label operator
NO_LABEL_OPERATOR_COMMANDS = [
    ["qh", "lefschetz", "--n", "7"],
    ["qh", "lefschetz", "--n", "8"],
    ["qh", "charpoly", "--section", "--k", "3", "--n", "7", "--power", "6"],
    ["qh", "charpoly", "--section", "--k", "3", "--n", "8", "--power", "5", "--with-e2"],
    ["qh", "semisimple", "--section", "--k", "3", "--n", "7"],
    ["qh", "semisimple", "--section", "--k", "3", "--n", "8"],
]


@pytest.mark.parametrize("argv", NO_LABEL_OPERATOR_COMMANDS, ids=" ".join)
def test_e_operator_commands_build_no_label_operators(argv, capsys, monkeypatch):
    from qhgrass import cli

    calls = []
    monkeypatch.setattr(quantum, "mult_operators", lambda alg: calls.append(alg))
    build_ring.cache_clear()
    assert cli.run(argv + ["--format", "json"]) == 0
    assert calls == [] and not capsys.readouterr().err


def test_the_38_section_verdict_computes_chi_y_once(capsys, monkeypatch):
    # the Betti screen and the ring's dimension check read one cached diamond
    from qhgrass import cli

    calls = []
    original = hodge.chi_y
    monkeypatch.setattr(hodge, "chi_y", lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    build_ring.cache_clear()
    hodge.diamond.cache_clear()
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "8", "--format", "json"]) == 0
    assert calls == [(3, 8)] and not capsys.readouterr().err


@pytest.mark.parametrize("n", [6, 7, 8])
def test_each_ring_build_asserts_commutativity_of_its_e_operators(n, monkeypatch):
    seen, built = [], []

    def recording(ops):
        seen.append(ops)
        return commuting(ops)

    monkeypatch.setattr(quantum, "commuting", recording)
    monkeypatch.setattr(quantum, "mult_operators", lambda alg: built.append(alg))
    ring = SectionRing(3, n)
    assert seen == [[ring.e_ops[1], ring.e_ops[2], ring.e_ops[3]]] and built == []


def test_noncommuting_e_operators_are_refused_when_the_ring_is_built(capsys, monkeypatch):
    from qhgrass import cli

    e_operators = SectionRing._e_operators
    # commutativity is checked on integral multiples, and a skew of 1/2 must
    # survive the scaling as a skew of 1 does
    for skew in (1, Fraction(1, 2)):

        def skewed(self, *args, skew=skew):
            e_ops = e_operators(self, *args)
            last = len(e_ops[2]) - 1
            e_ops[2][0][last] = e_ops[2][0].get(last, 0) + skew
            return e_ops

        monkeypatch.setattr(SectionRing, "_e_operators", skewed)
        build_ring.cache_clear()
        with pytest.raises(InternalConsistencyError, match="e_1..e_k do not commute"):
            SectionRing(3, 8)
        # qh lefschetz reads no label operator, and still exits 1
        assert cli.run(["qh", "lefschetz", "--n", "8"]) == 1
        out, err = capsys.readouterr()
        assert not out and err == "internal consistency failure: inconsistent Pieri images: e_1..e_k do not commute\n"


def _fraction_entries(terms) -> int:
    return sum(type(x) is Fraction for _, a, b in terms for m in (a, b) for row in m for x in row.values())


def test_commutativity_and_self_adjointness_products_run_over_the_ints(monkeypatch):
    # the (3, 8) ring carries half-integer entries, and no certificate
    # product of the build or of the perp route takes a Fraction operand
    ring = build_ring(3, 8)
    assert any(type(x) is Fraction for op in ring.e_ops.values() for row in op for x in row.values())
    calls = []
    sparse_mul_sum = linalg.sparse_mul_sum
    monkeypatch.setattr(linalg, "sparse_mul_sum", lambda terms: calls.append(terms) or sparse_mul_sum(terms))
    assert commuting(list(ring.e_ops.values()))
    assert len(calls) == 3 and sum(map(_fraction_entries, calls)) == 0
    calls.clear()
    radical_and_perp(ring)
    # the first product is pairing @ E_1 - E_1^T @ pairing
    assert [c for c, _, _ in calls[0]] == [1, -1] and _fraction_entries(calls[0]) == 0


@pytest.mark.parametrize("n", range(2, 11))
def test_unchecked_duals_and_first_column_removals_match_the_checked_ones(n):
    # _pairing's Box.complement and label_plan's lam' skip canonical(); on
    # every label of every box they equal the canonical complement and
    # first-column removal
    for k in range(1, n):
        box = Box(k, n)
        for lam in schubert_basis(box):
            padded = lam + (0,) * (k - len(lam))
            dual = canonical(tuple(box.cols - padded[k - 1 - i] for i in range(k)))
            assert box.complement(lam) == box.dual(lam) == dual, (box, lam)
        for lam, p, lam_prime, _ in grassmannian(box).plan:
            assert (p, lam_prime) == (len(lam), canonical(tuple(a - 1 for a in lam))), (box, lam)


def test_misaligned_section_power_is_refused_before_the_ring_is_built(capsys, monkeypatch):
    from qhgrass import cli

    calls = []
    monkeypatch.setattr(section, "build_ring", lambda *args: calls.append(args))
    monkeypatch.setattr(section, "SectionRing", lambda *args: calls.append(args))
    for (k, n), message in [
        ((3, 8), "the operator has degree 6, not a multiple of 7 = deg q"),
        ((2, 8), "no section ring for (k, n) = (2, 8)"),  # the box is refused first
    ]:
        argv = ["qh", "charpoly", "--section", "--k", str(k), "--n", str(n), "--power", "6"]
        assert cli.run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert calls == []


def test_section_semisimplicity_reports():
    from qhgrass import cli

    r6 = section_semisimplicity(3, 6)
    assert r6.holds is False and r6.method == "betti-screen" and r6.certificate == (1, 3, 4)
    assert "3" in cli._detail(r6, 5) and "4" in cli._detail(r6, 5)
    # no beta: the whole-ring trace form of all 30 classes decides it
    r7 = section_semisimplicity(3, 7)
    assert r7.holds is full_ring_semisimple(build_ring(3, 7)) is True and r7.method == "trace-form"
    assert r7.certificate == (30,)
    assert cli._detail(r7, 6) == "nondegenerate trace form on the 30-dimensional ring"
    r8 = section_semisimplicity(3, 8)
    assert r8.holds is True and r8.certificate == (49, 2)
    assert "49" in cli._detail(r8, 7) and "radical" in cli._detail(r8, 7)
    with pytest.raises(InvalidInputError):
        section_semisimplicity(2, 6)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_ring_betti_numbers_match_the_hodge_diamond(n):
    # section_semisimplicity(3, 6) screens the diamond's numbers, not the ring's
    assert betti_numbers(build_ring(3, n)) == hodge.section_profile(3, n).even_betti


def test_betti_screen_detail_states_an_inequality_that_holds(monkeypatch):
    from qhgrass import cli

    # (3, 6) keeps its tilde_b(1) != tilde_b(-1) text; on the k = 2 sections
    # with n even tilde_b(1) = tilde_b(-1), so the detail names the witness
    assert cli._detail(section_semisimplicity(3, 6), 5) == "tilde_b(1)=3 != tilde_b(-1)=4"
    monkeypatch.setattr(section, "SUPPORTED", {(2, n) for n in range(6, 15, 2)})
    for n in range(6, 15, 2):
        report = section_semisimplicity(2, n)
        assert report.holds is False and report.method == "betti-screen", n
        detail = cli._detail(report, n - 1)
        tb = screen.periodic_betti(hodge.section_profile(2, n))
        lhs, rhs = detail.split(" > ")
        (i, x), (j, y) = (map(int, side.removeprefix("tilde_b(").split(")=")) for side in (lhs, rhs))
        assert tb[i] == x > y == tb[j], (n, detail)
        if n == 6:
            assert detail == "tilde_b(2)=3 > tilde_b(4)=2"


def test_gr36_section_verdict_builds_no_ring(capsys, monkeypatch):
    from qhgrass import cli

    calls = []
    monkeypatch.setattr(section, "build_ring", lambda *args: calls.append(args))
    monkeypatch.setattr(section, "SectionRing", lambda *args: calls.append(args))
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "6", "--format", "json"]) == 0
    assert calls == [] and '"method": "betti-screen"' in capsys.readouterr().out


# each section command and the number of section rings it asks build_ring for
RING_BUILDS = [
    ("qh semisimple --section --k 3 --n 6", 0),
    ("qh semisimple --section --k 3 --n 7", 1),
    ("qh semisimple --section --k 3 --n 8", 1),
    ("qh lefschetz --n 7", 1),
    ("qh lefschetz --n 8", 1),
    ("qh charpoly --section --k 3 --n 7 --power 6", 1),
    ("qh charpoly --section --k 3 --n 8 --power 5 --with-e2", 1),
]


def test_each_section_command_asks_for_its_ring_once(capsys, monkeypatch):
    # every check takes the ring the command built, so none looks it up again
    # by (k, n), cached or not
    from qhgrass import cli

    calls = []
    original = section.build_ring
    monkeypatch.setattr(section, "build_ring", lambda k, n: calls.append((k, n)) or original(k, n))
    counts = []
    for argv, _ in RING_BUILDS:
        calls.clear()
        assert cli.run(argv.split()) == 0, argv
        counts.append(len(calls))
    assert not capsys.readouterr().err
    assert counts == [expected for _, expected in RING_BUILDS]


def test_the_route_follows_the_screen_and_beta(capsys, monkeypatch):
    # with no Betti witness, a ring with no beta gets the whole-ring trace form
    # from the trace vector, whatever its radical, and builds no label
    # operator; a ring with beta gets the perp subalgebra
    from qhgrass import cli

    calls = []
    monkeypatch.setattr(section, "perp_subalgebra_semisimple", lambda *args: calls.append(("perp", args)))
    monkeypatch.setattr(quantum, "mult_operators", lambda *args: calls.append(("label operators", args)))
    monkeypatch.setattr(section, "radical_and_perp", lambda *args: calls.append(("radical", args)))
    build_ring.cache_clear()
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "7", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert calls == [] and not err
    assert '"method": "trace-form"' in out and "30-dimensional ring" in out
    monkeypatch.setattr(section, "full_ring_semisimple", lambda *args: calls.append(("full ring", args)) or False)
    report = section_semisimplicity(3, 7)
    assert report == (False, "trace-form", (30,)) and cli._detail(report, 6) == "degenerate trace form"
    assert calls == [("full ring", (build_ring(3, 7),))]
    monkeypatch.undo()
    calls.clear()
    monkeypatch.setattr(section, "full_ring_semisimple", lambda *args: calls.append(("full ring", args)))
    report = section_semisimplicity(3, 8)
    assert calls == [] and (report.holds, report.method) == (True, "trace-form+monodromy")


def test_a_non_self_adjoint_e1_exits_1(capsys, monkeypatch):
    from qhgrass import cli

    # the radical's certificate needs e_1 self-adjoint for the pairing, so
    # radical_and_perp refuses a ring whose e_1 is not; here e_1 * 1 gains a
    # second sigma_1, set on a copy past the build's commutativity assertion,
    # in E_1 and in its transpose alike
    ring = copy.copy(build_ring(3, 8))
    ring.e_ops, ring.columns = dict(ring.e_ops), dict(ring.columns)
    ring.e_ops[1] = [dict(row) for row in ring.e_ops[1]]
    ring.columns[1] = [dict(col) for col in ring.columns[1]]
    sigma1, unit = ring.index[(1,)], ring.index[()]
    row, col = ring.e_ops[1][sigma1], ring.columns[1][unit]
    row[unit] = row.get(unit, 0) + 1
    col[sigma1] = col.get(sigma1, 0) + 1
    with pytest.raises(InternalConsistencyError, match="e_1 is not self-adjoint for the section pairing"):
        radical_and_perp(ring)
    # the CLI builds its ring through build_ring
    monkeypatch.setattr(section, "build_ring", lambda *args: ring)
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "8"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: e_1 is not self-adjoint for the section pairing\n"


def test_a_pairing_degenerate_on_ker_e1_exits_1(capsys, monkeypatch):
    from qhgrass import cli

    # <u, v>' = <u, e_1 v> keeps e_1 self-adjoint (e_1 is self-adjoint for
    # <,>) but vanishes on ker e_1, so ker e_1 is not certified as the radical
    ring = copy.copy(build_ring(3, 8))
    e1 = dense_square(ring.e_ops[1])
    pairing = linalg.mat_mul(dense_square(ring.pairing), e1)
    assert linalg.mat_mul(pairing, e1) == linalg.mat_mul([list(col) for col in zip(*e1)], pairing)
    ring.pairing = sparse_rows(pairing)
    monkeypatch.setattr(section, "build_ring", lambda *args: ring)
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "8"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: the pairing is degenerate on ker e_1\n"


def test_a_degenerate_section_pairing_exits_1(capsys, monkeypatch):
    from qhgrass import cli

    # with the point class's row of C_1 cleared, s_1 cup s_a never reaches
    # the point, so no class pairs with the unit: its column of the pairing
    # is zero
    pairing, made = SectionRing._pairing, []

    def cleared(self, index, cup1):
        point = self._ambient_index[self.box.dual(())]
        made.append(pairing(self, index, [{} if i == point else row for i, row in enumerate(cup1)]))
        return made[-1]

    monkeypatch.setattr(SectionRing, "_pairing", cleared)
    with pytest.raises(InternalConsistencyError, match="section Poincare pairing is degenerate"):
        SectionRing(3, 7)
    # the unit's row still pairs it with the top degree, so the block of
    # degree 0 against dim Y is nonsingular and decided first; its mirror
    # differs from its transpose and is singular, and is decided by its own
    # determinant
    (rows,) = made
    assert rows[0] and not any(0 in row for row in rows)
    build_ring.cache_clear()
    assert cli.run(["qh", "lefschetz", "--n", "7"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: section Poincare pairing is degenerate\n"


def test_a_pairing_entry_outside_its_degree_block_exits_1(capsys, monkeypatch):
    from qhgrass import cli

    # <a, b> vanishes unless |a| + |b| = dim Y, so the pairing is checked on
    # the blocks of degree m against dim Y - m; an entry pairing the unit
    # with sigma_1 contradicts that grading
    pairing = SectionRing._pairing

    def perturbed(self, index, cup1):
        rows = pairing(self, index, cup1)
        rows[index[()]][index[(1,)]] = 1
        return rows

    monkeypatch.setattr(SectionRing, "_pairing", perturbed)
    build_ring.cache_clear()
    assert cli.run(["qh", "lefschetz", "--n", "7"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: a nonzero entry lies outside the blocks its grading allows\n"


def test_a_shifted_gram_entry_outside_its_residue_block_exits_1(capsys, monkeypatch):
    from qhgrass import cli

    # B(a, b) = phi(e_1 a b) vanishes unless deg a + deg b = -1 mod r; the
    # unit and sigma_1 are both off the radical's leads, and an entry of B
    # between them contradicts that grading
    original = section.trace_form_rows

    def perturbed(alg, shifted=False):
        t, gram = original(alg, shifted)
        unit, sigma1 = alg.index[()], alg.index[(1,)]
        return t, [{**row, sigma1: 1} if i == unit else row for i, row in enumerate(gram)]

    monkeypatch.setattr(section, "trace_form_rows", perturbed)
    assert cli.run(["qh", "semisimple", "--section", "--k", "3", "--n", "8"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: a nonzero entry lies outside the blocks its grading allows\n"


def test_beta_multiplication_undetermined():
    ring = build_ring(3, 8)
    coords = [0] * len(ring.basis)
    coords[ring.index[BETA]] = 1
    with pytest.raises(UndeterminedProductError):
        mult_operator(ring, coords)


def test_lift_operator_agrees_with_recursion():
    ring = build_ring(3, 7)
    lifts = build_lifts(ring)
    for lab in ring.basis:
        coords = [0] * len(ring.basis)
        coords[ring.index[lab]] = 1
        assert lift_operator(ring, lifts, coords) == ring.label_ops[lab], lab
    ring8 = build_ring(3, 8)
    lifts8 = build_lifts(ring8)
    for lab in ring8.basis:
        if lab == BETA or size(lab) > 4:
            continue
        coords = [0] * len(ring8.basis)
        coords[ring8.index[lab]] = 1
        assert lift_operator(ring8, lifts8, coords) == ring8.label_ops[lab], lab


def test_operator_solve_refuses_underdetermined_and_inconsistent_equations(monkeypatch):
    def perturbed(n, p, lab, change):
        # the ring's algebra with the image e_p * lab, column lab of E_p,
        # changed; building it asserts that its e-operators commute and are
        # graded
        ring = build_ring(3, n)
        e_ops = {pp: [dict(row) for row in op] for pp, op in ring.e_ops.items()}
        col = ring.index[lab]
        image = change(ring, [row.get(col, 0) for row in e_ops[p]])
        for row, x in zip(e_ops[p], image):
            row[col] = x
            if not x:
                del row[col]
        return ring_with_e_ops(ring, e_ops)

    def perturb(n, p, lab, change, match):
        # refused when the algebra is built, or by the recursion
        with pytest.raises(InternalConsistencyError, match=match):
            mult_operators(perturbed(n, p, lab, change))

    def plus(terms, sign=1):
        return lambda ring, image: [a + sign * b for a, b in zip(image, vector(ring, ClassVector(ring.box, terms)))]

    # e_1 * 1 = 0 leaves sigma_1 without an equation; the algebra is refused
    # when it is built
    with pytest.raises(InternalConsistencyError, match="do not commute"):
        perturbed(7, 1, (), lambda ring, image: [0] * len(image))
    # one extra (label, q power) term in the image of one (p, label)
    for p, lab, extra in [(1, (), ((1,), 0)), (2, (2, 1), ((3, 2), 0)), (3, (4, 1), ((2,), 1))]:
        perturb(7, p, lab, plus({extra: 1}), "inconsistent")
    # a beta term in e_3 * sigma_1, which has no operator to correct by
    perturb(6, 3, (1,), plus({(BETA, 0): 1}), "inconsistent")
    for n in (6, 7, 8):
        # one dropped term, and one doubled term
        term = {((3, 2), 0): 1}
        perturb(n, 2, (2, 1), plus(term, -1), "inconsistent")
        perturb(n, 1, (3, 1), plus(term), "inconsistent")

    # past the commutativity assertion, the grading assertion refuses beta
    # (degree 7) in e_2 * s(3,) (degree 5)
    monkeypatch.setattr(quantum, "commuting", lambda ops: True)
    with pytest.raises(InternalConsistencyError, match="e_2 does not raise degree by 2 mod 7"):
        perturbed(8, 2, (3,), plus({(BETA, 0): 1}))
    # the recursion's own checks, reached past both assertions
    monkeypatch.setattr(quantum, "require_graded", lambda alg: None)
    for wrong in (lambda ring, image: [2 * x for x in image], plus({(BETA, 0): 1})):
        with pytest.raises(InternalConsistencyError, match=r"e_2 \* s\(3,\) does not determine s\(4, 1\)"):
            mult_operators(perturbed(8, 2, (3,), wrong))


def test_label_operators_satisfy_every_pieri_identity():
    # e_p L_mu = sum c q^d L_lab at q = 1 for every p and every basis class mu: the
    # identities the recursion is certified to satisfy, beta rows and columns
    # included
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        dim = len(ring.basis)
        for p in (1, 2, 3):
            for mu, op in ring.label_ops.items():
                image = pieri_on_label(ring, p, mu).terms
                expected = mat_combine(
                    [(c, ring.label_ops[lab]) for (lab, _), c in image.items()],
                    linalg.zeros(dim, dim),
                )
                assert linalg.mat_mul(dense_square(ring.e_ops[p]), op) == expected, (n, p, mu)
        assert set(ring.label_ops) == set(ring.basis) - {BETA}


def test_reduce_kills_top_ambient_degree():
    ring = build_ring(3, 7)
    top = ClassVector.schubert(ring.box, (4, 4, 4))
    assert reduce(ring, top).is_zero()


def test_integral_and_pairing():
    ring = build_ring(3, 7)
    assert _integral(ring, schubert(ring, (4, 4, 3))) == 1
    assert _integral(ring, ClassVector.unit(ring.box)) == 0
    # Poincare duality: the pairing matrix is nonsingular (asserted at build
    # time too, but stated here as the property)
    assert linalg.det_bareiss(dense_square(ring.pairing)) != 0


def test_section_class_arithmetic():
    ring = build_ring(3, 6)
    a = schubert(ring, (2, 1))
    b = schubert(ring, (1,))
    c = a + b - a
    assert c == b
    assert a.scale(0).is_zero()
    assert (a + a).scale(Fraction(1, 2)) == a
    assert _degrees(ring, ClassVector.unit(ring.box)) == {0}
    assert _degrees(ring, a) == {3} and _degrees(ring, b.shift_q(1)) == {6}
    assert len(_degrees(ring, a + b)) > 1
    # one class type for both rings, beta terms included
    assert repr(beta(ring) + b.shift_q(1)) == "1*beta + 1*q*s(1,)"


def _entries(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        for v in x:
            yield from _entries(v)
    else:
        yield x


@pytest.mark.parametrize("n", [6, 7, 8])
def test_built_ring_is_int_first(n):
    # integral values are ints and only genuinely non-integral ones are
    # Fractions; no float anywhere
    ring = build_ring(3, n)
    for name in ("label_ops", "e_ops", "pairing", "relations"):
        for e in _entries(getattr(ring, name)):
            assert type(e) is int or (type(e) is Fraction and e.denominator != 1), (name, e)


def _trace_product_gram(ops):
    return [[linalg.trace_product(a, b) for b in ops] for a in ops]


def test_trace_form_gram_matches_trace_products():
    for k, n in [(2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7)]:
        box = Box(k, n)
        table = grassmannian(box).label_ops
        ops = [table[lam] for lam in schubert_basis(box)]
        assert trace_form_gram(ops) == _trace_product_gram(ops), (k, n)
    ring7 = build_ring(3, 7)
    ops7 = [ring7.label_ops[lab] for lab in ring7.basis]
    assert trace_form_gram(ops7) == _trace_product_gram(ops7)
    ring8 = build_ring(3, 8)
    ops8, _ = perp_subalgebra_operators(ring8, perp_space(ring8, radical_and_perp(ring8), dense_square(ring8.pairing)))
    assert len(ops8) == 49
    assert trace_form_gram(ops8) == _trace_product_gram(ops8)


# q = 1 is the ring itself; q = 0 is its classical half R C_p J
# (classical_section_ring), which production assembles as part of E_p
@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_e_operators_match_the_symbolic_section_pieri_rule(n, q):
    # E_p = R (C_p + (P_p - C_p) C_1) J against the section Pieri rule applied
    # class by class, entry for entry, and the label operators against the
    # first-column recursion on those symbolic images
    ring = build_ring(3, n)
    alg = ring if q else classical_section_ring(ring)
    assert {p: dense_square(op) for p, op in alg.e_ops.items()} == symbolic_e_ops(ring, q)
    assert alg.label_ops == symbolic_label_ops(ring, q)


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_sparse_e_operators_and_pairing_match_the_dense_routes(n, q):
    # E_p from the Pieri entries against the products of the Pieri matrices,
    # and the pairing by degree against the loop over every pair of labels,
    # entry for entry and type for type
    ring = build_ring(3, n)
    typed = lambda op: [[(type(x), x) for x in row] for row in op]
    e_ops = ring.e_ops if q else classical_section_e_ops(ring)
    dense = matrix_product_e_ops(ring, q)
    assert {p: typed(dense_square(op)) for p, op in e_ops.items()} == {p: typed(op) for p, op in dense.items()}
    assert typed(dense_square(ring.pairing)) == typed(pair_loop_pairing(ring))


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_section_operators_hold_no_integral_fraction(n, q):
    # linalg's rule: a Fraction entry is always genuinely non-integral
    ring = build_ring(3, n)
    alg = ring if q else classical_section_ring(ring)
    for name in ("e_ops", "label_ops"):
        for e in _entries(getattr(alg, name)):
            assert type(e) is int or (type(e) is Fraction and e.denominator != 1), (name, e)


@pytest.mark.parametrize("n", [6, 7])
def test_ring_dimension_is_checked_against_the_diamond(n, monkeypatch):
    # one class h^{4,4} more in the middle (n = 6) or off it (n = 7) is refused;
    # the middle h^{4,4} lies on both lines of the diamond
    true_diamond = hodge.diamond(3, n)
    column, middle = list(true_diamond.column), list(true_diamond.middle)
    column[4] += 1
    if true_diamond.dim == 8:
        middle[4] += 1
    wrong = true_diamond._replace(column=tuple(column), middle=tuple(middle))
    monkeypatch.setattr(hodge, "diamond", lambda k, n: wrong)
    with pytest.raises(InternalConsistencyError, match="section ring dimension"):
        SectionRing(3, n)
