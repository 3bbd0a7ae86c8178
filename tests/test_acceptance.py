"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its runtime and asserting the stated budget.  Everything is bit-exact;
no tolerances appear anywhere."""

import time

from oracles import (
    EXCEPTIONAL_SILENT_CASES,
    ClassVector,
    UniPoly,
    charpoly_on_piece,
    cup_e,
    dense_square,
    hodge_number,
    label_degree,
    label_piece,
    mat_vec,
    pieri_on_label,
    reduce,
    sg_betti,
    star_e,
    star_schubert,
    vector,
)
from qhgrass import hodge, linalg
from qhgrass.hodge import chi_y, diamond, is_hodge_tate
from qhgrass.partitions import Box, core_search, size
from qhgrass.quantum import (
    commuting,
    grassmannian,
    pieri_entries,
    pieri_matrix,
    presentation_check,
    qh_semisimple,
    schubert_basis,
)
from qhgrass.rootdata import DynkinType, GrassmannianId
from qhgrass.screen import (
    exceptional_table,
    periodic_betti,
    profile_of,
    screen,
)
from qhgrass.section import (
    BETA,
    build_ring,
    full_ring_semisimple,
    lefschetz_relation_check,
    perp_subalgebra_semisimple,
    section_charpoly,
)

AMBIENT_BOXES = [Box(k, n) for k in (1, 2, 3) for n in range(k + 1, 9)]


def _finish(number: int, label: str, t0: float, budget: float):
    elapsed = time.time() - t0
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_exceptional_table():
    t0 = time.time()
    expected = [
        ("E6/P2", 21, 11, 6, 7),
        ("E6/P4", 29, 7, 102, 104),
        ("E7/P1", 33, 17, 7, 8),
        ("E7/P3", 47, 11, 183, 184),
        ("E7/P6", 42, 13, 58, 59),
        ("E8/P1", 78, 23, 94, 95),
        ("E8/P2", 92, 17, 1016, 1017),
        ("E8/P3", 98, 13, 5317, 5318),
        ("E8/P5", 104, 11, 21993, 21992),
        ("E8/P7", 83, 19, 354, 355),
        ("E8/P8", 57, 29, 8, 9),
        ("F4/P3", 20, 7, 13, 14),
        ("F4/P4", 15, 11, 3, 2),
    ]
    rows = exceptional_table()
    got = [(r.label, r.dim, r.index, r.tilde_b, r.tilde_b_neg) for r in rows]
    assert got == expected
    assert all(r.verdict == "Witness" for r in rows)
    _finish(1, "exceptional screen table", t0, 5)


def test_criterion_2_no_obstruction_negatives():
    t0 = time.time()
    for fam, rank, node in EXCEPTIONAL_SILENT_CASES:
        g = GrassmannianId(DynkinType(fam, rank), node)
        assert screen(profile_of(g)).holds is None, str(g)
    _finish(2, "screen negatives incl. E8/P4", t0, 5)


def test_criterion_3_core_partition_search():
    t0 = time.time()
    expected = {
        (3, 6): [((3, 2, 1), 4)],
        (3, 9): [((6, 4, 2), 6)],
        (4, 8): [((4, 3, 2, 1), 6), ((4, 4, 2, 2), 4)],
    }
    for k in range(3, 13):
        for n in range(2 * k, 25):
            found = core_search(Box(k, n))
            assert found == expected.get((k, n), []), (k, n)
    _finish(3, "core-partition search over 3 <= k <= n/2 <= 12", t0, 30)


def test_criterion_4_chi_y_and_diamonds():
    t0 = time.time()
    assert chi_y(3, 9, section=True) == (1, -1, 2, -3, 4, -5, 7, -7, 6, -6, 7, -7, 5, -4, 3, -2, 1, -1)
    dia39 = diamond(3, 9)
    assert hodge_number(dia39, 8, 9) == hodge_number(dia39, 9, 8) == 2
    columns = {
        (3, 6): [1, 1, 2, 3, 4, 3, 2, 1, 1],
        (3, 7): [1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1],
        (3, 8): [1, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 1],
        (3, 9): [1, 1, 2, 3, 4, 5, 7, 7, 8, 8, 7, 7, 5, 4, 3, 2, 1, 1],
        (4, 8): [1, 1, 2, 3, 5, 5, 7, 7, 7, 7, 5, 5, 3, 2, 1, 1],
    }
    middles = {
        (3, 6): [], (3, 7): [], (3, 8): [],
        (3, 9): [(8, 9, 2), (9, 8, 2)],
        (4, 8): [(7, 8, 3), (8, 7, 3)],
    }
    for (k, n), column in columns.items():
        dia = diamond(k, n)
        assert list(dia.column) == column, (k, n)
        assert dia.middle_off_diagonal() == middles[(k, n)], (k, n)
    _finish(4, "chi_y golden and five diamonds", t0, 60)


def test_criterion_5_hodge_tate_classification():
    t0 = time.time()
    calls = []
    original = hodge.chi_y

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    hodge.chi_y = counting
    hodge.diamond.cache_clear()  # a cached diamond would hide a chi_y call
    try:
        verdicts = {}
        for k in range(1, 7):
            for n in range(2 * k, 13):
                before = len(calls)
                verdict = is_hodge_tate(k, n)
                verdicts[(k, n)] = verdict.holds
                if verdict.method == "middle-row-jump":
                    assert len(calls) == before, f"fast path localized on ({k},{n})"
    finally:
        hodge.chi_y = original
    expected_true = {(1, n) for n in range(2, 13)} | {(2, n) for n in range(4, 13)} | {
        (3, 6), (3, 7), (3, 8),
    }
    assert {key for key, ht in verdicts.items() if ht is True} == expected_true
    assert all((k, n) in verdicts for k in range(1, 7) for n in range(2 * k, 13))
    _finish(5, "Hodge-Tate classification over n <= 12", t0, 120)


def test_criterion_6_presentations_and_giambelli():
    t0 = time.time()
    for box in AMBIENT_BOXES:
        assert presentation_check(box), box
        for lam in schubert_basis(box):
            assert star_schubert(lam, ClassVector.unit(box)) == ClassVector.schubert(
                box, lam
            ), (box, lam)
    _finish(6, "presentations and quantum Giambelli, k <= 3, n <= 8", t0, 120)


def test_criterion_7_section_characteristic_polynomials():
    t0 = time.time()
    poly37 = UniPoly([128, -13, 1]) * UniPoly([1, -57, -289, 1])
    assert UniPoly(section_charpoly(build_ring(3, 7), 6)) == poly37
    x_sq = UniPoly([0, 0, 1])
    poly38_e1 = -(
        UniPoly([1, -1]) * UniPoly([1, -1]) * UniPoly([1, -1])
        * UniPoly([1, -1154, 1]) * UniPoly([6561, -34, 1])
    )
    poly38_e2 = (
        UniPoly([1, -1]) * UniPoly([1, 478, -1]) * UniPoly([1, 0, 1])
        * UniPoly([2187, 6, 1])
    )
    assert UniPoly(section_charpoly(build_ring(3, 8), 7)) == x_sq * poly38_e1
    assert UniPoly(section_charpoly(build_ring(3, 8), 5, with_e2=True)) == x_sq * poly38_e2
    # the ambient polynomials they extend, bit for bit
    b37, b38 = Box(3, 7), Box(3, 8)
    alg37, alg38 = grassmannian(b37), grassmannian(b38)

    e1 = dense_square(pieri_matrix(b37, 1))
    assert charpoly_on_piece(alg37, linalg.mat_pow(e1, 7), label_piece(alg37)) == poly37
    e1 = dense_square(pieri_matrix(b38, 1))
    e2 = dense_square(pieri_matrix(b38, 2))
    assert (
        charpoly_on_piece(alg38, linalg.mat_pow(e1, 8), label_piece(alg38)) == poly38_e1
    )
    assert (
        charpoly_on_piece(alg38, linalg.mat_mul(linalg.mat_pow(e1, 6), e2), label_piece(alg38))
        == poly38_e2
    )
    _finish(7, "section characteristic polynomials", t0, 120)


def test_criterion_8_quantum_lefschetz_identities():
    t0 = time.time()
    assert lefschetz_relation_check(build_ring(3, 7))
    assert lefschetz_relation_check(build_ring(3, 8))
    _finish(8, "quantum Lefschetz identities", t0, 120)


def test_criterion_9_semisimplicity_verdicts():
    t0 = time.time()
    for box in AMBIENT_BOXES:
        assert qh_semisimple(box), box
    assert full_ring_semisimple(build_ring(3, 7))
    ok, sub_dim, rad_dim = perp_subalgebra_semisimple(build_ring(3, 8))
    assert ok and sub_dim == 49 and rad_dim == 2
    # Betti witnesses with the tabulated dimension counts
    from qhgrass.hodge import section_profile

    profile36 = section_profile(3, 6)
    tb = periodic_betti(profile36)
    assert screen(profile36).holds is False
    assert (tb[1], tb[-1 % profile36.index]) == (3, 4)
    for n in (3, 4, 5):
        x, y = sg_betti(n)
        tbx, tby = periodic_betti(x), periodic_betti(y)
        assert screen(x).holds is False and (tbx[2], tbx[-2 % x.index]) == (n, n - 1)
        assert screen(y).holds is False and (tby[1], tby[-1 % y.index]) == (n - 1, 2 * n - 2)
    _finish(9, "semisimplicity verdicts", t0, 180)


def test_criterion_10_property_suites():
    t0 = time.time()

    # operator commutativity: all ambient boxes and all three section rings
    for box in AMBIENT_BOXES:
        assert commuting([pieri_matrix(box, p) for p in range(1, box.k + 1)]), box
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        assert commuting([ring.e_ops[p] for p in (1, 2, 3)]), n

    # Frobenius symmetry: all triples of basis classes on Gr(2,4) and Gr(3,6)
    for box in [Box(2, 4), Box(3, 6)]:
        basis = schubert_basis(box)
        ops = grassmannian(box).label_ops
        idx = {lam: i for i, lam in enumerate(basis)}
        vecs = {lam: vector(grassmannian(box), ClassVector.schubert(box, lam)) for lam in basis}

        def triple(a, b, c):
            ab = mat_vec(ops[a], vecs[b])
            return ab[idx[box.dual(c)]]

        for a in basis:
            for b in basis:
                for c in basis:
                    t = triple(a, b, c)
                    assert t == triple(b, a, c) == triple(a, c, b)

    # Frobenius symmetry on the section rings through operator self-adjointness
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        for lab in ring.basis:
            if lab == BETA:
                continue
            op = ring.label_ops[lab]
            transposed = [list(r) for r in zip(*op)]
            assert linalg.mat_mul(transposed, dense_square(ring.pairing)) == linalg.mat_mul(
                dense_square(ring.pairing), op
            )

    # grading homogeneity: deg q = n on every Pieri product, all boxes
    for box in AMBIENT_BOXES:
        basis = schubert_basis(box)
        for p in range(1, box.k + 1):
            for row, col, qp in pieri_entries(box, p):
                assert size(basis[row]) + box.n * qp == size(basis[col]) + p
    # and deg q = n - 1 on every section product
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        for lab in ring.basis:
            for p in (1, 2, 3):
                for (mu, qp), _ in pieri_on_label(ring, p, lab).terms.items():
                    assert label_degree(ring, mu) + (n - 1) * qp == label_degree(ring, lab) + p

    # kernel well-definedness of the section Pieri rule, every relation
    for n in (6, 7, 8):
        ring = build_ring(3, n)
        for pivot, rel in ring.relations.items():
            kernel_elt = ClassVector(ring.box, {(pivot, 0): 1}) - ClassVector(
                ring.box, {(lam, 0): c for lam, c in rel.items()}
            )
            for p in (1, 2, 3):
                shifted = cup_e(1, kernel_elt)
                image = reduce(
                    ring, cup_e(p, kernel_elt) + star_e(p, shifted) - cup_e(p, shifted)
                )
                assert image.is_zero(), (n, pivot, p)

    # screen condition (2) follows from condition (1) on every profile built
    profiles = [profile_of(GrassmannianId(DynkinType(f, r), c)) for f, r, c in
                [("E", 6, 2), ("E", 6, 4), ("E", 7, 1), ("E", 7, 3), ("E", 7, 6),
                 ("E", 8, 1), ("E", 8, 2), ("E", 8, 3), ("E", 8, 5), ("E", 8, 7),
                 ("E", 8, 8), ("F", 4, 3), ("F", 4, 4),
                 ("E", 7, 2), ("E", 7, 4), ("E", 7, 5), ("E", 8, 6), ("E", 8, 4)]]
    for box in AMBIENT_BOXES:
        profiles.append(
            profile_of(GrassmannianId(DynkinType("A", box.n - 1), box.k))
        )
    for n in (3, 4, 5):
        profiles.extend(sg_betti(n))
    from qhgrass.hodge import section_profile

    profiles.extend(section_profile(3, n) for n in (6, 7, 8))
    for profile in profiles:
        if screen(profile).holds is None:
            tb = periodic_betti(profile)
            for i in range(profile.index):
                assert tb[i] == tb[-i % profile.index], (profile.label, i)

    _finish(10, "property suites", t0, 300)
