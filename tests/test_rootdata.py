from collections import Counter

import pytest

from oracles import (
    SMALL_TYPES,
    UniPoly,
    cartan_from_gram,
    fundamental_degrees,
    gaussian_binomial,
    poincare_by_degrees,
    poincare_by_division,
    positive_roots_by_strings,
)
from qhgrass import cli, rootdata
from qhgrass.errors import InternalConsistencyError, InvalidInputError
from qhgrass.rootdata import (
    MAX_POSITIVE_ROOTS,
    DynkinType,
    GrassmannianId,
    cartan_matrix,
    dimension,
    fano_index,
    parse_type,
    poincare_polynomial,
    positive_roots,
)

# (family, rank, node, dim, index): the thirteen tabulated exceptional cases
# plus the classical anchors
TABLE = [
    ("E", 6, 2, 21, 11),
    ("E", 6, 4, 29, 7),
    ("E", 7, 1, 33, 17),
    ("E", 7, 3, 47, 11),
    ("E", 7, 6, 42, 13),
    ("E", 8, 1, 78, 23),
    ("E", 8, 2, 92, 17),
    ("E", 8, 3, 98, 13),
    ("E", 8, 5, 104, 11),
    ("E", 8, 7, 83, 19),
    ("E", 8, 8, 57, 29),
    ("F", 4, 3, 20, 7),
    ("F", 4, 4, 15, 11),
]


def test_type_validation():
    with pytest.raises(InvalidInputError):
        DynkinType("E", 9)
    with pytest.raises(InvalidInputError):
        DynkinType("D", 3)
    with pytest.raises(InvalidInputError):
        DynkinType("X", 2)
    with pytest.raises(InvalidInputError):
        GrassmannianId(DynkinType("A", 3), 5)
    assert parse_type("e7") == DynkinType("E", 7)
    with pytest.raises(InvalidInputError):
        parse_type("E")


def test_oversized_types_are_refused_before_the_root_search(monkeypatch):
    # the 220 pinned G/P_k are far inside the bound
    assert max(len(positive_roots(t)) for t in SMALL_TYPES) <= MAX_POSITIVE_ROOTS
    monkeypatch.setattr(rootdata, "cartan_matrix", lambda t: pytest.fail(f"root search ran for {t}"))
    for t in (DynkinType("A", 60), DynkinType("B", 43), DynkinType("D", 44), DynkinType("A", 1000)):
        with pytest.raises(InvalidInputError, match="positive roots, over 1800"):
            positive_roots(t)


def test_positive_root_counts():
    expected = {
        ("A", 5): 15, ("B", 4): 16, ("C", 4): 16, ("D", 5): 20,
        ("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6,
    }
    for (fam, rank), count in expected.items():
        assert len(positive_roots(DynkinType(fam, rank))) == count


def test_a2_roots_explicit():
    assert set(positive_roots(DynkinType("A", 2))) == {(1, 0), (0, 1), (1, 1)}


def test_exceptional_dimension_and_index_table():
    for fam, rank, node, dim, index in TABLE:
        g = GrassmannianId(DynkinType(fam, rank), node)
        assert dimension(g) == dim, g
        assert fano_index(g) == index, g


def test_type_a_dimension_and_index():
    for n in range(2, 10):
        for k in range(1, n):
            g = GrassmannianId(DynkinType("A", n - 1), k)
            assert dimension(g) == k * (n - k)
            assert fano_index(g) == n


def test_type_c_node_2():
    for n in range(3, 8):
        g = GrassmannianId(DynkinType("C", n), 2)
        assert dimension(g) == 4 * n - 5
        assert fano_index(g) == 2 * n - 1
        expected = UniPoly([1] * (2 * n)) * UniPoly(
            [1 if i % 2 == 0 else 0 for i in range(2 * n - 3)]
        )
        assert poincare_polynomial(g) == expected.coeffs


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert gaussian_binomial(5, 2).coeffs == (1, 1, 2, 2, 2, 1, 1)
    with pytest.raises(InvalidInputError):
        gaussian_binomial(4, 0)


def test_poincare_palindromic_and_euler():
    from math import prod

    cases = [("A", 6, 3), ("B", 4, 2), ("C", 4, 3), ("D", 5, 2), ("E", 6, 2),
             ("E", 7, 6), ("E", 8, 5), ("F", 4, 4), ("G", 2, 1), ("G", 2, 2)]
    for fam, rank, node in cases:
        g = GrassmannianId(DynkinType(fam, rank), node)
        p = poincare_polynomial(g)
        assert p == p[::-1], g
        assert len(p) - 1 == dimension(g)
        from oracles import levi_degree_multiset

        euler = prod(fundamental_degrees(g.type))
        for d in levi_degree_multiset(g):
            assert euler % d == 0
            euler //= d
        assert sum(p) == euler, g


def test_coadjoint_cases_satisfy_dim_below_twice_index():
    coadjoint = [
        ("B", 5, 2), ("B", 5, 1), ("C", 5, 1), ("C", 5, 2), ("D", 5, 2),
        ("E", 6, 2), ("E", 7, 1), ("E", 8, 8), ("F", 4, 1), ("F", 4, 4),
        ("G", 2, 2), ("G", 2, 1),
    ]
    for fam, rank, node in coadjoint:
        g = GrassmannianId(DynkinType(fam, rank), node)
        assert dimension(g) < 2 * fano_index(g), g


def test_poincare_coefficients_are_betti_numbers():
    # Gr(2,4) is a 4-dimensional quadric: betti 1,1,2,1,1
    g = GrassmannianId(DynkinType("A", 3), 2)
    assert poincare_polynomial(g) == (1, 1, 2, 1, 1)


def test_cartan_matrix_equals_the_gram_route():
    assert len(SMALL_TYPES) == 38
    for t in SMALL_TYPES:
        assert cartan_matrix(t) == cartan_from_gram(t), t


def test_poincare_polynomial_equals_the_degree_route():
    # the height product against G's degrees over the Levi's, on 220 G/P_k
    count = 0
    for t in SMALL_TYPES:
        for node in range(1, t.rank + 1):
            g = GrassmannianId(t, node)
            got, want = poincare_polynomial(g), poincare_by_degrees(g).coeffs
            assert got == want and all(type(c) is int for c in got), g
            count += 1
    assert count == 220


# A1-A29, B2-B19, C2-C19, D4-D19, E6-E8, F4 and G2: 86 types, 1,024 G/P_k
RANKS = {"A": range(1, 30), "B": range(2, 20), "C": range(2, 20), "D": range(4, 20),
         "E": range(6, 9), "F": (4,), "G": (2,)}


@pytest.mark.parametrize("family", RANKS)
def test_roots_and_poincare_polynomials_match_the_old_routes(family):
    # carried pairings and depths against string walks, and O(deg) bracket
    # products against UniPoly products and one exact division
    for rank in RANKS[family]:
        t = DynkinType(family, rank)
        assert positive_roots(t) == positive_roots_by_strings(t), t
        for node in range(1, rank + 1):
            g = GrassmannianId(t, node)
            got = poincare_polynomial(g)
            assert got == poincare_by_division(g).coeffs and all(type(c) is int for c in got), g


# the largest admitted types of the two unbounded simply-laced families:
# A59 has 1,770 positive roots and D42 1,722, A60 and D43 are refused
EDGES = [DynkinType("A", 59), DynkinType("D", 42)]


@pytest.mark.parametrize("t", EDGES, ids=str)
def test_the_admitted_edges_match_the_string_walks_in_order(t):
    assert len(positive_roots(t)) <= MAX_POSITIVE_ROOTS < rootdata._POSITIVE_ROOT_COUNT[t.family](t.rank + 1)
    assert positive_roots(t) == positive_roots_by_strings(t)


def test_no_root_coefficient_exceeds_6():
    # the search keys a root by its coefficients as base-256 digits, which
    # cannot carry while every coefficient stays below 256; E8's highest root
    # reaches 6
    assert max(max(beta) for t in SMALL_TYPES + tuple(EDGES) for beta in positive_roots(t)) == 6
    assert max(positive_roots(DynkinType("E", 8))[-1]) == 6


def test_a_bracket_division_with_a_remainder_is_an_internal_failure(monkeypatch, capsys):
    # one root of height 2 and none of height 1 asks for [3]_t / [2]_t
    monkeypatch.setattr(rootdata, "nilradical_heights", lambda g: Counter({2: 1}))
    with pytest.raises(InternalConsistencyError, match=r"\[2\]_t does not divide"):
        poincare_polynomial(GrassmannianId(DynkinType("E", 6), 2))
    assert cli.run(["betti", "--type", "E6", "--node", "2"]) == 1
    assert capsys.readouterr().err == "internal consistency failure: [2]_t does not divide the bracket product\n"
    # [3]_t^2 = 1 + 2t + 3t^2 + 2t^3 + t^4 has no factor [2]_t = 1 + t
    with pytest.raises(InternalConsistencyError):
        rootdata._over_bracket([1, 2, 3, 2, 1], 2)
    assert rootdata._over_bracket([1, 2, 3, 2, 1], 3) == [1, 1, 1]


def test_a_wrong_positive_root_count_exits_1(monkeypatch, capsys):
    # G2 has 6 positive roots; against a count of 7 the search stops.  The
    # nilradical pass of each node is cached apart from the search, so both
    # caches are cleared for betti to reach it
    monkeypatch.setitem(rootdata._POSITIVE_ROOT_COUNT, "G", lambda n: 7)
    positive_roots.cache_clear()
    rootdata._nilradical.cache_clear()
    with pytest.raises(InternalConsistencyError, match="G2: found 6 positive roots, expected 7"):
        positive_roots(DynkinType("G", 2))
    assert cli.run(["betti", "--type", "G2", "--node", "1"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: G2: found 6 positive roots, expected 7\n"


def test_a_poincare_polynomial_of_the_wrong_degree_is_an_internal_failure(monkeypatch):
    # A2/P1 has nilradical roots of heights 1 and 2, so P = [3]_t of degree
    # 2 = dim; one more root, of height 3, makes it [4]_t of degree 3
    monkeypatch.setattr(rootdata, "nilradical_heights", lambda g: Counter({1: 1, 2: 1, 3: 1}))
    with pytest.raises(InternalConsistencyError, match="Poincare polynomial degree mismatch for A2/P1"):
        poincare_polynomial(GrassmannianId(DynkinType("A", 2), 1))


def test_a_poincare_polynomial_that_is_not_palindromic_is_an_internal_failure(monkeypatch):
    # A2/P1 is one bracket product and no division; a product whose top
    # coefficient is one more keeps the degree and breaks the symmetry
    times = rootdata._times_bracket
    monkeypatch.setattr(rootdata, "_times_bracket", lambda coeffs, m: (c := times(coeffs, m))[:-1] + [c[-1] + 1])
    with pytest.raises(InternalConsistencyError, match="Poincare polynomial of A2/P1 is not palindromic"):
        poincare_polynomial(GrassmannianId(DynkinType("A", 2), 1))
