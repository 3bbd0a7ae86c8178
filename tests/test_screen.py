import pytest
from hypothesis import given, settings, strategies as st

from oracles import EXCEPTIONAL_SILENT_CASES, euler_number, projective_space_profile, sg_betti
from qhgrass import screen as screen_module
from qhgrass.errors import InvalidInputError
from qhgrass.rootdata import DynkinType, GrassmannianId
from qhgrass.screen import (
    WITNESS,
    BettiProfile,
    Verdict,
    asymmetry,
    exceptional_table,
    periodic_betti,
    profile_of,
    screen,
)

# The 13 exceptional G/P_k whose non-semisimplicity the screen certifies, in
# Dynkin order, with the residue the source table displays (4 for F4/P4, 1
# elsewhere): (family, rank, node, residue)
EXCEPTIONAL_WITNESS_CASES = (
    ("E", 6, 2, 1),
    ("E", 6, 4, 1),
    ("E", 7, 1, 1),
    ("E", 7, 3, 1),
    ("E", 7, 6, 1),
    ("E", 8, 1, 1),
    ("E", 8, 2, 1),
    ("E", 8, 3, 1),
    ("E", 8, 5, 1),
    ("E", 8, 7, 1),
    ("E", 8, 8, 1),
    ("F", 4, 3, 1),
    ("F", 4, 4, 4),
)

EXPECTED_TABLE = {
    "E6/P2": (21, 11, 1, 6, 7),
    "E6/P4": (29, 7, 1, 102, 104),
    "E7/P1": (33, 17, 1, 7, 8),
    "E7/P3": (47, 11, 1, 183, 184),
    "E7/P6": (42, 13, 1, 58, 59),
    "E8/P1": (78, 23, 1, 94, 95),
    "E8/P2": (92, 17, 1, 1016, 1017),
    "E8/P3": (98, 13, 1, 5317, 5318),
    "E8/P5": (104, 11, 1, 21993, 21992),
    "E8/P7": (83, 19, 1, 354, 355),
    "E8/P8": (57, 29, 1, 8, 9),
    "F4/P3": (20, 7, 1, 13, 14),
    "F4/P4": (15, 11, 4, 3, 2),
}


def test_periodic_betti_e7p6():
    p = profile_of(GrassmannianId(DynkinType("E", 7), 6))
    tb = periodic_betti(p)
    assert tb[1] == 1 + 26 + 29 + 2 == 58
    assert tb[-1 % 13] == 21 + 34 + 4 + 0 == 59
    assert sum(tb.values()) == euler_number(p)


def test_projective_space_no_obstruction():
    for m in (3, 4, 7):
        p = projective_space_profile(m)
        assert periodic_betti(p) == {i: 1 for i in range(m + 1)}
        assert screen(p) == Verdict(None, "betti-screen", None)


def test_exceptional_table_golden():
    rows = exceptional_table()
    assert len(rows) == 13
    for row in rows:
        dim, index, residue, tb, tbn = EXPECTED_TABLE[row.label]
        assert (row.dim, row.index, row.residue) == (dim, index, residue), row
        assert (row.tilde_b, row.tilde_b_neg) == (tb, tbn), row
        assert row.verdict == WITNESS


def test_exceptional_witness_cases_screen_positive():
    for label in EXPECTED_TABLE:
        fam, node = label.split("/")
        g = GrassmannianId(DynkinType(fam[0], int(fam[1])), int(node[1]))
        assert screen(profile_of(g)).holds is False, label


def test_exceptional_table_is_the_witness_pin_row_for_row():
    rows = exceptional_table()
    assert [(row.label, row.residue) for row in rows] == [
        (f"{fam}{rank}/P{node}", residue) for fam, rank, node, residue in EXCEPTIONAL_WITNESS_CASES
    ]
    for row in rows:
        g = GrassmannianId(DynkinType(row.label[0], int(row.label[1])), int(row.label.split("P")[1]))
        assert asymmetry(profile_of(g)) == (row.residue, row.tilde_b, row.tilde_b_neg), row


def test_exceptional_table_is_computed_from_the_screen(monkeypatch):
    # a screen that finds nothing leaves the table empty, so no row is a literal
    monkeypatch.setattr(screen_module, "screen", lambda profile: Verdict(None, "betti-screen", None))
    assert exceptional_table() == []


def test_silent_cases_no_obstruction():
    assert set(EXCEPTIONAL_SILENT_CASES) == {
        ("E", 7, 2), ("E", 7, 4), ("E", 7, 5), ("E", 8, 6), ("E", 8, 4),
    }
    for fam, rank, node in EXCEPTIONAL_SILENT_CASES:
        g = GrassmannianId(DynkinType(fam, rank), node)
        assert screen(profile_of(g)).holds is None, g


def test_screen_invariant_under_zero_padding():
    p = profile_of(GrassmannianId(DynkinType("F", 4), 4))
    padded = BettiProfile(p.even_betti + (0,) * (2 * p.index), p.index, p.label)
    assert screen(p) == screen(padded)


def test_condition_two_follows_from_condition_one():
    profiles = [profile_of(GrassmannianId(DynkinType(f, r), k)) for f, r, k in
                [("E", 7, 2), ("E", 7, 4), ("E", 7, 5), ("E", 8, 6), ("E", 8, 4),
                 ("A", 6, 3), ("A", 7, 2), ("C", 4, 1)]]
    profiles.append(projective_space_profile(6))
    for p in profiles:
        if screen(p).holds is None:
            tb = periodic_betti(p)
            for i in range(p.index):
                assert tb[i] == tb[-i % p.index], (p.label, i)


def test_sg_betti_small():
    x, y = sg_betti(3)
    assert x.even_betti == (1, 1, 2, 2, 2, 2, 1, 1) and x.index == 5
    assert y.even_betti == (1, 1, 2, 4, 2, 1, 1) and y.index == 4
    assert euler_number(x) == euler_number(y) == 12
    with pytest.raises(InvalidInputError):
        sg_betti(2)


def test_sg_witnesses_match_dimension_counts():
    for n in (3, 4, 5):
        x, y = sg_betti(n)
        tbx, tby = periodic_betti(x), periodic_betti(y)
        assert tbx[2] == n and tbx[-2 % x.index] == n - 1
        assert tby[1] == n - 1 and tby[-1 % y.index] == 2 * n - 2
        assert screen(x).holds is False and screen(y).holds is False


def test_screen_witness_fields():
    p = BettiProfile((1, 0, 2), 3, "toy")
    v = screen(p)
    assert v.holds is False and v.method == "betti-screen"
    i, d, lhs, rhs = v.certificate
    assert lhs > rhs
    tb = periodic_betti(p)
    assert tb[i] == lhs and tb[(d * i) % 3] == rhs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.integers(1, 7))
def test_an_asymmetry_implies_a_screen_witness_at_i_or_minus_i(betti, index):
    p = BettiProfile(tuple(betti), index)
    tb = periodic_betti(p)
    asym = asymmetry(p)
    if asym is None:
        assert all(tb[i] == tb[-i % index] for i in range(index))
        return
    i, pos, neg = asym
    assert 1 <= i < index and pos != neg and (pos, neg) == (tb[i], tb[-i % index])
    assert all(tb[j] == tb[-j % index] for j in range(1, i))
    # the larger of tilde_b(i) and tilde_b(-i) violates the inequality at
    # d = r - 1, and the screen's first hit comes no later in (i, d)
    a = i if pos > neg else -i % index
    assert tb[a] > tb[(index - 1) * a % index]
    v = screen(p)
    assert v.holds is False
    j, d, lhs, rhs = v.certificate
    assert (j, d) <= (a, index - 1) and tb[j] == lhs > rhs == tb[d * j % index]
