import pytest

from oracles import projective_space_profile, sg_betti
from qhgrass.errors import InvalidInputError
from qhgrass.rootdata import DynkinType, GrassmannianId
from qhgrass.screen import (
    EXCEPTIONAL_SILENT_CASES,
    NO_OBSTRUCTION,
    WITNESS,
    BettiProfile,
    exceptional_table,
    periodic_betti,
    profile_of,
    screen,
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
    assert sum(tb.values()) == p.euler


def test_projective_space_no_obstruction():
    for m in (3, 4, 7):
        p = projective_space_profile(m)
        assert periodic_betti(p) == {i: 1 for i in range(m + 1)}
        assert screen(p).outcome == NO_OBSTRUCTION


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
        assert screen(profile_of(g)).is_witness, label


def test_silent_cases_no_obstruction():
    assert set(EXCEPTIONAL_SILENT_CASES) == {
        ("E", 7, 2), ("E", 7, 4), ("E", 7, 5), ("E", 8, 6), ("E", 8, 4),
    }
    for fam, rank, node in EXCEPTIONAL_SILENT_CASES:
        g = GrassmannianId(DynkinType(fam, rank), node)
        assert screen(profile_of(g)).outcome == NO_OBSTRUCTION, g


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
        if screen(p).outcome == NO_OBSTRUCTION:
            tb = periodic_betti(p)
            for i in range(p.index):
                assert tb[i] == tb[-i % p.index], (p.label, i)


def test_sg_betti_small():
    x, y = sg_betti(3)
    assert x.even_betti == (1, 1, 2, 2, 2, 2, 1, 1) and x.index == 5
    assert y.even_betti == (1, 1, 2, 4, 2, 1, 1) and y.index == 4
    assert x.euler == y.euler == 12
    with pytest.raises(InvalidInputError):
        sg_betti(2)


def test_sg_witnesses_match_dimension_counts():
    for n in (3, 4, 5):
        x, y = sg_betti(n)
        tbx, tby = periodic_betti(x), periodic_betti(y)
        assert tbx[2] == n and tbx[-2 % x.index] == n - 1
        assert tby[1] == n - 1 and tby[-1 % y.index] == 2 * n - 2
        assert screen(x).is_witness and screen(y).is_witness


def test_screen_witness_fields():
    p = BettiProfile((1, 0, 2), 3, "toy")
    v = screen(p)
    assert v.is_witness
    i, d, lhs, rhs = v.witness
    assert lhs > rhs
    tb = periodic_betti(p)
    assert tb[i] == lhs and tb[(d * i) % 3] == rhs
