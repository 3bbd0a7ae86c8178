from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qhgrass import cli, hodge
from qhgrass.errors import InternalConsistencyError, InvalidInputError
from qhgrass.hodge import (
    DEFAULT_SEED,
    chi_y,
    diamond,
    is_hodge_tate,
    section_profile,
    vanishing_check,
)
from qhgrass.partitions import box_partitions_of_size
from qhgrass.polynomials import UniPoly
from qhgrass.screen import periodic_betti, screen, sg_betti

CHI_Y_39_SECTION = UniPoly(
    [1, -1, 2, -3, 4, -5, 7, -7, 6, -6, 7, -7, 5, -4, 3, -2, 1, -1]
)

DIAMOND_COLUMNS = {
    (3, 6): [1, 1, 2, 3, 4, 3, 2, 1, 1],
    (3, 7): [1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1],
    (3, 8): [1, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 1],
    (3, 9): [1, 1, 2, 3, 4, 5, 7, 7, 8, 8, 7, 7, 5, 4, 3, 2, 1, 1],
    (4, 8): [1, 1, 2, 3, 5, 5, 7, 7, 7, 7, 5, 5, 3, 2, 1, 1],
}

MIDDLE_ENTRIES = {
    (3, 6): [],
    (3, 7): [],
    (3, 8): [],
    (3, 9): [(8, 9, 2), (9, 8, 2)],
    (4, 8): [(7, 8, 3), (8, 7, 3)],
}


def test_ambient_chi_y_is_box_count_polynomial():
    # asserted internally as an anchor; restated here as the contract
    for k, n in [(1, 4), (2, 5), (3, 6), (2, 7)]:
        genus = chi_y(k, n)
        d = k * (n - k)
        assert genus == UniPoly(
            [(-1) ** p * len(box_partitions_of_size(k, n, p)) for p in range(d + 1)]
        )
        assert genus(-1) == comb(n, k)
        assert genus(0) == 1


def test_projective_space_section():
    # the hyperplane section of P^{n-1} is P^{n-2}
    for n in (2, 3, 5, 8):
        genus = chi_y(1, n, section=True)
        assert genus == UniPoly([(-1) ** p for p in range(n - 1)])


def test_chi_y_39_section_golden():
    assert chi_y(3, 9, section=True) == CHI_Y_39_SECTION


def test_chi_y_section_general_shape():
    for k, n in [(2, 5), (3, 6), (3, 7)]:
        genus = chi_y(k, n, section=True)
        d = k * (n - k) - 1
        assert genus.degree == d
        assert genus(0) == 1
        assert genus.leading() == (-1) ** d


def test_parameter_independence():
    for k, n in [(3, 6), (3, 7), (3, 8), (3, 9), (4, 8)]:
        a = chi_y(k, n, section=True, seed=101)
        b = chi_y(k, n, section=True, seed=20240202)
        assert a == b, (k, n)


def test_diamonds_golden():
    for (k, n), column in DIAMOND_COLUMNS.items():
        dia = diamond(k, n)
        assert dia.column() == column, (k, n)
        assert dia.middle_off_diagonal() == MIDDLE_ENTRIES[(k, n)], (k, n)
        assert dia.total() == sum(column) + sum(v for _, _, v in MIDDLE_ENTRIES[(k, n)])


def test_diamond_hard_lefschetz_monotone():
    for k, n in DIAMOND_COLUMNS:
        dia = diamond(k, n)
        col = dia.column()
        mid = dia.dim // 2
        for i in range(mid):
            assert col[i] <= col[i + 1], (k, n, i)


def test_hodge_tate_examples():
    assert is_hodge_tate(3, 10)[0] is False
    assert is_hodge_tate(3, 10)[1].method == "middle-row-jump"
    ht, cert = is_hodge_tate(3, 9)
    assert ht is False and (8, 9, 2) in cert.detail
    ht, cert = is_hodge_tate(4, 8)
    assert ht is False and (7, 8, 3) in cert.detail
    for n in (4, 6, 9):
        assert is_hodge_tate(2, n)[0] is True
    assert is_hodge_tate(3, 8)[0] is True
    with pytest.raises(InvalidInputError):
        is_hodge_tate(3, 5)


def test_fast_path_skips_localization(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("localization invoked on the fast path")

    monkeypatch.setattr(hodge, "diamond", boom)
    monkeypatch.setattr(hodge, "chi_y", boom)
    ht, cert = is_hodge_tate(5, 10)
    assert ht is False and cert.method == "middle-row-jump"
    assert cert.detail == (25 - 10, 9, 1)


def test_vanishing_check():
    assert vanishing_check(3, 10)
    assert vanishing_check(4, 9)
    with pytest.raises(InvalidInputError):
        vanishing_check(3, 9)  # boundary: k(n-k) = 2n requires strict inequality


def test_borderline_diamonds_show_unit_middle_entry():
    # full localization on the two cases just past the boundary must reproduce
    # the middle-row Hodge number 1 that the fast path asserts
    d = diamond(3, 10)
    assert d.h(21 - 10, 10 - 1) == 1
    d = diamond(4, 9)
    assert d.h(20 - 9, 9 - 1) == 1


def test_section_profiles_and_screen():
    profile = section_profile(3, 6)
    assert profile.even_betti == (1, 1, 2, 3, 4, 3, 2, 1, 1)
    assert profile.index == 5
    tb = periodic_betti(profile)
    assert tb[1] == 3 and tb[-1 % 5] == 4
    assert screen(profile).is_witness
    for n in (7, 8):
        assert screen(section_profile(3, n)).outcome == "NoObstruction"
    with pytest.raises(InvalidInputError):
        section_profile(3, 9)


def test_section_profile_matches_sg_transfer():
    # the hyperplane section of Gr(2, 2m) is the symplectic Grassmannian,
    # so the localization profile must agree with the Betti transfer route
    for m in (3, 4, 5):
        x_profile, _ = sg_betti(m)
        from_diamond = section_profile(2, 2 * m)
        assert from_diamond.even_betti == x_profile.even_betti
        assert from_diamond.index == x_profile.index


def test_seed_flag_changes_nothing(capfd):
    assert chi_y(2, 4, seed=DEFAULT_SEED) == chi_y(2, 4, seed=DEFAULT_SEED + 17)


# -- the Fraction route, kept as the oracle of the integer kernel ---------------


def _series_inverse(a: list, order: int) -> list:
    if not a or a[0] == 0:
        raise InternalConsistencyError("series inversion needs a unit")
    inv0 = Fraction(1, 1) / a[0]
    out = [inv0] + [Fraction(0)] * order
    for j in range(1, order + 1):
        acc = 0
        for i in range(1, min(j, len(a) - 1) + 1):
            if a[i]:
                acc += a[i] * out[j - i]
        out[j] = -inv0 * acc
    return out


def _chi_y_value(k: int, n: int, section: bool, xs: list[int], y: int) -> Fraction:
    """The fixed-point sum at one sample y, rebuilding every series for that y
    and dividing by the denominator through its Fraction inverse."""
    d = k * (n - k)
    order = d if not section else d - 1
    total = [Fraction(0)] * (order + 1)
    for subset in combinations(range(n), k):
        outside = [j for j in range(n) if j not in subset]
        num = [1]
        denom_unit = [1]
        for w in [xs[j] - xs[i] for i in subset for j in outside]:
            r = hodge._binomial_row(-w, order + 1)
            num = hodge._series_mul(num, [1 + y] + [y * c for c in r[1:]], order)
            denom_unit = hodge._series_mul(denom_unit, [-c for c in r[1:]], order)
        if section:
            r = hodge._binomial_row(sum(xs[i] for i in subset), order + 1)
            num = hodge._series_mul(num, [-c for c in r[1:]], order)
            denom_unit = hodge._series_mul(denom_unit, [1 + y] + [y * c for c in r[1:]], order)
        contribution = hodge._series_mul(num, _series_inverse(denom_unit, order), order)
        total = [a + b for a, b in zip(total, contribution)]
    assert not any(total[:order]), (k, n, y)
    return total[order]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-50, 50).filter(bool),
    st.lists(st.integers(-10**6, 10**6), max_size=10),
    st.integers(0, 12),
)
def test_scaled_inverse_matches_fraction_inverse(a0, rest, order):
    a = [a0] + rest
    scaled = hodge._scaled_inverse(a, order)
    assert all(isinstance(b, int) for b in scaled)
    assert [Fraction(b, a0 ** (order + 1)) for b in scaled] == _series_inverse(a, order)


def test_scaled_inverse_needs_a_unit():
    for a in ([], [0], [0, 1, 2]):
        with pytest.raises(InternalConsistencyError, match="needs a unit"):
            hodge._scaled_inverse(a, 3)


@pytest.mark.parametrize(
    "k, n, section", [(1, 5, False), (2, 5, False), (2, 6, True), (3, 6, False), (3, 7, True), (2, 8, True)]
)
def test_fixed_point_sums_match_per_sample_oracle(k, n, section):
    # k(n-k) <= 12; every sample of one pass must equal its own Fraction-route sum
    degree = k * (n - k) - int(section)
    ys = list(range(degree // 2 + 3))
    for seed in (3, 101, DEFAULT_SEED):
        xs = hodge.draw_torus_weights(n, seed)
        values = hodge._fixed_point_sums(k, n, section, xs, ys)
        assert values == [_chi_y_value(k, n, section, xs, y) for y in ys], (k, n, section, seed)


def test_inconsistent_localization_is_raised_after_one_draw(monkeypatch):
    draws = []

    def repeated_weight(n, seed):
        draws.append(seed)
        return [5] * 2 + list(range(6, 4 + n))

    monkeypatch.setattr(hodge, "draw_torus_weights", repeated_weight)
    for section in (False, True):
        draws.clear()
        with pytest.raises(InternalConsistencyError):
            chi_y(2, 5, section=section, seed=11)
        assert draws == [11]
    draws.clear()
    assert cli.run(["hodge", "--section", "--k", "2", "--n", "5", "--seed", "11"]) == 1
    assert draws == [11]
