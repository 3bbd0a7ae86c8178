import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from oracles import euler_sums_by_hooks, hodge_number, sg_betti, solve, transpose
from qhgrass import cli, hodge, partitions
from qhgrass.errors import InternalConsistencyError, InvalidInputError
from qhgrass.hodge import (
    DEFAULT_SEED,
    chi_y,
    diamond,
    is_hodge_tate,
    section_profile,
)
from qhgrass.partitions import Box, box_partitions_of_size, snow_witnesses
from qhgrass.screen import periodic_betti, screen

CHI_Y_39_SECTION = (1, -1, 2, -3, 4, -5, 7, -7, 6, -6, 7, -7, 5, -4, 3, -2, 1, -1)

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
        assert genus == tuple((-1) ** p * len(box_partitions_of_size(k, n, p)) for p in range(d + 1))
        assert sum((-1) ** p * c for p, c in enumerate(genus)) == comb(n, k)
        assert genus[0] == 1


def test_ambient_anchor_counts_partitions_in_the_narrow_box(monkeypatch):
    # the counts come from the Gaussian binomial of the narrow box, so no
    # partition is enumerated: neither by name in hodge nor by the generator
    # behind box_partitions_of_size, whose cache is emptied first
    calls = []
    for module, name in [(hodge, "box_partitions_of_size"), (partitions, "_box_partitions")]:
        original = getattr(partitions, name)
        spy = lambda *args, original=original: calls.append(args) or original(*args)  # noqa: E731
        monkeypatch.setattr(module, name, spy, raising=False)
    partitions.box_partitions_of_size.cache_clear()
    hodge.diamond.cache_clear()
    chi_y(6, 8)
    chi_y(3, 8, section=True)
    diamond(3, 8)
    assert calls == []


def test_wide_side_section_is_its_narrow_twin():
    for n in range(2, 11):
        for k in range((n + 2) // 2, n):
            assert diamond(k, n) == diamond(n - k, n), (k, n)
    with pytest.raises(InvalidInputError, match="assume n >= 2k"):
        is_hodge_tate(5, 8)


def test_projective_space_section():
    # the hyperplane section of P^{n-1} is P^{n-2}
    for n in (2, 3, 5, 8):
        genus = chi_y(1, n, section=True)
        assert genus == tuple((-1) ** p for p in range(n - 1))


def test_chi_y_39_section_golden():
    assert chi_y(3, 9, section=True) == CHI_Y_39_SECTION


def test_chi_y_section_general_shape():
    for k, n in [(2, 5), (3, 6), (3, 7)]:
        genus = chi_y(k, n, section=True)
        d = k * (n - k) - 1
        assert len(genus) - 1 == d
        assert genus[0] == 1
        assert genus[-1] == (-1) ** d


def test_parameter_independence():
    # the localization oracle's torus weights come from its seed; the genus
    # does not depend on them
    for k, n in [(3, 6), (3, 7)]:
        a = localized_chi_y(k, n, section=True, seed=101)
        b = localized_chi_y(k, n, section=True, seed=20240202)
        assert a == b == chi_y(k, n, section=True), (k, n)


def test_diamonds_golden():
    for (k, n), column in DIAMOND_COLUMNS.items():
        dia = diamond(k, n)
        assert list(dia.column) == column, (k, n)
        assert dia.middle_off_diagonal() == MIDDLE_ENTRIES[(k, n)], (k, n)
        assert dia.total() == sum(column) + sum(v for _, _, v in MIDDLE_ENTRIES[(k, n)])


def test_diamond_hard_lefschetz_monotone():
    for k, n in DIAMOND_COLUMNS:
        dia = diamond(k, n)
        col = list(dia.column)
        mid = dia.dim // 2
        for i in range(mid):
            assert col[i] <= col[i + 1], (k, n, i)


def _full_diamond(k, n):
    """Every h^{p,q} of the section as a (dim + 1)^2 matrix: the
    box-partition counts on the diagonal off the middle and the middle row
    solved from chi_y, zero elsewhere."""
    genus = chi_y(k, n, section=True)
    d = k * (n - k) - 1
    h = [[0] * (d + 1) for _ in range(d + 1)]
    for p in range(d + 1):
        if 2 * p != d:
            h[p][p] = len(box_partitions_of_size(k, n, min(p, d - p)))
    for p in range(d + 1):
        q = d - p
        h[p][q] = (-1) ** q * (genus[p] - (-1) ** p * h[p][p]) if p != q else (-1) ** p * genus[p]
    return h


def test_two_line_diamond_matches_the_full_matrix():
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            dia, h = diamond(k, n), _full_diamond(k, n)
            d = dia.dim
            assert d + 1 == len(h), (k, n)
            assert all(hodge_number(dia, p, q) == h[p][q] for p in range(d + 1) for q in range(d + 1)), (k, n)
            assert dia.total() == sum(map(sum, h)), (k, n)
            off = [(p, d - p, h[p][d - p]) for p in range(d + 1) if 2 * p != d and h[p][d - p]]
            assert dia.middle_off_diagonal() == off, (k, n)
            # an even Betti profile exists exactly when no class has odd degree
            odd = any(h[p][q] for p in range(d + 1) for q in range(d + 1) if (p + q) % 2)
            if odd:
                with pytest.raises(InvalidInputError, match="odd-degree cohomology"):
                    section_profile(k, n)
            else:
                betti = [0] * (d + 1)
                for p in range(d + 1):
                    for q in range(p % 2, d + 1, 2):
                        betti[(p + q) // 2] += h[p][q]
                assert list(section_profile(k, n).even_betti) == betti, (k, n)


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


def vanishing_check(k: int, n: int) -> bool:
    """Exhaustive combinatorial confirmation of the twisted-form vanishing used
    by the middle-row fast path, through the nonvanishing witness search."""
    dim_x = k * (n - k)
    if dim_x <= 2 * n:
        raise InvalidInputError("vanishing check applies only when k(n-k) > 2n")
    box = Box(k, n)
    for p in range(2, n + 1):
        for j in range(1, p):
            if snow_witnesses(box, dim_x - j, p - j):
                return False
    return True


def test_vanishing_check():
    assert vanishing_check(3, 10)
    assert vanishing_check(4, 9)
    with pytest.raises(InvalidInputError):
        vanishing_check(3, 9)  # boundary: k(n-k) = 2n requires strict inequality


def test_borderline_diamonds_show_unit_middle_entry():
    # every box past the boundary with n <= 12, from (3, 10) and (4, 9) on: the
    # full diamond must reproduce the middle-row Hodge number 1 that the
    # middle-row-jump certificate claims without computing it
    boxes = [(k, n) for n in range(4, 13) for k in range(2, n // 2 + 1) if k * (n - k) > 2 * n]
    assert len(boxes) == 11
    for k, n in boxes:
        ht, cert = is_hodge_tate(k, n)
        assert not ht and cert.method == "middle-row-jump"
        p, q, h = cert.detail
        assert (p, q, h) == (k * (n - k) - n, n - 1, 1)
        assert hodge_number(diamond(k, n), p, q) == h, (k, n)


def test_hodge_tate_exactly_on_the_ade_boxes():
    # the A-D-E bijection, 1/2 + 1/k + 1/(n - k) > 1, on every box with n <= 12;
    # diamond asserts the same bound in integers
    hodge.diamond.cache_clear()
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            ade = Fraction(1, 2) + Fraction(1, k) + Fraction(1, n - k) > 1
            assert diamond(k, n).is_hodge_tate() == ade, (k, n)


def test_ade_check_catches_a_lost_middle_row(monkeypatch, capsys):
    # (3, 9) is not Hodge-Tate; a diamond that reports no middle off-diagonal
    # entry breaks the A-D-E bound, and the CLI exits 1 with one line
    monkeypatch.setattr(hodge.HodgeDiamond, "middle_off_diagonal", lambda self: [])
    hodge.diamond.cache_clear()
    assert cli.run(["hodge", "--section", "--k", "3", "--n", "9"]) == 1
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and err.startswith("internal consistency failure")
    assert "A-D-E" in err


def test_a_chi_y_whose_constant_term_is_not_1_is_an_internal_failure(monkeypatch):
    # palindromic counts that sum to C(3, 1) = 3, but with no class of degree 0
    monkeypatch.setattr(hodge, "box_counts", lambda k, n: (0, 3, 0))
    with pytest.raises(InternalConsistencyError, match=r"chi_y\(0\) != 1: sign conventions are broken"):
        chi_y(1, 3)


def test_ambient_counts_off_c_n_k_are_an_internal_failure(monkeypatch, capsys):
    # palindromic counts for Gr(2, 4) that sum to 5, not C(4, 2) = 6
    monkeypatch.setattr(hodge, "box_counts", lambda k, n: (1, 1, 1, 1, 1))
    assert cli.run(["hodge", "--k", "2", "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == (
        "internal consistency failure: box-partition counts do not sum to C(n, k) or are not palindromic\n")


def test_a_beta_set_tally_off_the_counts_is_an_internal_failure(monkeypatch, capsys):
    # palindromic counts that sum to C(4, 2) = 6 pass chi_y's own check, but
    # the beta sets of Gr(2, 4) tally 1, 1, 2, 1, 1 by size
    monkeypatch.setattr(hodge, "box_counts", lambda k, n: (1, 2, 0, 2, 1))
    hodge.diamond.cache_clear()
    assert cli.run(["hodge", "--section", "--k", "2", "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: beta sets do not match box-partition counts\n"


def test_a_fractional_weyl_dimension_is_an_internal_failure(monkeypatch, capsys):
    # A(n) one more than prod (y - n) over y in [0, n-1] makes the first
    # regular twist of the (2, 5) section inexact
    table = hodge._cross_table
    monkeypatch.setattr(hodge, "_cross_table", lambda n, top: [x + (s == n) for s, x in enumerate(table(n, top))])
    hodge.diamond.cache_clear()
    assert cli.run(["hodge", "--section", "--k", "2", "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: Weyl dimension of beta set (0, 1) at t=-5 is fractional\n"


def test_a_section_genus_off_serre_symmetry_is_an_internal_failure(monkeypatch, capsys):
    # one more in the y^1 twist sum of the (2, 5) section moves chi_0 and
    # chi_1 but not their mirrors chi_4 and chi_3; symmetry is checked first
    sums = hodge._euler_sums
    monkeypatch.setattr(hodge, "_euler_sums", lambda k, n: [b + (q == 1) for q, b in enumerate(sums(k, n))])
    hodge.diamond.cache_clear()
    assert cli.run(["hodge", "--section", "--k", "2", "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: section chi_y breaks Serre symmetry\n"


def test_a_negative_middle_hodge_number_exits_1(monkeypatch, capsys):
    # the (2, 5) section has dimension 5 and h^(0,5) = 0; a genus whose
    # constant term is one more solves the middle row to h^(0,5) = -1
    genus = chi_y(2, 5, section=True)
    monkeypatch.setattr(hodge, "chi_y", lambda k, n, section=False: (genus[0] + 1,) + genus[1:])
    hodge.diamond.cache_clear()
    with pytest.raises(InternalConsistencyError, match=r"negative Hodge number h\^\(0,5\) = -1"):
        diamond(2, 5)
    assert cli.run(["hodge", "--section", "--k", "2", "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "internal consistency failure: negative Hodge number h^(0,5) = -1\n"


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


def test_seed_flag_changes_nothing(capsys):
    # chi_y is seedless: --seed is only echoed in the inputs
    docs = []
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 17):
        for section in ([], ["--section"]):
            argv = ["hodge", "--k", "2", "--n", "4", *section, "--seed", str(seed), "--format", "json"]
            assert cli.run(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["inputs"].pop("seed") == seed
            docs.append(doc)
    assert docs[:2] == docs[2:]


# -- the localization oracle ----------------------------------------------------
#
# The torus with weights x_1, ..., x_n acts on Gr(k, n) with one fixed point per
# k-subset S, tangent weights x_j - x_i for i in S, j outside, and Pluecker line
# weight sum(x_i, i in S).  Summing the holomorphic Lefschetz contributions
#
#     prod (1 + y t^-w) / (1 - t^-w)    [times (1 - t^h) / (1 + y t^h) for the
#                                        degree-one section, h the line weight]
#
# over fixed points gives an equivariant character; the genus is its value at
# t -> 1, taken exactly: with the x_i specialized to distinct random integers
# (one draw; a failure is a bug), each contribution is a Laurent series in
# u = t - 1 whose pole parts must cancel in the sum.  One pass over the fixed
# points serves every integer y-sample through one scaled integer inverse per
# sample, and the y-polynomial is interpolated exactly under Serre symmetry with
# one extra sample as a checksum.  It shares nothing with the Borel-Weil-Bott
# route of `hodge.chi_y` beyond the answer.


def _binomial_row(m: int, order: int) -> list[int]:
    """Coefficients of (1 + u)^m up to degree `order` (m may be negative)."""
    row = [1]
    c = 1
    for j in range(1, order + 1):
        num = c * (m - j + 1)
        c, r = divmod(num, j)
        if r:
            raise InternalConsistencyError("binomial recursion left a remainder")
        row.append(c)
    return row


def _series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            top = order - i
            for j, bj in enumerate(b[: top + 1]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _scaled_inverse(a: list[int], order: int) -> list[int]:
    """Integers b' with 1/a = sum_j b'_j u^j / e0^(order+1), e0 = a[0].

    b'_j = b_j e0^(order-j) for the integer recursion b_0 = 1,
    b_j = -sum_{i>=1} a_i e0^(i-1) b_{j-i}; so the division by e0 is exact.
    """
    if not a or a[0] == 0:
        raise InternalConsistencyError("series inversion needs a unit")
    out = [a[0] ** order]
    for j in range(1, order + 1):
        out.append(-sum(a[i] * out[j - i] for i in range(1, min(j, len(a) - 1) + 1)) // a[0])
    return out


def draw_torus_weights(n: int, seed: int) -> list[int]:
    """Distinct nonzero integer specializations of the torus weights."""
    rng = random.Random(seed)
    return rng.sample(range(1, 12 * n + 1), n)


def _fixed_point_sums(k: int, n: int, section: bool, xs: list[int], ys: list[int]) -> list[Fraction]:
    """Exact value of the fixed-point sum at t = 1 for each integer sample y.

    Each contribution is u^{-d} (ambient) or u^{-(d-1)} (section, whose
    numerator carries one factor of u) times a regular series in u = t - 1:
    the numerator prod (1 + y (1+u)^-w) [times H = (1 - (1+u)^h) / u] over
    the unit D = prod (1 - (1+u)^-w) / u [times 1 + y (1+u)^h].  The weights,
    D and H are built once per fixed point; the pole part of every sum is
    checked to cancel exactly, and its constant Laurent coefficient returned.
    """
    d = k * (n - k)
    order = d if not section else d - 1
    rows: dict[int, list[int]] = {}

    def row(m):
        # one term beyond the truncation order: factors divided by u shift down
        if m not in rows:
            rows[m] = _binomial_row(m, order + 1)
        return rows[m]

    totals = [[Fraction(0)] * (order + 1) for _ in ys]
    for subset in combinations(range(n), k):
        tails = [row(xs[i] - xs[j])[1:] for i in subset for j in range(n) if j not in subset]
        denom = [1]
        for tail in tails:
            # (1 - (1+u)^-w) / u, a unit since w != 0
            denom = _series_mul(denom, [-c for c in tail], order)
        if section:
            h_tail = row(sum(xs[i] for i in subset))[1:]
            h_series = [-c for c in h_tail]  # (1 - (1+u)^h) / u
        for y, total in zip(ys, totals):
            num = [1]
            for tail in tails:
                num = _series_mul(num, [1 + y] + [y * c for c in tail], order)
            unit = denom
            if section:
                num = _series_mul(num, h_series, order)
                unit = _series_mul(denom, [1 + y] + [y * c for c in h_tail], order)
            scale = unit[0] ** (order + 1)
            for m, c in enumerate(_series_mul(num, _scaled_inverse(unit, order), order)):
                if c:
                    total[m] += Fraction(c, scale)
    for y, total in zip(ys, totals):
        for j in range(order):
            if total[j] != 0:
                raise InternalConsistencyError(
                    f"pole part did not cancel at order u^{j - order} (k={k}, n={n}, y={y})"
                )
    return [total[order] for total in totals]


def localized_chi_y(k: int, n: int, section: bool = False, seed: int = DEFAULT_SEED) -> tuple[int, ...]:
    """chi_y by localization, interpolated from integer samples of y, as
    coefficients lowest degree first."""
    degree = k * (n - k) - int(section)
    # unknown coefficients c_p for p <= degree/2; c_{degree-p} = (-1)^degree c_p
    unknowns = degree // 2 + 1
    ys = list(range(unknowns + 2))
    values = _fixed_point_sums(k, n, section, draw_torus_weights(n, seed), ys)
    sign = (-1) ** degree
    rows = []
    for y in ys:
        row = []
        for p in range(unknowns):
            mirror = degree - p
            row.append(Fraction(y) ** p + (sign * Fraction(y) ** mirror if mirror != p else 0))
        rows.append(row)
    # tall exact system: Serre symmetry is imposed, every sample must agree
    solution = solve(rows, values)
    coeffs = [Fraction(0)] * (degree + 1)
    for p, c in enumerate(solution):
        coeffs[p] = c
        coeffs[degree - p] = sign * c if degree - p != p else c
    if any(c.denominator != 1 for c in coeffs):
        raise InternalConsistencyError("chi_y has a non-integer coefficient")
    return tuple(int(c) for c in coeffs)


@pytest.mark.parametrize(
    "k, n, section",
    [(1, 5, True), (2, 6, True), (3, 7, True), (2, 8, True), (3, 8, True), (2, 5, False), (3, 6, False)],
)
def test_bwb_chi_y_matches_localization(k, n, section):
    assert chi_y(k, n, section=section) == localized_chi_y(k, n, section)


def test_bwb_anchors_catch_a_wrong_sum(monkeypatch, capsys):
    # a slipped box count or twist sum must trip an anchor (the count sum, the
    # beta-set tally or Serre symmetry) rather than reach the output; the CLI exits 1
    counts, sums = hodge.box_counts, hodge._euler_sums

    def bumped(k, n):
        table = list(counts(k, n))
        table[2] += 1
        return tuple(table)

    def shifted(k, n):
        # the sum and the palindrome kept: one count moved from 2 to 1 and from d - 2 to d - 1
        table = list(counts(k, n))
        for p, step in [(1, 1), (2, -1), (-2, 1), (-3, -1)]:
            table[p] += step
        return tuple(table)

    def slipped(k, n):
        alternating = sums(k, n)
        alternating[2] += 1
        return alternating

    cases = [
        ("box_counts", bumped, [(2, 5, False), (3, 6, False), (2, 5, True), (3, 7, True)], "sum to C"),
        ("box_counts", shifted, [(2, 5, True), (3, 7, True)], "beta sets"),
        ("_euler_sums", slipped, [(2, 5, True), (3, 7, True)], "Serre symmetry"),
    ]
    for name, patch, boxes, message in cases:
        with monkeypatch.context() as patched:
            patched.setattr(hodge, name, patch)
            for k, n, section in boxes:
                with pytest.raises(InternalConsistencyError, match=message):
                    chi_y(k, n, section=section)
            hodge.diamond.cache_clear()
            assert cli.run(["hodge", "--section", "--k", "2", "--n", "5"]) == 1
            assert "internal consistency failure" in capsys.readouterr().err


def test_beta_set_kernel_matches_the_hook_content_oracle():
    # the oracle on (n - k, n) as well: the kernel works on min(k, n - k); its
    # twist sums are _euler_sums' and its t = 0 values the signed box counts
    for n in range(2, 11):
        for k in range(1, n):
            for section in (False, True):
                expected = euler_sums_by_hooks(k, n, section)
                assert euler_sums_by_hooks(n - k, n, section) == expected, (k, n, section)
                at_zero, alternating = expected
                assert at_zero == [(-1) ** p * c for p, c in enumerate(hodge.box_counts(k, n))], (k, n)
                if section:
                    assert hodge._euler_sums(k, n) == alternating, (k, n)
    assert hodge._euler_sums(7, 14) == euler_sums_by_hooks(7, 14, True)[1]


def test_beta_set_kernel_catches_a_wrong_table_entry(monkeypatch, capsys):
    # one factorial-table entry off by one must stop the kernel itself, by the
    # remainder of its exact division or by an anchor; the CLI exits 1
    original = hodge._cross_table
    entries = len(original(7, 14))  # the (3, 7) section reads A(s) for s = 0..d + k - 1 = 14
    for s in range(entries):
        def bumped(n, last, s=s):
            table = original(n, last)
            table[s] += 1
            return table

        monkeypatch.setattr(hodge, "_cross_table", bumped)
        with pytest.raises(InternalConsistencyError):
            chi_y(3, 7, section=True)
    hodge.diamond.cache_clear()
    assert cli.run(["hodge", "--section", "--k", "3", "--n", "7"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "internal consistency failure" in err, err


def _run_within_10_s(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hodge.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=10)


def test_section_sums_of_the_wide_side_come_from_the_narrow_side():
    # Gr(68, 70) = Gr(2, 70): the kernel takes 2-element beta sets, where
    # 68-element ones run past the timeout.  The ambient genus takes no beta
    # set, and a section command has the same results on either side, so
    # only its time would show the side the kernel works on.
    code = "import sys; from qhgrass import hodge; sys.exit(hodge._euler_sums(68, 70) != hodge._euler_sums(2, 70))"
    proc = _run_within_10_s(["-c", code])
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_oversized_chi_y_is_refused_up_front():
    t0 = time.process_time()
    with pytest.raises(InvalidInputError, match="2035800 box partitions"):
        chi_y(7, 30, section=True)
    assert time.process_time() - t0 < 0.5
    assert comb(14, 7) <= hodge.MAX_BWB_PARTITIONS  # (7, 14) stays admitted
    # C(n, k) is not taken when its logarithm is over 9 digits
    for k, n in [(776, 99811922), (5 * 10**8, 10**9)]:
        with pytest.raises(InvalidInputError, match="needs about 10\\^[0-9]+ box partitions"):
            chi_y(k, n)
    assert time.process_time() - t0 < 0.5


def _regular_twists(k, n, lam):
    # the j in 0..d - |lam| at which the Weyl product of lam is not singular
    d = k * (n - k)
    rows = lam + (0,) * (k - len(lam))
    cols = transpose(lam) + (0,) * (n - k - len(transpose(lam)))
    hooks = {rows[r] + cols[c] - r - c - 1 for r in range(k) for c in range(n - k)}
    return [j for j in range(d - sum(lam) + 1) if -j not in hooks]


def test_section_takes_d_over_2_plus_1_twists_per_partition_on_average():
    # the section takes each partition of p at the d - p + 1 twists t = -j:
    # d/2 + 1 on average, since the box-partition counts are palindromic
    for k, n in [(2, 5), (3, 7), (3, 9), (4, 8), (2, 10), (7, 14)]:
        d = k * (n - k)
        twists = sum(len(box_partitions_of_size(k, n, p)) * (d - p + 1) for p in range(d + 1))
        assert 2 * twists == comb(n, k) * (d + 2), (k, n)


def test_projective_space_has_no_regular_twist_but_zero(monkeypatch):
    # Bott's formula: on projective space every twist but t = 0 is singular
    for k, n in [(1, 2), (1, 7), (6, 7), (1, 12), (11, 12)]:
        d = k * (n - k)
        for p in range(d + 1):
            for lam in box_partitions_of_size(k, n, p):
                assert _regular_twists(k, n, lam) == [0], (k, n, lam)
    # so the section kernel builds no factorial table there
    expected = {n: hodge._euler_sums(1, n) for n in (7, 12)}
    monkeypatch.setattr(hodge, "_cross_table", None)
    for k, n in [(1, 7), (6, 7), (1, 12), (11, 12)]:
        assert hodge._euler_sums(k, n) == expected[n], (k, n)


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
            r = _binomial_row(-w, order + 1)
            num = _series_mul(num, [1 + y] + [y * c for c in r[1:]], order)
            denom_unit = _series_mul(denom_unit, [-c for c in r[1:]], order)
        if section:
            r = _binomial_row(sum(xs[i] for i in subset), order + 1)
            num = _series_mul(num, [-c for c in r[1:]], order)
            denom_unit = _series_mul(denom_unit, [1 + y] + [y * c for c in r[1:]], order)
        contribution = _series_mul(num, _series_inverse(denom_unit, order), order)
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
    scaled = _scaled_inverse(a, order)
    assert all(isinstance(b, int) for b in scaled)
    assert [Fraction(b, a0 ** (order + 1)) for b in scaled] == _series_inverse(a, order)


def test_scaled_inverse_needs_a_unit():
    for a in ([], [0], [0, 1, 2]):
        with pytest.raises(InternalConsistencyError, match="needs a unit"):
            _scaled_inverse(a, 3)


@pytest.mark.parametrize(
    "k, n, section", [(1, 5, False), (2, 5, False), (2, 6, True), (3, 6, False), (3, 7, True), (2, 8, True)]
)
def test_fixed_point_sums_match_per_sample_oracle(k, n, section):
    # k(n-k) <= 12; every sample of one pass must equal its own Fraction-route sum
    degree = k * (n - k) - int(section)
    ys = list(range(degree // 2 + 3))
    for seed in (3, 101, DEFAULT_SEED):
        xs = draw_torus_weights(n, seed)
        values = _fixed_point_sums(k, n, section, xs, ys)
        assert values == [_chi_y_value(k, n, section, xs, y) for y in ys], (k, n, section, seed)


def test_inconsistent_localization_is_raised_after_one_draw(monkeypatch):
    draws = []

    def repeated_weight(n, seed):
        draws.append(seed)
        return [5] * 2 + list(range(6, 4 + n))

    monkeypatch.setitem(globals(), "draw_torus_weights", repeated_weight)
    for section in (False, True):
        draws.clear()
        with pytest.raises(InternalConsistencyError):
            localized_chi_y(2, 5, section=section, seed=11)
        assert draws == [11]
