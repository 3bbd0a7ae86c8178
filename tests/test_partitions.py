import math
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    core_search_unpruned,
    count_small_partitions_table,
    from_beta_set,
    gaussian_binomial,
    hook_lengths,
    snow_by_cells,
    to_beta_set,
)
from qhgrass import partitions
from qhgrass.errors import InvalidInputError
from qhgrass.partitions import (
    MAX_CORE_CANDIDATES,
    MAX_SNOW_PARTITIONS,
    MAX_SNOW_PARTS,
    Box,
    _box_partitions,
    _count_small_partitions,
    _hook_counts,
    box_counts,
    box_partitions_of_size,
    canonical,
    core_search,
    size,
    snow_witnesses,
    transpose,
)
from qhgrass.quantum import schubert_basis


# -- oracles: the two classical core tests that core_search's bitmask replaces --


def is_core(lam, ell):
    """True iff no cell of lam has hook length ell (early-exit cell scan)."""
    if ell <= 0:
        raise InvalidInputError(f"core parameter must be positive, got {ell}")
    lam = canonical(lam)
    tr = transpose(lam)
    for i, row_len in enumerate(lam, start=1):
        for j in range(1, row_len + 1):
            if row_len - j + tr[j - 1] - i + 1 == ell:
                return False
    return True


def is_core_beta(lam, ell, box):
    """Core test through the beta set: a in A and a-ell >= 1 force a-ell in A."""
    beta = set(to_beta_set(lam, box))
    return all(a - ell in beta for a in beta if a - ell >= 1)


def core_hits(k, n, test):
    """(lam, i) over the partitions of at least k(n-k) - i cells that pass
    test(lam, n - i), i descending and lam lexicographically decreasing."""
    full = k * (n - k)
    out = []
    for i in range(n - 1, 0, -1):
        found = [
            lam
            for p in range(max(full - i, 0), full + 1)
            for lam in box_partitions_of_size(k, n, p)
            if test(lam, n - i)
        ]
        out.extend((lam, i) for lam in sorted(found, reverse=True))
    return out


@st.composite
def partitions_strategy(draw, max_parts=6, max_part=8):
    k = draw(st.integers(min_value=0, max_value=max_parts))
    parts = sorted(
        draw(st.lists(st.integers(0, max_part), min_size=k, max_size=k)), reverse=True
    )
    return canonical(parts)


def test_canonical_strips_zeros_and_validates():
    assert canonical((3, 2, 0, 0)) == (3, 2)
    assert canonical([]) == ()
    with pytest.raises(InvalidInputError):
        canonical((1, 2))
    with pytest.raises(InvalidInputError):
        canonical((2, -1))


@given(partitions_strategy())
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert size(transpose(lam)) == size(lam)


def test_hook_lengths_examples():
    assert hook_lengths((3, 2, 1)) == {
        (1, 1): 5, (1, 2): 3, (1, 3): 1, (2, 1): 3, (2, 2): 1, (3, 1): 1,
    }
    hooks_642 = hook_lengths((6, 4, 2))
    assert sorted(hooks_642.values()) == [1, 1, 1, 2, 2, 2, 4, 4, 5, 5, 7, 8]
    assert hooks_642[(1, 1)] == 8 and hooks_642[(2, 4)] == 1
    assert hook_lengths(()) == {}
    assert len(hook_lengths((4, 4, 2))) == 10


def test_hook_multiset_identity():
    # the multiset of hooks is the union over first-column hooks a_i of
    # {1..a_i} minus the differences {a_i - a_j : j > i}
    for k, n in [(2, 5), (3, 6), (3, 7), (4, 8), (4, 10)]:
        for lam in schubert_basis(Box(k, n)):
            if not lam:
                continue
            rows = len(lam)
            beta = tuple(lam[i] + (rows - i - 1) for i in range(rows))
            expected = []
            for i, a in enumerate(beta):
                gaps = {a - b for b in beta[i + 1 :]}
                expected.extend(h for h in range(1, a + 1) if h not in gaps)
            assert sorted(expected) == sorted(hook_lengths(lam).values()), lam


def test_is_core_examples():
    assert is_core((6, 4, 2), 3)
    assert not is_core((1,), 1)
    assert is_core((), 5)
    with pytest.raises(InvalidInputError):
        is_core((2, 1), 0)


def test_is_core_agrees_with_beta_route():
    for k, n in [(2, 4), (3, 6), (3, 7), (4, 8)]:
        box = Box(k, n)
        for lam in schubert_basis(Box(k, n)):
            for ell in range(1, n + 1):
                assert is_core(lam, ell) == is_core_beta(lam, ell, box), (lam, ell)


def test_beta_set_examples_and_round_trip():
    box = Box(3, 9)
    assert to_beta_set((6, 4, 2), box) == (9, 6, 3)
    assert to_beta_set((), box) == (3, 2, 1)
    for k, n in [(2, 6), (3, 8), (4, 10)]:
        b = Box(k, n)
        for subset in combinations(range(1, n + 1), k):
            assert to_beta_set(from_beta_set(subset, b), b) == tuple(sorted(subset, reverse=True))
        for lam in schubert_basis(Box(k, n)):
            assert from_beta_set(to_beta_set(lam, b), b) == lam


def test_box_membership_and_dual():
    box = Box(3, 7)
    assert box.contains((4, 4, 4)) and not box.contains((5,)) and not box.contains((1,) * 4)
    assert box.dual(()) == (4, 4, 4)
    assert box.dual((4, 2, 1)) == (3, 2)
    assert box.dual(box.dual((3, 1))) == (3, 1)
    with pytest.raises(InvalidInputError):
        box.require((5, 1))


def test_box_partitions_order_and_count():
    from math import comb

    for k, n in [(2, 4), (2, 5), (3, 6), (3, 7), (4, 9)]:
        parts = schubert_basis(Box(k, n))
        assert len(parts) == comb(n, k)
        # the weakly decreasing k-tuples in [0, n-k], by degree and then
        # lexicographically decreasing
        tuples = combinations_with_replacement(range(n - k, -1, -1), k)
        expected = sorted(tuples, key=lambda a: (sum(a), [-x for x in a]))
        assert parts == tuple(canonical(a) for a in expected)
        for p in range(k * (n - k) + 1):
            assert box_partitions_of_size(k, n, p) == tuple(lam for lam in parts if size(lam) == p)


def test_box_partitions_of_any_number_of_parts():
    # no recursion, so past the interpreter's recursion limit of about 1,000
    assert box_partitions_of_size(2000, 2001, 1500) == ((1,) * 1500,)
    # parts of at most 2: (2^a, 1^(1502 - 2a)), a descending, the rows bounding a from below
    for rows, least in [(1600, 0), (1000, 502)]:
        expected = [(2,) * a + (1,) * (1502 - 2 * a) for a in range(751, least - 1, -1)]
        assert list(_box_partitions(1502, rows, 2)) == expected, rows


def test_hook_counts_of_a_1500_part_partition():
    lam = (3,) * 500 + (2,) * 500 + (1,) * 500
    hooks = list(hook_lengths(lam).values())
    for ell in (0, 1, 2, 3, 500, 1000, 1502, 1503):
        assert _hook_counts(lam, ell) == (hooks.count(ell), sum(h > ell for h in hooks)), ell
    assert snow_witnesses(Box(2000, 2001), 1500, 1) == []
    assert snow_witnesses(Box(2000, 2001), 1500, 1501) == [((1,) * 1500, 0)]
    assert snow_witnesses(Box(1, 10**8), 3 * 10**6, 0) == [((3 * 10**6,), 3 * 10**6)]


def test_snow_witnesses_match_the_cell_by_cell_hooks():
    for n in range(2, 13):
        for k in range(1, n):
            box = Box(k, n)
            for p in range(k * (n - k) + 1):
                for ell in range(n + 1):
                    assert snow_witnesses(box, p, ell) == snow_by_cells(box, p, ell), (k, n, p, ell)


def test_snow_witnesses_golden():
    box = Box(3, 9)
    found = snow_witnesses(box, 12, 3)
    assert found == [((6, 4, 2), 6)]
    assert snow_witnesses(box, 0, 5) == [((), 0)]
    assert snow_witnesses(Box(2, 4), 0, 0) == [((), 0)]


def test_snow_witnesses_twist_extremes():
    box = Box(3, 7)
    for p in range(0, 13):
        # twist 0: every partition is a 0-core and every cell has hook > 0
        assert snow_witnesses(box, p, 0) == [
            (lam, p) for lam in box_partitions_of_size(3, 7, p)
        ]
        # twist beyond the maximal hook n-1: every partition is a core, j = 0
        assert snow_witnesses(box, p, 7) == [
            (lam, 0) for lam in box_partitions_of_size(3, 7, p)
        ]


def test_core_search_golden():
    assert core_search(Box(3, 6)) == [((3, 2, 1), 4)]
    assert core_search(Box(3, 9)) == [((6, 4, 2), 6)]
    assert core_search(Box(4, 8)) == [((4, 3, 2, 1), 6), ((4, 4, 2, 2), 4)]
    assert core_search(Box(3, 7)) == []
    with pytest.raises(InvalidInputError):
        core_search(Box(2, 6))
    with pytest.raises(InvalidInputError):
        core_search(Box(4, 7))


def test_core_search_agrees_with_beta_oracle():
    # independent oracle: the beta-set divisibility condition instead of hooks
    for k in range(3, 8):
        for n in range(2 * k, 15):
            box = Box(k, n)
            oracle = core_hits(k, n, lambda lam, ell: is_core_beta(lam, ell, box))
            assert core_search(box) == oracle, (k, n)


@st.composite
def core_boxes(draw):
    n = draw(st.integers(6, 24))
    return draw(st.integers(3, n // 2)), n


@settings(max_examples=25, deadline=None)
@given(core_boxes())
@example((12, 24))
def test_core_search_agrees_with_cell_scan(box):
    # the order of the list (i descending, lam lexicographically decreasing)
    # is part of the contract, so the lists are compared as they are
    k, n = box
    assert core_search(Box(k, n)) == core_hits(k, n, is_core)


def test_overhangs_carry_every_hook_length_below_them():
    # a shape check on the hook_lengths oracle that the hook-set, core and snow
    # tests read (core_search itself tracks no overhangs): the cells of row j
    # right of column lam_{j+1} have hook lengths 1..lam_j - lam_{j+1}, and
    # likewise for columns
    for n in range(2, 11):
        for k in range(1, n):
            for lam in schubert_basis(Box(k, n)):
                hooks = hook_lengths(lam)
                tr = transpose(lam)
                for lengths, cells in ((lam, lambda j, c: (j, c)), (tr, lambda b, r: (r, b))):
                    padded = lengths + (0,)
                    for j in range(1, len(lengths) + 1):
                        overhang = padded[j - 1] - padded[j]
                        found = {hooks[cells(j, c)] for c in range(padded[j] + 1, padded[j - 1] + 1)}
                        assert found == set(range(1, overhang + 1)), (k, n, lam, j)


def test_decided_rows_keep_their_hook_lengths():
    # the lemma core_search carries its hook set by: a cell's arm lies in its
    # row and its leg below it, so lam's bottom j rows have, cell for cell, the
    # hook lengths of the partition those rows make alone
    for n in range(2, 11):
        for k in range(1, n):
            for lam in schubert_basis(Box(k, n)):
                hooks = hook_lengths(lam)
                for j in range(len(lam) + 1):
                    above = len(lam) - j
                    alone = {(r + above, c): h for (r, c), h in hook_lengths(lam[above:]).items()}
                    assert alone == {cell: h for cell, h in hooks.items() if cell[0] > above}, (k, n, lam, j)


def test_a_core_is_a_partition_without_that_hook_length():
    # James-Kerber 2.7.40, by which core_search reads its hits: lam is an
    # ell-core iff no hook length is divisible by ell iff none equals ell,
    # against the cell scan and the beta-set test
    for n in range(2, 11):
        for k in range(1, n):
            box = Box(k, n)
            for lam in schubert_basis(box):
                lengths = set(hook_lengths(lam).values())
                for ell in range(1, n + 1):
                    core = all(h % ell for h in lengths)
                    assert core == (ell not in lengths) == is_core(lam, ell) == is_core_beta(lam, ell, box), (lam, ell)


def test_core_search_equals_the_unpruned_search():
    for n in range(6, 29):
        for k in range(3, n // 2 + 1):
            box = Box(k, n)
            assert core_search(box) == core_search_unpruned(box), (k, n)


def test_box_counts_are_the_gaussian_binomial():
    # the enumeration and the degree route of the t-binomial agree with the
    # series on every box with n <= 12, and each box with its narrow twin
    for n in range(2, 13):
        for k in range(1, n):
            counts = box_counts(k, n)
            assert counts == tuple(len(box_partitions_of_size(k, n, p)) for p in range(k * (n - k) + 1)), (k, n)
            assert counts == gaussian_binomial(n, k).coeffs, (k, n)
            assert counts == box_counts(n - k, n), (k, n)


def test_log10_box_count_keeps_its_digits_for_huge_n():
    # lgamma(n + 1) - lgamma(n - k + 1) cancels to 0 by n ~ 10^17, and a 0
    # admits the box to an exact C(n, k); on either side of the switch at
    # 2^40 the count stays within 0.01 of its exact logarithm
    for k in (1, 2, 50, 10000):
        for n in (2**40 - 1, 2**40, 10**20, 10**21, 10**30):
            assert abs(partitions.log10_box_count(k, n) - math.log10(math.comb(n, k))) < 0.01, (k, n)


def test_candidate_count_matches_enumeration():
    for k, n in [(3, 6), (3, 9), (4, 8), (5, 13), (12, 24)]:
        enumerated = sum(
            len(box_partitions_of_size(k, n, p)) for p in range(k * (n - k) - (n - 1), k * (n - k) + 1)
        )
        assert _count_small_partitions(k, n - k, n - 1) == enumerated, (k, n)


def test_candidate_count_matches_the_table_count():
    # the truncated Gaussian binomial against the O(k budget^2) table, on every
    # small shape, where both are exact
    for k in range(1, 7):
        for cols in range(1, 11):
            for budget in range(26):
                assert _count_small_partitions(k, cols, budget) == count_small_partitions_table(k, cols, budget)


def test_core_search_refuses_oversized_boxes():
    assert _count_small_partitions(12, 12, 23) <= MAX_CORE_CANDIDATES
    count = _count_small_partitions(50, 50, 99)
    assert count > MAX_CORE_CANDIDATES
    with pytest.raises(InvalidInputError, match=str(count)):
        core_search(Box(50, 100))
    # past a few hundred cells the series is cut, and the count there, a
    # lower bound, is already over the bound: the same for n = 600 and 10^8
    count = _count_small_partitions(3, 10**8 - 3, 10**8 - 1)
    assert count == _count_small_partitions(3, 597, 599) > MAX_CORE_CANDIDATES
    assert count <= count_small_partitions_table(3, 597, 599)
    with pytest.raises(InvalidInputError, match=str(count)):
        core_search(Box(3, 10**8))


def test_snow_refuses_more_partitions_of_p_than_the_bound(monkeypatch):
    # the enumeration stops at the bound, so 10^7 cells in 10^8 columns cost
    # no more than a small box
    with pytest.raises(InvalidInputError, match=f"over {MAX_SNOW_PARTITIONS} partitions"):
        snow_witnesses(Box(3, 10**8), 10**7, 1)
    # exactly at the bound the box is admitted, one under it is refused
    count = len(box_partitions_of_size(3, 9, 12))
    monkeypatch.setattr(partitions, "MAX_SNOW_PARTITIONS", count)
    assert snow_witnesses(Box(3, 9), 12, 3) == [((6, 4, 2), 6)]
    monkeypatch.setattr(partitions, "MAX_SNOW_PARTITIONS", count - 1)
    with pytest.raises(InvalidInputError, match=f"over {count - 1} partitions"):
        snow_witnesses(Box(3, 9), 12, 3)


def test_snow_refuses_more_parts_than_the_bound(monkeypatch):
    # the first partition, (1^(10^8)), alone is over the bound: refused before it is built
    with pytest.raises(InvalidInputError, match=f"at least {10**8} parts, over {MAX_SNOW_PARTS}"):
        snow_witnesses(Box(10**9, 10**9 + 1), 10**8, 1)
    # 30,001 partitions of 60,000 into parts of at most 2, of 1.35e9 parts in all
    with pytest.raises(InvalidInputError, match=f"over {MAX_SNOW_PARTS} parts"):
        snow_witnesses(Box(10**9, 10**9 + 2), 60000, 1)
    # exactly at the bound the box is admitted, one under it is refused
    parts = sum(map(len, box_partitions_of_size(3, 9, 12)))
    monkeypatch.setattr(partitions, "MAX_SNOW_PARTS", parts)
    assert snow_witnesses(Box(3, 9), 12, 3) == [((6, 4, 2), 6)]
    monkeypatch.setattr(partitions, "MAX_SNOW_PARTS", parts - 1)
    with pytest.raises(InvalidInputError, match=f"over {parts - 1} parts"):
        snow_witnesses(Box(3, 9), 12, 3)
    monkeypatch.setattr(partitions, "MAX_SNOW_PARTS", 1)
    with pytest.raises(InvalidInputError, match="at least 2 parts, over 1"):
        snow_witnesses(Box(3, 9), 12, 3)
