"""Every InternalConsistencyError raised in src/ means something: it is
either fired by a named fault test or marked in the source as an identity.

The raise sites are found by ast.  A fired site is named by a fragment of
the literal text of its message, which must pick out that one site, and by
the test that fires it, whose source must quote the fragment (regex
escapes aside).  An identity is marked by a comment block directly above
the `if` that guards it, starting "# identity: <reason>"."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qhgrass"
TESTS = Path(__file__).resolve().parent

FIRED = {
    "Weyl dimension of beta set": "test_hodge.py::test_a_fractional_weyl_dimension_is_an_internal_failure",
    "beta sets do not match": "test_hodge.py::test_a_beta_set_tally_off_the_counts_is_an_internal_failure",
    "do not sum to C(n, k)": "test_hodge.py::test_ambient_counts_off_c_n_k_are_an_internal_failure",
    "breaks Serre symmetry": "test_hodge.py::test_a_section_genus_off_serre_symmetry_is_an_internal_failure",
    "sign conventions are broken": "test_hodge.py::test_a_chi_y_whose_constant_term_is_not_1_is_an_internal_failure",
    "negative Hodge number": "test_hodge.py::test_a_negative_middle_hodge_number_exits_1",
    "A-D-E": "test_hodge.py::test_ade_check_catches_a_lost_middle_row",
    "outside the blocks its grading allows": "test_quantum.py::test_a_gram_entry_outside_its_residue_block_exits_1",
    "Bareiss division not exact": "test_exactalg.py::test_bareiss_over_the_integers_checks_every_division",
    "is not monic": "test_exactalg.py::test_charpoly_refuses_values_that_break_its_certificates",
    "coefficient is not -trace": "test_exactalg.py::test_charpoly_refuses_values_that_break_its_certificates",
    "does not preserve the requested piece": "test_quantum.py::test_a_leak_from_the_piece_in_qh_charpoly_exits_1",
    "does not raise degree by": "test_quantum.py::test_the_grading_certificate_refuses_a_corrupted_operator",
    "does not determine": "test_section.py::test_operator_solve_refuses_underdetermined_and_inconsistent_equations",
    "do not commute": "test_section.py::test_noncommuting_e_operators_are_refused_when_the_ring_is_built",
    "positive roots, expected": "test_rootdata.py::test_a_wrong_positive_root_count_exits_1",
    "does not divide the bracket product":
        "test_rootdata.py::test_a_bracket_division_with_a_remainder_is_an_internal_failure",
    "Poincare polynomial degree mismatch":
        "test_rootdata.py::test_a_poincare_polynomial_of_the_wrong_degree_is_an_internal_failure",
    "is not palindromic": "test_rootdata.py::test_a_poincare_polynomial_that_is_not_palindromic_is_an_internal_failure",
    "section Poincare pairing is degenerate": "test_section.py::test_a_degenerate_section_pairing_exits_1",
    "section ring dimension": "test_section.py::test_ring_dimension_is_checked_against_the_diamond",
    "is not self-adjoint": "test_section.py::test_a_non_self_adjoint_e1_exits_1",
    "degenerate on ker e_1": "test_section.py::test_a_pairing_degenerate_on_ker_e1_exits_1",
    "is not a lead of the radical": "test_section.py::test_beta_off_the_radical_leads_exits_1",
    "every basis class's operator": "test_quantum.py::test_trace_vector_and_gram_of_a_section_ring",
}

IDENTITIES = {"Hodge symmetry failed on the middle row", "diamond disagrees with the Euler number"}


def _literal(node) -> str:
    """The literal text of a message, with each formatted field as {}."""
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)


def _comment_above(lines: list[str], lineno: int) -> str:
    """The comment block directly above line lineno (1-based), joined."""
    block, i = [], lineno - 2
    while i >= 0 and lines[i].strip().startswith("#"):
        block.insert(0, lines[i].strip())
        i -= 1
    return " ".join(block)


def raise_sites() -> list[tuple[str, int, str, bool]]:
    """(file, line, message, marked as an identity) of every raise."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        guard = {}
        # ast.walk goes from the outside in, so the innermost if is kept
        for node in ast.walk(tree):
            if isinstance(node, ast.If):
                guard.update((child, node) for child in ast.walk(node))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "InternalConsistencyError":
                above = _comment_above(lines, guard[node].lineno) if node in guard else ""
                marked = above.startswith("# identity:") and len(above) > len("# identity:") + 10
                sites.append((path.name, node.lineno, _literal(exc.args[0]), marked))
    return sites


def _test_source(test_id: str) -> str:
    file, name = test_id.split("::")
    source = (TESTS / file).read_text()
    funcs = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(funcs) == 1, f"no test {test_id}"
    return ast.get_source_segment(source, funcs[0])


def test_every_consistency_check_is_fired_by_a_named_test_or_marked_an_identity():
    sites = raise_sites()
    assert len(sites) == 27
    identities = {message for _, _, message, marked in sites if marked}
    assert identities == IDENTITIES
    fired = [(file, line, message) for file, line, message, marked in sites if not marked]
    for fragment, test_id in FIRED.items():
        hits = [site for site in fired if fragment in site[2]]
        assert len(hits) == 1, (fragment, hits)
        assert fragment in _test_source(test_id).replace("\\", ""), (fragment, test_id)
    unnamed = [site for site in fired if not any(fragment in site[2] for fragment in FIRED)]
    assert not unnamed


def test_the_graded_block_check_is_fired():
    # the check that every Gram and pairing entry lies in its graded block
    # is one site, not an identity, so the test above names its fault test
    (site,) = [site for site in raise_sites() if "outside the blocks" in site[2]]
    assert site[0] == "linalg.py" and not site[3]
    assert "outside the blocks its grading allows" in FIRED
