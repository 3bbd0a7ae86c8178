"""The benchmark's three workloads: CLI operations and the check of each output.

An operation is one `qhgrass` command line, run in-process with
`--format json`.  Its check receives the parsed JSON document and a Context,
and raises CheckError when the document is wrong.  Checks compare against
values from `oracles` (computed apart from the program), against properties
the mathematics forces, or against the stored copies in `reference.json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import oracles

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Op:
    """One CLI command.  `expect_exit` is 0 for a command that must succeed;
    the fault probe expects 2 and its output is not checked."""

    argv: tuple[str, ...]
    command: str = ""
    inputs: dict = field(default_factory=dict)
    check: Callable[[dict, "Context"], None] | None = None
    expect_exit: int = 0


class Context:
    """What a check may consult besides its own document: reference commands,
    run outside the timed region and remembered for the rest of the run."""

    def __init__(self, run_command: Callable[[tuple], tuple[int | None, str, str]]):
        self._run_command = run_command
        self._references: dict[tuple, dict] = {}

    def reference(self, argv: tuple[str, ...]) -> dict:
        if argv not in self._references:
            code, out, err = self._run_command(argv)
            expect(code == 0, f"reference command {' '.join(argv)} exited {code}: {err.strip()}")
            self._references[argv] = json.loads(out)
        return self._references[argv]


def find_float(value, path="$"):
    """Path of the first float in a parsed JSON value, or None."""
    if isinstance(value, float):
        return path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        hit = find_float(item, f"{path}[{key!r}]")
        if hit:
            return hit
    return None


def check_document(op: Op, doc: dict, ctx: Context) -> None:
    """Checks common to every document, then the operation's own check."""
    bad = find_float(doc)
    expect(bad is None, f"float in the document at {bad}")
    expect(doc.get("schema_version") == "1", "schema_version is not '1'")
    expect(doc.get("command") == op.command, f"command is {doc.get('command')!r}")
    expect(doc.get("inputs") == op.inputs, f"inputs are {doc.get('inputs')!r}")
    op.check(doc["results"], ctx)


def _int_list(value, what: str) -> list[int]:
    expect(
        isinstance(value, list) and all(type(c) is int for c in value),
        f"{what} is not a list of integers",
    )
    return value


def _exact_keys(results: dict, keys: set[str]) -> None:
    expect(set(results) == keys, f"result keys {sorted(results)} != {sorted(keys)}")


# -- section-qh ------------------------------------------------------------------


def _section_betti(n: int) -> list[int]:
    return oracles.section_betti(3, n, oracles.SECTION_PRIMITIVE[n])


def _residue_zero_dim(betti, index: int) -> int:
    return sum(b for j, b in enumerate(betti) if j % index == 0)


def _check_section_semisimple(n: int):
    betti = _section_betti(n)
    ring_dim = sum(betti)
    if n == 6:
        tb = oracles.periodic_betti(betti, n - 1)
        expected = {
            "semisimple": False,
            "method": "betti-screen",
            "detail": f"tilde_b(1)={tb[1]} != tilde_b(-1)={tb[-1]}",
        }
    elif n == 7:
        expected = {
            "semisimple": True,
            "method": "trace-form",
            "detail": f"nondegenerate trace form on the {ring_dim}-dimensional ring",
        }
    else:
        # A^0(X) = A^0_perp(Y) generates a subalgebra of dimension r_Y |A^0(X)|
        perp = (n - 1) * (comb(n, 3) // n)
        expected = {
            "semisimple": True,
            "method": "trace-form+monodromy",
            "detail": f"nondegenerate trace form on the {perp}-dimensional perp subalgebra; "
            f"{ring_dim - perp}-dimensional radical semisimple by the external monodromy argument",
        }

    def check(results, ctx):
        if n == 6:
            expect(oracles.screen_violations(betti, n - 1), "the Betti screen finds no witness")
        expect(results == expected, f"{results} != {expected}")

    return check


def _check_holds(results, ctx):
    expect(results == {"holds": True}, f"{results} != {{'holds': True}}")


def _check_ambient_charpoly(k: int, n: int, power: int, with_e2: bool):
    def check(results, ctx):
        _exact_keys(results, {"charpoly"})
        poly = _int_list(results["charpoly"], "charpoly")
        expect(poly and poly[-1] == 1, "charpoly is not monic")
        piece = _residue_zero_dim(oracles.gaussian_binomial(n, k), n)
        expect(len(poly) - 1 == piece, f"charpoly degree {len(poly) - 1} != |A^0(X)| = {piece}")
        # sigma_1 is invertible and carries each graded piece onto the next, so
        # the whole ring's charpoly is the n-th power of the piece's
        full = oracles.ambient_charpoly_power(k, n, power, int(with_e2))
        expect(tuple(oracles.poly_pow(poly, n)) == full, "charpoly^n differs from the eigenvalue product")

    return check


def _ambient_charpoly_op(k: int, n: int, power: int, with_e2: bool) -> Op:
    argv = ("qh", "charpoly", "--k", str(k), "--n", str(n), "--power", str(power))
    return Op(
        argv + (("--with-e2",) if with_e2 else ()),
        "qh charpoly",
        {"k": k, "n": n, "section": False, "power": power, "with_e2": with_e2},
        _check_ambient_charpoly(k, n, power, with_e2),
    )


def _check_section_charpoly(n: int, power: int, with_e2: bool):
    betti = _section_betti(n)
    piece_y = _residue_zero_dim(betti, n - 1)
    ambient_op = _ambient_charpoly_op(3, n, power + 1, with_e2)

    def check(results, ctx):
        _exact_keys(results, {"charpoly"})
        poly = _int_list(results["charpoly"], "charpoly")
        expect(poly and poly[-1] == 1, "charpoly is not monic")
        expect(len(poly) - 1 == piece_y, f"charpoly degree {len(poly) - 1} != |A^0(Y)| = {piece_y}")
        # A^0(X) = A^0_perp(Y): e_1^(r_X) on X matches e_1^(r_Y) on Y, and the
        # radical of A^0(Y) contributes the factor x^(|A^0(Y)| - |A^0(X)|)
        ambient_doc = ctx.reference(ambient_op.argv + ("--format", "json"))
        check_document(ambient_op, ambient_doc, ctx)
        ambient = ambient_doc["results"]["charpoly"]
        expected = [0] * (piece_y - (len(ambient) - 1)) + ambient
        expect(poly == expected, f"charpoly {poly} != x^a * ambient charpoly {ambient}")

    return check


def section_qh(seed: int) -> list[Op]:
    ops = [
        Op(
            ("qh", "semisimple", "--section", "--k", "3", "--n", str(n)),
            "qh semisimple",
            {"k": 3, "n": n, "section": True},
            _check_section_semisimple(n),
        )
        for n in (6, 7, 8)
    ]
    ops += [
        Op(("qh", "lefschetz", "--n", str(n)), "qh lefschetz", {"n": n}, _check_holds)
        for n in (7, 8)
    ]
    for n, power, with_e2 in ((7, 6, False), (8, 5, True)):
        argv = ("qh", "charpoly", "--section", "--k", "3", "--n", str(n), "--power", str(power))
        ops.append(
            Op(
                argv + (("--with-e2",) if with_e2 else ()),
                "qh charpoly",
                {"k": 3, "n": n, "section": True, "power": power, "with_e2": with_e2},
                _check_section_charpoly(n, power, with_e2),
            )
        )
    return ops


# -- ambient ---------------------------------------------------------------------

AMBIENT_BOXES = [(k, n) for k in range(1, 5) for n in range(k + 1, 9)]
EXCEPTIONAL_TYPES = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
CORE_SWEEP = [(k, n) for n in range(6, 25) for k in range(3, n // 2 + 1)]
# the criterion-3 statement: the only boxes with a large core
CORE_NONEMPTY = {(3, 6), (4, 8), (3, 9)}


def _check_ambient_semisimple(results, ctx):
    expected = {"semisimple": True, "method": "trace-form", "detail": ""}
    expect(results == expected, f"{results} != {expected} (Abrams: QH(Gr(k,n)) is semisimple)")


def _check_grassmannian_betti(k: int, n: int):
    expected = {
        "label": f"A{n - 1}/P{k}",
        "dim": k * (n - k),
        "index": n,
        "even_betti": list(oracles.gaussian_binomial(n, k)),
    }

    def check(results, ctx):
        expect(results == expected, f"{results} != {expected}")

    return check


def _exceptional_betti(family: str, rank: int, node: int) -> dict:
    betti = oracles.exceptional_poincare(family, rank, node)
    return {
        "label": f"{family}{rank}/P{node}",
        "dim": len(betti) - 1,
        "index": REFERENCE["fano_index"][f"{family}{rank}"][node - 1],
        "even_betti": betti,
    }


def _check_exceptional_betti(family: str, rank: int, node: int):
    expected = _exceptional_betti(family, rank, node)

    def check(results, ctx):
        betti = _int_list(results.get("even_betti"), "even_betti")
        expect(betti == betti[::-1], "Poincare polynomial is not palindromic")
        expect(len(betti) - 1 == results.get("dim"), "Poincare polynomial degree != dim")
        expect(results == expected, f"{results} != {expected}")

    return check


def _check_exceptional_screen(family: str, rank: int, node: int):
    label = f"{family}{rank}/P{node}"
    betti_doc = _exceptional_betti(family, rank, node)
    hits = oracles.screen_violations(betti_doc["even_betti"], betti_doc["index"])
    expected = {
        "label": label,
        "index": betti_doc["index"],
        "even_betti": betti_doc["even_betti"],
        "outcome": "Witness" if hits else "NoObstruction",
    }
    if hits:
        expected["witness"] = dict(zip(("i", "d", "lhs", "rhs"), hits[0]))
    in_table = any(row[0] == label for row in REFERENCE["exceptional_table"])
    silent = label in REFERENCE["exceptional_silent"]

    def check(results, ctx):
        expect(results == expected, f"{results} != {expected}")
        expect(not in_table or hits, f"{label} is in the witness table but has no witness")
        expect(not silent or not hits, f"{label} should give NoObstruction")

    return check


def _check_exceptional_table(results, ctx):
    _exact_keys(results, {"rows"})
    rows = results["rows"]
    expect(isinstance(rows, list) and len(rows) == len(REFERENCE["exceptional_table"]), "row count")
    for row, (label, residue) in zip(rows, REFERENCE["exceptional_table"]):
        family, rank, node = label[0], int(label[1]), int(label.split("P")[1])
        betti = _exceptional_betti(family, rank, node)
        tb = oracles.periodic_betti(betti["even_betti"], betti["index"])
        expected = {
            "label": label,
            "dim": betti["dim"],
            "index": betti["index"],
            "i": residue,
            "tilde_b": tb[residue % betti["index"]],
            "tilde_b_neg": tb[-residue % betti["index"]],
            "verdict": "Witness",
        }
        expect(row == expected, f"{row} != {expected}")
        expect(row["tilde_b"] != row["tilde_b_neg"], f"{label}: tilde_b(i) = tilde_b(-i)")


def _check_core_search(k: int, n: int):
    expected = []
    if (k, n) in CORE_NONEMPTY:
        expected = [{"partition": list(lam), "i": i} for lam, i in oracles.core_hits(k, n)]

    def check(results, ctx):
        _exact_keys(results, {"witnesses"})
        for hit in results["witnesses"]:
            lam, i = tuple(hit["partition"]), hit["i"]
            expect(len(lam) <= k and (not lam or lam[0] <= n - k), f"{lam} outside the box")
            expect(sum(lam) >= k * (n - k) - i, f"{lam} is smaller than k(n-k) - {i}")
            expect(oracles.is_core(lam, n - i, k), f"{lam} is not an {n - i}-core")
        expect(results["witnesses"] == expected, f"{results['witnesses']} != {expected}")

    return check


def ambient(seed: int) -> list[Op]:
    ops = []
    for k, n in AMBIENT_BOXES:
        ops.append(
            Op(
                ("qh", "semisimple", "--k", str(k), "--n", str(n)),
                "qh semisimple",
                {"k": k, "n": n, "section": False},
                _check_ambient_semisimple,
            )
        )
        ops.append(
            Op(("qh", "presentation", "--k", str(k), "--n", str(n)), "qh presentation", {"k": k, "n": n}, _check_holds)
        )
        ops.append(
            Op(
                ("betti", "--type", f"A{n - 1}", "--node", str(k)),
                "betti",
                {"type": f"A{n - 1}", "node": k},
                _check_grassmannian_betti(k, n),
            )
        )
    ops.append(_ambient_charpoly_op(3, 7, 7, False))
    ops.append(_ambient_charpoly_op(3, 8, 6, True))
    ops.append(Op(("exceptional-table",), "exceptional-table", {}, _check_exceptional_table))
    for family, rank in EXCEPTIONAL_TYPES:
        for node in range(1, rank + 1):
            kind = f"{family}{rank}"
            ops.append(
                Op(
                    ("betti", "--type", kind, "--node", str(node)),
                    "betti",
                    {"type": kind, "node": node},
                    _check_exceptional_betti(family, rank, node),
                )
            )
            ops.append(
                Op(
                    ("screen", "--type", kind, "--node", str(node)),
                    "screen",
                    {"section": False, "type": kind, "node": node},
                    _check_exceptional_screen(family, rank, node),
                )
            )
    for k, n in CORE_SWEEP:
        ops.append(
            Op(("core-search", "--k", str(k), "--n", str(n)), "core-search", {"k": k, "n": n}, _check_core_search(k, n))
        )
    # fault probe: a negative power must be refused with exit 2
    ops.append(Op(("qh", "charpoly", "--k", "3", "--n", "7", "--power", "-1"), expect_exit=2))
    return ops


# -- localization ----------------------------------------------------------------

SECTIONS = [(3, 8), (3, 9), (4, 8), (2, 10)]


def _check_section_hodge(k: int, n: int):
    d = k * (n - k) - 1
    counts = oracles.gaussian_binomial(n, k)
    stored = REFERENCE["section_hodge"][f"{k},{n}"]

    def check(results, ctx):
        _exact_keys(results, {"chi_y", "diamond_column", "middle_off_diagonal", "hodge_tate"})
        chi = _int_list(results["chi_y"], "chi_y")
        column = _int_list(results["diamond_column"], "diamond_column")
        expect(len(chi) == d + 1 and len(column) == d + 1, "chi_y or column has the wrong length")
        expect(chi[0] == 1, "chi_y(0) != 1")
        expect(all(chi[p] == (-1) ** d * chi[d - p] for p in range(d + 1)), "chi_y breaks Serre symmetry")
        for p in range(d + 1):
            if 2 * p != d:
                expect(column[p] == counts[min(p, d - p)], f"h^({p},{p}) != box count")
            else:
                expect(column[p] >= counts[p], f"middle h^({p},{p}) below the ambient count")
        entries = {}
        for entry in results["middle_off_diagonal"]:
            p, q, h = entry["p"], entry["q"], entry["h"]
            expect(set(entry) == {"p", "q", "h"} and type(h) is int, f"bad entry {entry}")
            expect(p + q == d and p != q and h > 0, f"bad middle entry {entry}")
            entries[(p, q)] = h
        expect(all(entries.get((q, p)) == h for (p, q), h in entries.items()), "Hodge symmetry fails")
        for p in range(d + 1):
            total = (-1) ** p * column[p] + sum((-1) ** q * h for (pp, q), h in entries.items() if pp == p)
            expect(chi[p] == total, f"chi_p != sum_q (-1)^q h^(p,q) at p={p}")
        expect(results["hodge_tate"] == oracles.is_ade(k, n), "Hodge-Tate verdict differs from the A-D-E test")
        expect(results["hodge_tate"] == (not entries), "hodge_tate disagrees with the diamond")
        expect(results == stored, "result differs from the stored copy (seed dependence)")

    return check


def _check_ambient_hodge(k: int, n: int):
    expected = {"chi_y": [(-1) ** p * c for p, c in enumerate(oracles.gaussian_binomial(n, k))]}

    def check(results, ctx):
        expect(results == expected, f"{results} != signed box counts {expected}")

    return check


def _check_section_screen(k: int, n: int):
    betti = oracles.section_betti(k, n, oracles.SECTION_PRIMITIVE[n])
    hits = oracles.screen_violations(betti, n - 1)
    expected = {
        "label": f"section of Gr({k},{n})",
        "index": n - 1,
        "even_betti": betti,
        "outcome": "Witness" if hits else "NoObstruction",
    }
    if hits:
        expected["witness"] = dict(zip(("i", "d", "lhs", "rhs"), hits[0]))

    def check(results, ctx):
        expect(results == expected, f"{results} != {expected}")

    return check


def localization(seed: int) -> list[Op]:
    ops = [
        Op(
            ("hodge", "--section", "--k", str(k), "--n", str(n), "--seed", str(seed)),
            "hodge",
            {"k": k, "n": n, "section": True, "seed": seed},
            _check_section_hodge(k, n),
        )
        for k, n in SECTIONS
    ]
    ops.append(
        Op(
            ("hodge", "--k", "3", "--n", "9", "--seed", str(seed)),
            "hodge",
            {"k": 3, "n": 9, "section": False, "seed": seed},
            _check_ambient_hodge(3, 9),
        )
    )
    ops.append(
        Op(
            ("screen", "--section", "--k", "3", "--n", "8", "--seed", str(seed)),
            "screen",
            {"section": True, "k": 3, "n": 8, "seed": seed},
            _check_section_screen(3, 8),
        )
    )
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "section-qh": section_qh,
    "ambient": ambient,
    "localization": localization,
}
