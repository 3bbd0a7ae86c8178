"""Command-line front end: every analysis as a subcommand.

Each run builds one OutputDocument (a plain JSON-serializable dict with exact
rationals rendered as "numerator/denominator" strings); --format json writes
it, every integer in full, with the bytes json.dumps(doc, indent=2) gives,
through the small writer _json, which escapes strings with module _json's C
encode_basestring_ascii, as json.dumps does; --format table renders it through
a pure function of the document, so the two modes always agree.

Every decision arrives as a screen.Verdict, put into its document here
alone: a screen's outcome is Witness exactly when holds is False, and
_detail words a semisimplicity verdict's certificate.

One table, COMMANDS, names every command's help, arguments, handler and table
renderer.  A run reads a well-formed command line straight from that table,
with no argparse parser, since building one costs more than most commands
compute.  argparse is imported only inside build_parser and the json package
nowhere, so such a line loads neither.  Well formed means the command's words,
then only exact `--flag value` and `--flag` tokens of that command (and
--format), each at most once, every required flag given, each value converted
by the flag's type and within its choices, and a value starting with "-" only
when it is a negative number.  Any other argv (-h, an abbreviation,
--flag=value, a repeated flag, a bad value, a missing flag, a leftover token,
an unknown command) goes to the whole tree (build_parser), which owns all
help, usage and error text.  Handlers are looked up by name at each parse, so
a patched module-level `_cmd_*` function is the one that runs.

Exit codes: 0 success, 2 invalid input or usage, 1 internal consistency
failure (which is always a bug, never bad user input), and 141 (128 + SIGPIPE,
as for any program killed by it) when the reader closes the pipe early.
"""

from __future__ import annotations

import math
import os
import re
import sys
from _json import encode_basestring_ascii
from fractions import Fraction
from types import SimpleNamespace

from . import hodge, quantum, screen, section
from .errors import InternalConsistencyError, InvalidInputError
from .partitions import Box, bounded_box_count, core_search, size, snow_witnesses
from .rootdata import GrassmannianId, dimension, fano_index, parse_type, poincare_polynomial

SCHEMA_VERSION = "1"

# a charpoly whose coefficients may have more digits is refused before any power
# is taken; the bound is about four times the true size on Gr(2, 4)
MAX_CHARPOLY_DIGITS = 20_000
# and so is one whose work, piece dimension^3 x digits, is larger: Gr(5, 10)
# takes 0.09-0.14 s of CPU at power 100 (3.2e7) and 0.14-0.18 s at power 150
# (4.8e7, the largest admitted), most of it the charpoly, and the time grows
# faster than the work (power 400, 1.3e8 and refused: 1.3 s)
MAX_CHARPOLY_WORK = 5 * 10**7
# ambient qh commands are refused over this many Schubert classes d = C(n, k).
# The bound is on d itself: no command builds a d x d matrix or pays d^3.
# qh charpoly steps the s classes of the residue-0 piece through sparse
# products with E_1 (and E_2) and multiplies only s x s matrices (Gr(5, 10),
# d = 252, s = 26, at power 10: 0.016 s); qh semisimple takes the trace
# vector by one reverse pass over the label plan and the Gram rows by one thin
# label recursion, and takes the Gram determinant on the residue blocks rho
# against -rho, the largest 26 x 26, each mirrored pair once (0.032 s).  Times
# are CPU of cli.run, caches cleared, best of 7, on an Intel Xeon (2 vCPUs)
# with Python 3.11.7.
MAX_AMBIENT_DIM = 300
SEED_HELP = "accepted and echoed; has no effect"


def _rat(value) -> int | str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return int(value)


def _poly(coeffs: tuple) -> list:
    return [_rat(c) for c in coeffs]


def _document(command: str, inputs: dict, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


# -- subcommand handlers ------------------------------------------------------


def _cmd_betti(args) -> dict:
    g = GrassmannianId(parse_type(args.type), args.node)
    poly = poincare_polynomial(g)
    return _document(
        "betti",
        {"type": str(g.type), "node": args.node},
        {
            "label": str(g),
            "dim": dimension(g),
            "index": fano_index(g),
            "even_betti": _poly(poly),
        },
    )


def _verdict_payload(profile: screen.BettiProfile) -> dict:
    verdict = screen.screen(profile)
    payload = {
        "label": profile.label,
        "index": profile.index,
        "even_betti": list(profile.even_betti),
        "outcome": screen.WITNESS if verdict.holds is False else screen.NO_OBSTRUCTION,
    }
    if verdict.certificate:
        payload["witness"] = dict(zip(("i", "d", "lhs", "rhs"), verdict.certificate))
    return payload


def _detail(verdict: screen.Verdict, r: int) -> str:
    """The detail line of a semisimplicity verdict, worded from its
    certificate; r is the degree of q, which places a screen witness's d*i.
    The ambient trace form has no certificate and an empty detail."""
    cert = verdict.certificate
    if verdict.method == "betti-screen" and len(cert) == 3:
        i, pos, neg = cert
        return f"tilde_b({i})={pos} != tilde_b(-{i})={neg}"
    if verdict.method == "betti-screen":
        i, d, lhs, rhs = cert
        return f"tilde_b({i})={lhs} > tilde_b({d * i % r})={rhs}"
    if cert is None:
        return ""
    if verdict.method == "trace-form":
        if verdict.holds is False:
            return "degenerate trace form"
        return f"nondegenerate trace form on the {cert[0]}-dimensional ring"
    if verdict.holds is False:
        return "degenerate trace form on the perp subalgebra"
    sub_dim, rad_dim = cert
    return (f"nondegenerate trace form on the {sub_dim}-dimensional perp subalgebra; "
            f"{rad_dim}-dimensional radical semisimple by the external monodromy argument")


def _cmd_screen(args) -> dict:
    section, ambient = (args.k, args.n), (args.type, args.node)
    if args.section and (None in section or ambient != (None, None)):
        raise InvalidInputError("screen --section requires --k and --n, and takes no --type or --node")
    if not args.section and (None in ambient or section != (None, None) or args.seed is not None):
        raise InvalidInputError("screen requires --type and --node (or --section), and takes no --k, --n or --seed")
    if args.section:
        profile = hodge.section_profile(args.k, args.n)
        seed = hodge.DEFAULT_SEED if args.seed is None else args.seed
        inputs = {"section": True, "k": args.k, "n": args.n, "seed": seed}
    else:
        g = GrassmannianId(parse_type(args.type), args.node)
        profile = screen.profile_of(g)
        inputs = {"section": False, "type": str(g.type), "node": args.node}
    return _document("screen", inputs, _verdict_payload(profile))


def _cmd_exceptional_table(args) -> dict:
    rows = [
        {
            "label": row.label,
            "dim": row.dim,
            "index": row.index,
            "i": row.residue,
            "tilde_b": row.tilde_b,
            "tilde_b_neg": row.tilde_b_neg,
            "verdict": row.verdict,
        }
        for row in screen.exceptional_table()
    ]
    return _document("exceptional-table", {}, {"rows": rows})


def _cmd_core_search(args) -> dict:
    found = core_search(Box(args.k, args.n))
    return _document(
        "core-search",
        {"k": args.k, "n": args.n},
        {"witnesses": [{"partition": list(lam), "i": i} for lam, i in found]},
    )


def _cmd_snow(args) -> dict:
    found = snow_witnesses(Box(args.k, args.n), args.p, args.twist)
    return _document(
        "snow",
        {"k": args.k, "n": args.n, "p": args.p, "twist": args.twist},
        {"witnesses": [{"partition": list(lam), "j": j} for lam, j in found]},
    )


def _cmd_hodge(args) -> dict:
    inputs = {"k": args.k, "n": args.n, "section": args.section, "seed": args.seed}
    if not args.section:
        genus = hodge.chi_y(args.k, args.n)
        return _document("hodge", inputs, {"chi_y": _poly(genus)})
    dia = hodge.diamond(args.k, args.n)
    results = {
        "chi_y": _poly(dia.genus),
        "diamond_column": list(dia.column),
        "middle_off_diagonal": [{"p": p, "q": q, "h": v} for p, q, v in dia.middle_off_diagonal()],
        "hodge_tate": dia.is_hodge_tate(),
    }
    return _document("hodge", inputs, results)


def _ambient_box(args) -> Box:
    """The box of Gr(k, n), refused before any work when it has too many classes."""
    box = Box(args.k, args.n)
    bounded_box_count(box.k, box.n, MAX_AMBIENT_DIM, f"Gr({box.k},{box.n}) has {{}} Schubert classes")
    return box


def _log_norm(op) -> float:
    """log10 of the largest absolute row sum, which bounds every eigenvalue."""
    return math.log10(max(1, max(sum(abs(x) for x in row.values()) for row in op)))


def _cmd_qh_charpoly(args) -> dict:
    inputs = {
        "k": args.k,
        "n": args.n,
        "section": args.section,
        "power": args.power,
        "with_e2": args.with_e2,
    }
    # the box and the degree are refused before anything is built
    if args.section:
        # Gr(k, n) = Gr(n - k, n) fixes e_1 and sends e_2 to sigma_2: e_1 alone reads the twin
        k = args.n - args.k if (args.n - args.k, args.n) in section.SUPPORTED and not args.with_e2 else args.k
        r = section.q_degree(k, args.n)
    else:
        box = _ambient_box(args)
        k, r = box.k, box.n
    if args.with_e2 and k < 2:
        raise InvalidInputError(f"Pieri index p=2 outside [1, {k}]")
    # the operator raises degrees by power (+ 2 for e_2); only a multiple of the
    # degree of q keeps the residue-0 piece
    if (degree := args.power + 2 * args.with_e2) % r:
        raise InvalidInputError(f"the operator has degree {degree}, not a multiple of {r} = deg q")
    if args.power < 0:
        raise InvalidInputError(f"matrix power needs a nonnegative exponent, got {args.power}")
    if args.section:
        ring = section.build_ring(k, args.n)
        piece, e_ops = ring.pieces[0], ring.e_ops
    else:
        # the refusals and the charpoly read only e_1 (and e_2) and the
        # residue-0 piece, here as Schubert-basis coordinates, so the rest of
        # Gr(k, n) is never built
        piece = quantum.residue_pieces(map(size, quantum.schubert_basis(box)), r)[0]
        e_ops = {p: quantum.pieri_matrix(box, p) for p in range(1, min(k, 1 + args.with_e2) + 1)}
    # coefficient j is at most C(dim, j) times the j-th power of the eigenvalue bound
    eigenvalue = args.power * _log_norm(e_ops[1]) + (_log_norm(e_ops[2]) if args.with_e2 else 0)
    if (digits := int(len(piece) * (eigenvalue + math.log10(2))) + 1) > MAX_CHARPOLY_DIGITS:
        raise InvalidInputError(f"charpoly coefficients of up to {digits} digits, over {MAX_CHARPOLY_DIGITS}")
    if (work := len(piece) ** 3 * digits) > MAX_CHARPOLY_WORK:
        raise InvalidInputError(
            f"charpoly work of about {work:.1e} (piece dim^3 x digits), over {MAX_CHARPOLY_WORK:.0e}")
    if args.section:
        poly = section.section_charpoly(ring, args.power, args.with_e2)
    else:
        poly = quantum.e_power_charpoly(e_ops, piece, r, args.power, args.with_e2)
    return _document("qh charpoly", inputs, {"charpoly": _poly(poly)})


def _cmd_qh_presentation(args) -> dict:
    ok = quantum.presentation_check(_ambient_box(args))
    return _document(
        "qh presentation", {"k": args.k, "n": args.n}, {"holds": bool(ok)}
    )


def _cmd_qh_lefschetz(args) -> dict:
    ok = section.lefschetz_relation_check(section.build_ring(3, args.n))
    return _document("qh lefschetz", {"n": args.n}, {"holds": bool(ok)})


def _cmd_qh_semisimple(args) -> dict:
    inputs = {"k": args.k, "n": args.n, "section": args.section}
    if args.section:
        verdict = section.section_semisimplicity(args.k, args.n)
    else:
        verdict = quantum.qh_semisimple(_ambient_box(args))
    results = {"semisimple": verdict.holds, "method": verdict.method, "detail": _detail(verdict, args.n - 1)}
    return _document("qh semisimple", inputs, results)


# -- table rendering (a pure function of the document) ------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _render_rows(headers: list[str], rows: list) -> list[str]:
    table = [headers] + [[_format_cell(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(table):
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        if r == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return lines


def _joined(label: str, values: list) -> str:
    return f"{label}: " + " ".join(str(v) for v in values)


def _betti_lines(r: dict) -> list[str]:
    return [f"{r['label']}: dim={r['dim']} index={r['index']}"] + _render_rows(
        ["2j", "b_2j"], [[2 * j, b] for j, b in enumerate(r["even_betti"])])


def _screen_lines(r: dict) -> list[str]:
    lines = [f"{r['label']}: index={r['index']}", _joined("even betti", r["even_betti"]),
             f"outcome: {r['outcome']}"]
    if w := r.get("witness"):
        lines.append(f"witness: tilde_b({w['i']}) = {w['lhs']} > {w['rhs']} = tilde_b({w['d']}*{w['i']})")
    return lines


def _exceptional_lines(r: dict) -> list[str]:
    keys = ("label", "dim", "index", "i", "tilde_b", "tilde_b_neg", "verdict")
    return _render_rows(["case", "dim", "r", "i", "tilde_b(i)", "tilde_b(-i)", "verdict"],
                        [[row[key] for key in keys] for row in r["rows"]])


def _witness_lines(key: str):
    def lines(r: dict) -> list[str]:
        rows = [[str(tuple(w["partition"])), w[key]] for w in r["witnesses"]]
        return _render_rows(["partition", key], rows) if rows else ["(no witnesses)"]
    return lines


def _hodge_lines(r: dict) -> list[str]:
    lines = _render_rows(["p", "chi(Omega^p)"], list(enumerate(r["chi_y"])))
    if "diamond_column" in r:
        lines.append(_joined("diamond column", r["diamond_column"]))
        lines += [f"h^({e['p']},{e['q']}) = {e['h']}" for e in r["middle_off_diagonal"]]
        lines.append("hodge-tate: " + _format_cell(r["hodge_tate"]))
    return lines


def _semisimple_lines(r: dict) -> list[str]:
    lines = ["semisimple: " + _format_cell(r["semisimple"]), f"method: {r['method']}"]
    return lines + ([f"detail: {r['detail']}"] if r["detail"] else [])


def _holds_lines(r: dict) -> list[str]:
    return ["holds: " + _format_cell(r["holds"])]


# -- the command table -----------------------------------------------------------

_INT, _REQUIRED_INT, _FLAG = {"type": int}, {"type": int, "required": True}, {"action": "store_true"}
_K, _N, _SECTION = ("--k", _REQUIRED_INT), ("--n", _REQUIRED_INT), ("--section", _FLAG)
_SEED = ("--seed", {"type": int, "default": hodge.DEFAULT_SEED, "help": SEED_HELP})

# name -> (help, argument specs, handler name, table renderer).  A "qh <leaf>"
# name is a leaf of the qh group, and every leaf also takes --format.
COMMANDS = {
    "betti": (
        "Betti numbers, dimension and Fano index of G/P_k",
        [("--type", {"required": True, "help": "Dynkin type, e.g. E7 or C5"}), ("--node", _REQUIRED_INT)],
        "_cmd_betti", _betti_lines),
    "screen": (
        "semisimplicity obstruction from Betti numbers",
        [("--type", {}), ("--node", _INT),
         ("--section", {**_FLAG, "help": "screen a Gr(k,n) hyperplane section"}),
         ("--k", _INT), ("--n", _INT), ("--seed", {**_INT, "help": SEED_HELP})],
        "_cmd_screen", _screen_lines),
    "exceptional-table": (
        "the 13 exceptional screen witnesses", [], "_cmd_exceptional_table", _exceptional_lines),
    "core-search": (
        "large core partitions in the k x (n-k) box", [_K, _N], "_cmd_core_search", _witness_lines("i")),
    "snow": (
        "nonvanishing witnesses for twisted forms on Gr(k,n)",
        [_K, _N, ("--p", _REQUIRED_INT), ("--twist", _REQUIRED_INT)], "_cmd_snow", _witness_lines("j")),
    "hodge": (
        "chi_y genus (and Hodge diamond of the section)", [_K, _N, _SECTION, _SEED], "_cmd_hodge", _hodge_lines),
    "qh charpoly": (
        "characteristic polynomial on the residue-0 piece",
        [_K, _N, _SECTION, ("--power", _REQUIRED_INT), ("--with-e2", _FLAG)], "_cmd_qh_charpoly",
        lambda r: [_joined("charpoly (lowest degree first)", r["charpoly"])]),
    "qh presentation": (
        "verify the quantum presentation relations", [_K, _N], "_cmd_qh_presentation", _holds_lines),
    "qh lefschetz": (
        "quantum Lefschetz identities for sections", [("--n", {**_REQUIRED_INT, "choices": (7, 8)})],
        "_cmd_qh_lefschetz", _holds_lines),
    "qh semisimple": (
        "trace-form semisimplicity verdicts", [_K, _N, _SECTION], "_cmd_qh_semisimple", _semisimple_lines),
}
QH_HELP = "quantum cohomology computations"


def render_table(doc: dict) -> str:
    command = doc["command"]
    inputs = doc["inputs"]
    lines = [f"# {command}"]
    if inputs:
        lines.append("inputs: " + ", ".join(f"{k}={_format_cell(v)}" for k, v in inputs.items()))
    lines += COMMANDS[command][3](doc["results"])
    return "\n".join(lines) + "\n"


# -- argument parsing ----------------------------------------------------------


_FORMAT = ("--format", {"choices": ("table", "json"), "default": "table"})
# argparse reads a token that starts with "-" as a value only when it matches
# this; re's own cache compiles it at the first such token, not at import
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _add_arguments(parser, name: str):
    """Give an argparse parser the arguments of one command of COMMANDS, and its handler."""
    _, specs, handler, _ = COMMANDS[name]
    for flag, kwargs in [*specs, _FORMAT]:
        parser.add_argument(flag, **kwargs)
    # looked up at build time, so a patched module global is the one called
    parser.set_defaults(handler=globals()[handler])
    return parser


def build_parser():
    """The whole tree, an argparse.ArgumentParser: every command, with the qh
    leaves under qh.  The only place argparse is imported."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qhgrass",
        description="Exact quantum cohomology and Hodge-theoretic invariants of "
        "Grassmannians and their hyperplane sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    qh_sub = None
    for name, (help_text, *_) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and qh_sub is None:
            qh_sub = sub.add_parser(group, help=QH_HELP).add_subparsers(dest="qh_command", required=True)
        _add_arguments((qh_sub if group else sub).add_parser(leaf, help=help_text), name)
    return parser


def _table_entry(specs: list) -> tuple[dict, dict, frozenset]:
    """The flags of one COMMANDS entry (and --format) as (flag -> (dest,
    spec), dest -> default, required flags), in the order the entry lists
    them."""
    flags = {flag: (flag[2:].replace("-", "_"), spec) for flag, spec in [*specs, _FORMAT]}
    defaults = {dest: False if spec.get("action") == "store_true" else spec.get("default")
                for dest, spec in flags.values()}
    return flags, defaults, frozenset(flag for flag, (_, spec) in flags.items() if spec.get("required"))


# built once at import: command words -> name, and name -> its flags
_NAMES = {tuple(name.split()): name for name in COMMANDS}
_TABLE = {name: _table_entry(specs) for name, (_, specs, _, _) in COMMANDS.items()}


def _parse_table(name: str, tokens: list[str]) -> SimpleNamespace | None:
    """The arguments of command `name` read from its _TABLE entry, as the
    whole tree would read them, or None for any token list that is not plainly
    well formed, so that the tree decides it and words its errors."""
    flags, defaults, required = _TABLE[name]
    values = dict(defaults)
    given = set()
    rest = iter(tokens)
    for flag in rest:
        entry = flags.get(flag)
        if entry is None or flag in given:
            return None
        given.add(flag)
        dest, spec = entry
        if spec.get("action") == "store_true":
            values[dest] = True
            continue
        text = next(rest, None)
        if text is None or (text.startswith("-") and not re.match(_NEGATIVE_NUMBER, text)):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    if not required <= given:
        return None
    # looked up now, so a patched module global is the one called
    return SimpleNamespace(**values, handler=globals()[COMMANDS[name][2]])


def _parse(argv: list[str]):
    """Parse argv from the COMMANDS entry of the command it names, since
    building a parser costs more than most commands compute.  Anything else,
    such as -h, a typo, a bare qh, or arguments that entry does not plainly
    take, goes to the whole tree, so help, usage and errors read as they
    always have."""
    # names have one or two words and none starts another, so at most one matches
    name = _NAMES.get(tuple(argv[:2])) or _NAMES.get(tuple(argv[:1]))
    if name is not None and (args := _parse_table(name, argv[len(name.split()) :])) is not None:
        return args
    return build_parser().parse_args(argv)


def _json(value, pad: str = "") -> str:
    """value as json.dumps(value, indent=2) writes it, for the types a document
    holds: dicts with str keys, lists, str, int, bool and None.  json.dumps
    runs its pure-Python encoder whenever indent is set, which costs more than
    this writer; both escape strings with the C encode_basestring_ascii of
    the module _json.  Any other type, or a non-str key, is a TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json(item, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        doc = args.handler(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    # answers are never truncated; MAX_CHARPOLY_DIGITS bounds them before they are computed
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = _json(doc) + "\n" if args.format == "json" else render_table(doc)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text)
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: drop what is left instead of failing at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
