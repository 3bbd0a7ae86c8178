import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qhgrass import cli, linalg
from qhgrass.partitions import Box


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_json_and_table_agree(capsys):
    commands = [
        ["betti", "--type", "E6", "--node", "2"],
        ["screen", "--type", "F4", "--node", "4"],
        ["screen", "--section", "--k", "3", "--n", "6"],
        ["exceptional-table"],
        ["core-search", "--k", "3", "--n", "9"],
        ["snow", "--k", "3", "--n", "9", "--p", "12", "--twist", "3"],
        ["hodge", "--k", "3", "--n", "6", "--section"],
        ["qh", "charpoly", "--k", "3", "--n", "7", "--power", "7"],
        ["qh", "presentation", "--k", "2", "--n", "5"],
        ["qh", "lefschetz", "--n", "7"],
        ["qh", "semisimple", "--k", "2", "--n", "4"],
    ]
    for argv in commands:
        code, table_out, _ = run_cli(capsys, *argv, "--format", "table")
        assert code == 0, argv
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        doc = json.loads(json_out)
        assert doc["schema_version"] == "1"
        assert cli.render_table(doc) == table_out, argv


def test_screen_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "screen", "--type", "E7", "--node", "6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["outcome"] == "Witness"
    w = doc["results"]["witness"]
    assert w["lhs"] > w["rhs"]
    assert w["lhs"] == 58  # tilde_b(1) of E7/P6


def test_exceptional_table_json(capsys):
    code, out, _ = run_cli(capsys, "exceptional-table", "--format", "json")
    doc = json.loads(out)
    rows = doc["results"]["rows"]
    assert len(rows) == 13
    first, last = rows[0], rows[-1]
    assert (first["label"], first["dim"], first["index"]) == ("E6/P2", 21, 11)
    assert (first["tilde_b"], first["tilde_b_neg"]) == (6, 7)
    assert (last["label"], last["tilde_b"], last["tilde_b_neg"]) == ("F4/P4", 3, 2)


def test_hodge_section_output(capsys):
    code, out, _ = run_cli(
        capsys, "hodge", "--k", "3", "--n", "9", "--section", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["chi_y"] == [
        1, -1, 2, -3, 4, -5, 7, -7, 6, -6, 7, -7, 5, -4, 3, -2, 1, -1,
    ]
    assert doc["results"]["hodge_tate"] is False
    assert {"p": 8, "q": 9, "h": 2} in doc["results"]["middle_off_diagonal"]


def test_qh_charpoly_section(capsys):
    code, out, _ = run_cli(
        capsys, "qh", "charpoly", "--k", "3", "--n", "7", "--section",
        "--power", "6", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["charpoly"] == [128, -7309, -36250, 3828, -302, 1]


def test_qh_semisimple_section(capsys):
    code, out, _ = run_cli(
        capsys, "qh", "semisimple", "--k", "3", "--n", "6", "--section",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["results"]["semisimple"] is False
    assert doc["results"]["method"] == "betti-screen"


def test_invalid_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, "core-search", "--k", "2", "--n", "6")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "screen", "--section", "--k", "3", "--n", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "screen")  # missing both selectors
    assert code == 2
    code, _, err = run_cli(capsys, "betti", "--type", "Q9", "--node", "1")
    assert code == 2


def test_degenerate_box_and_negative_power_exit_2(capsys):
    code, out, err = run_cli(capsys, "qh", "presentation", "--k", "3", "--n", "3")
    assert code == 2 and not out and "error" in err
    for section in ([], ["--section"]):
        code, out, err = run_cli(
            capsys, "qh", "charpoly", "--k", "3", "--n", "7", *section, "--power", "-1"
        )
        assert code == 2 and not out and "error" in err, section


def test_oversized_core_search_exits_2_at_once(capsys):
    for k, n in [(50, 100), (3, 100000)]:
        t0 = time.process_time()
        code, out, err = run_cli(capsys, "core-search", "--k", str(k), "--n", str(n))
        assert code == 2 and not out and "candidates" in err
        assert time.process_time() - t0 < 2


def test_oversized_grassmannian_is_refused_at_once(capsys):
    for command in ("semisimple", "presentation"):
        t0 = time.process_time()
        code, out, err = run_cli(capsys, "qh", command, "--k", "6", "--n", "14")
        assert code == 2 and not out and "3003" in err and "d^3" in err, command
        assert time.process_time() - t0 < 2
    # admitted: Gr(5, 10) and every box of the ambient workload (k <= 4, n <= 8)
    for k, n in [(5, 10)] + [(k, n) for k in range(1, 5) for n in range(k + 1, 9)]:
        assert cli._ambient_box(argparse.Namespace(k=k, n=n)) == Box(k, n)


def test_charpoly_work_is_refused_up_front(capsys):
    t0 = time.perf_counter()
    # 18,182 digits pass MAX_CHARPOLY_DIGITS, but 26^3 x 18,182 is over the work bound
    code, out, err = run_cli(capsys, "qh", "charpoly", "--k", "5", "--n", "10", "--power", "1000")
    assert code == 2 and not out and "3.2e+08" in err and "Traceback" not in err
    assert time.perf_counter() - t0 < 1
    # the ambient operator's size is bounded before it is built
    code, out, err = run_cli(capsys, "qh", "charpoly", "--k", "6", "--n", "14", "--power", "14")
    assert code == 2 and not out and "3003" in err
    assert time.perf_counter() - t0 < 1


def test_ambient_charpoly_refusals_never_build_the_grassmannian(capsys, monkeypatch):
    from qhgrass import quantum

    calls = []
    monkeypatch.setattr(quantum, "grassmannian", lambda *args: calls.append(args))
    # the degree refusal, then the work refusal
    code, out, err = run_cli(capsys, "qh", "charpoly", "--k", "5", "--n", "10", "--power", "11")
    assert code == 2 and not out and err.count("\n") == 1 and "not a multiple of 10 = deg q" in err
    code, out, err = run_cli(capsys, "qh", "charpoly", "--k", "5", "--n", "10", "--power", "1000")
    assert code == 2 and not out and err.count("\n") == 1 and "3.2e+08" in err
    assert calls == []


def test_admitted_ambient_charpoly_never_builds_the_grassmannian(capsys, monkeypatch):
    from qhgrass import quantum

    cases = [(3, 7, 7, False), (3, 8, 6, True), (2, 4, 8, False)]
    expected = []
    for k, n, power, e2 in cases:
        alg = quantum.grassmannian(Box(k, n))
        piece = [alg.index[lam] for lam in alg.residue_piece(0)]
        expected.append(quantum.e_power_charpoly(alg.e_ops, piece, power, e2).coeffs)
    calls = []
    monkeypatch.setattr(quantum, "grassmannian", lambda *args: calls.append(args))
    for (k, n, power, e2), coeffs in zip(cases, expected):
        argv = ["qh", "charpoly", "--k", str(k), "--n", str(n), "--power", str(power)] + ["--with-e2"] * e2
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and not err
        assert json.loads(out)["results"]["charpoly"] == list(coeffs)
    assert calls == []


def test_misaligned_charpoly_power_is_refused_before_any_power(capsys, monkeypatch):
    calls = []
    original = linalg.mat_pow

    def recording(a, e):
        calls.append(e)
        return original(a, e)

    monkeypatch.setattr(linalg, "mat_pow", recording)
    for argv in (
        ["--k", "3", "--n", "7", "--power", "6"],
        ["--k", "3", "--n", "8", "--power", "8", "--with-e2"],
        ["--k", "3", "--n", "7", "--section", "--power", "7"],
        ["--k", "3", "--n", "8", "--section", "--power", "7", "--with-e2"],
    ):
        code, out, err = run_cli(capsys, "qh", "charpoly", *argv)
        assert code == 2 and not out and "deg q" in err, argv
    assert calls == []
    # aligned powers go on to the matrix power
    assert run_cli(capsys, "qh", "charpoly", "--k", "3", "--n", "7", "--power", "7")[0] == 0
    assert run_cli(capsys, "qh", "charpoly", "--section", "--k", "3", "--n", "7", "--power", "6")[0] == 0
    assert calls == [7, 6]


small_ints = st.integers(-3, 12).map(str)


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["core-search", "snow", "betti", "screen"]))
    if command == "core-search":
        big = st.integers(-3, 26).map(str)
        argv = [command, "--k", draw(big), "--n", draw(big)]
    elif command == "snow":
        argv = [command, "--k", draw(small_ints), "--n", draw(small_ints),
                "--p", draw(small_ints), "--twist", draw(small_ints)]
    else:
        kind = draw(st.sampled_from("ABCDEFGQ")) + draw(st.integers(-2, 10).map(str))
        argv = [command, "--type", kind, "--node", draw(small_ints)]
    return argv + [draw(st.sampled_from(["--format=json", "--format=table"]))]


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and "--format=json" in argv:
        json.loads(out.getvalue())


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
def test_cli_fuzz_small_arguments(argv):
    _run_quietly(argv)


def _draw_box(draw, max_n):
    # mostly valid boxes, some degenerate or negative
    n = draw(st.one_of(st.integers(2, max_n), st.integers(-1, max_n)))
    k = draw(st.one_of(st.integers(1, max(n - 1, 1)), st.integers(-1, max(n, 1))))
    return k, n


@st.composite
def fuzz_hodge_charpoly_argv(draw):
    fmt = draw(st.sampled_from(["--format=json", "--format=table"]))
    section = draw(st.sampled_from([[], ["--section"]]))
    if draw(st.booleans()):
        k, n = _draw_box(draw, 12)
        return ["hodge", "--k", str(k), "--n", str(n), *section, "--seed", draw(small_ints), fmt]
    k, n = draw(st.sampled_from([(3, 6), (3, 7), (3, 8)])) if section else _draw_box(draw, 8)
    with_e2 = draw(st.sampled_from([[], ["--with-e2"]]))
    # e_1^power (* e_2) keeps the residue-0 piece when its degree is a multiple of n
    aligned = st.integers(-2, 5).map(lambda m: m * n - 2 * len(with_e2))
    power = draw(st.one_of(aligned, st.integers(-3, 40), st.sampled_from([10**5, 10**7])))
    return ["qh", "charpoly", "--k", str(k), "--n", str(n), *section, "--power", str(power),
            *with_e2, fmt]


@settings(max_examples=150, deadline=None)
@given(fuzz_hodge_charpoly_argv())
def test_cli_fuzz_hodge_and_charpoly(argv):
    _run_quietly(argv)


@st.composite
def fuzz_presentation_semisimple_argv(draw):
    fmt = draw(st.sampled_from(["--format=json", "--format=table"]))
    if draw(st.booleans()):
        k, n = _draw_box(draw, 8)
        return ["qh", "presentation", "--k", str(k), "--n", str(n), fmt]
    section = draw(st.sampled_from([[], ["--section"]]))
    if section and draw(st.booleans()):
        k, n = draw(st.sampled_from([(3, 6), (3, 7), (3, 8)]))
    else:
        k, n = _draw_box(draw, 8)
    return ["qh", "semisimple", "--k", str(k), "--n", str(n), *section, fmt]


@settings(max_examples=100, deadline=None)
@given(fuzz_presentation_semisimple_argv())
def test_cli_fuzz_presentation_and_semisimple(argv):
    _run_quietly(argv)


def test_huge_charpoly_is_refused_and_large_one_printed_whole(capsys):
    t0 = time.process_time()
    code, out, err = run_cli(capsys, "qh", "charpoly", "--k", "2", "--n", "4", "--power", "100000",
                             "--format", "json")
    assert code == 2 and not out and "digits" in err and "Traceback" not in err
    assert time.process_time() - t0 < 2
    # past Python's default 4,300-digit limit for int-to-str conversion
    code, out, err = run_cli(capsys, "qh", "charpoly", "--k", "2", "--n", "4", "--power", "30000",
                             "--format", "json")
    assert code == 0 and not err
    coeffs = json.loads(out, parse_int=str)["results"]["charpoly"]  # digits kept as text
    assert max(len(c.lstrip("-")) for c in coeffs) > 4300 and coeffs[-1] == "1"


def test_closed_stdout_pipe_exits_quietly():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qhgrass.cli", "hodge", "--k", "3", "--n", "6", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b"", err.decode()


def test_hodge_section_localizes_once(capsys, monkeypatch):
    from qhgrass import hodge

    calls = []
    original = hodge.chi_y

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hodge, "chi_y", counting)
    code, out, _ = run_cli(capsys, "hodge", "--k", "2", "--n", "5", "--section", "--format", "json")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["results"]["chi_y"] == [int(c) for c in original(2, 5, section=True).coeffs]


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "qh", "nonsense")[0] == 2


def test_internal_failure_exits_1(capsys, monkeypatch):
    from qhgrass.errors import InternalConsistencyError

    def broken(args):
        raise InternalConsistencyError("synthetic")

    # the parser binds handlers by module-global name at build time, and run()
    # rebuilds the parser, so patching the module attribute is enough
    monkeypatch.setattr(cli, "_cmd_exceptional_table", broken)
    code = cli.run(["exceptional-table"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "internal consistency failure" in err


def test_determinism_same_seed(capsys):
    a = run_cli(capsys, "hodge", "--k", "2", "--n", "5", "--section", "--seed", "5")
    b = run_cli(capsys, "hodge", "--k", "2", "--n", "5", "--section", "--seed", "5")
    assert a == b


def test_rational_serialization():
    assert cli._rat(Fraction(3, 2)) == "3/2"
    assert cli._rat(Fraction(4, 2)) == 2
    assert cli._rat(7) == 7


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


# one valid command line per command of cli.COMMANDS
EVERY_COMMAND = [
    ["betti", "--type", "E6", "--node", "2"],
    ["screen", "--section", "--k", "3", "--n", "6"],
    ["exceptional-table"],
    ["core-search", "--k", "3", "--n", "9"],
    ["snow", "--k", "3", "--n", "9", "--p", "12", "--twist", "3"],
    ["hodge", "--k", "3", "--n", "6", "--section"],
    ["qh", "charpoly", "--k", "3", "--n", "7", "--power", "5", "--with-e2"],
    ["qh", "presentation", "--k", "2", "--n", "5"],
    ["qh", "lefschetz", "--n", "7"],
    ["qh", "semisimple", "--k", "2", "--n", "4"],
]


def _record_add_parser(monkeypatch) -> list:
    added = []
    original = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        added.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    return added


def _command_name(argv: list[str]) -> str:
    return " ".join(argv[:2] if argv[0] == "qh" else argv[:1])


def _record_parsers(monkeypatch) -> list:
    progs = []
    original = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    return progs


def test_run_builds_only_the_invoked_command(capsys, monkeypatch):
    # a named command is parsed by its leaf parser alone: no subparser is added
    assert {_command_name(argv) for argv in EVERY_COMMAND} == set(cli.COMMANDS)
    added, progs = _record_add_parser(monkeypatch), _record_parsers(monkeypatch)
    for argv in EVERY_COMMAND:
        for _ in range(2):  # each run builds its own parser
            added.clear()
            progs.clear()
            assert cli.run(argv + ["--format", "json"]) == 0, argv
            assert (added, progs) == ([], [f"qhgrass {_command_name(argv)}"]), argv
    capsys.readouterr()
    assert not any(isinstance(v, argparse.ArgumentParser) for v in vars(cli).values())


def test_build_parser_without_argv_builds_every_command(capsys, monkeypatch):
    added = _record_add_parser(monkeypatch)
    cli.build_parser()
    assert added == ["betti", "screen", "exceptional-table", "core-search", "snow", "hodge",
                     "qh", "charpoly", "presentation", "lefschetz", "semisimple"]
    # any argv that names no command, or leaves arguments over, gets the whole tree
    for argv in ([], ["--help"], ["frobnicate"], ["qh"], ["qh", "--help"], ["qh charpoly"], ["Betti"],
                 ["qh", "semisimple", "--k", "2", "--n", "4", "extra"],
                 ["betti", "--type", "E6", "--node", "2", "--bogus"]):
        added.clear()
        assert cli.run(argv) in (0, 2), argv
        assert len(added) == 11, argv
    capsys.readouterr()


def test_lazy_and_full_parsers_agree():
    # the whole tree also records the command and qh_command dests, which nothing reads
    for argv in EVERY_COMMAND:
        argv = argv + ["--format", "json"]
        name = _command_name(argv)
        leaf = cli.leaf_parser(name).parse_args(argv[len(name.split()) :])
        full = vars(cli.build_parser().parse_args(argv))
        assert (full.pop("command"), full.pop("qh_command", name.split()[-1])) == (argv[0], name.split()[-1])
        assert vars(leaf) == full, argv


def test_entry_point_prints_what_run_prints(capsys):
    argv = ["qh", "semisimple", "--k", "3", "--n", "7", "--format", "json"]
    assert cli.run(argv) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qhgrass.cli", *argv], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, expected, b"")
