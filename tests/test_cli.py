import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
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


def test_section_charpoly_of_e1_reads_the_wide_side_on_its_narrow_twin(capsys):
    # Gr(k, n) = Gr(n - k, n) fixes e_1 = sigma_1, so (5, 8) and (4, 7) give the
    # (3, n) charpolys, with the k given echoed
    for (k, n), powers in (((5, 8), (0, 7, 14)), ((4, 7), (6, 12))):
        for power in powers:
            docs = []
            for side in (k, n - k):
                code, out, err = run_cli(capsys, "qh", "charpoly", "--section", "--k", str(side), "--n", str(n),
                                         "--power", str(power), "--format", "json")
                assert (code, err) == (0, "")
                docs.append(json.loads(out))
            assert docs[0]["results"] == docs[1]["results"] and docs[0]["inputs"]["k"] == k, (k, n, power)
    # e_2 goes to sigma_2, so a charpoly with e_2 stays refused on the wide side
    code, out, err = run_cli(capsys, "qh", "charpoly", "--section", "--k", "4", "--n", "7", "--power", "4", "--with-e2")
    assert (code, out, err) == (2, "", "error: no section ring for (k, n) = (4, 7)\n")


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


def test_degenerate_box_and_negative_power_exit_2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "qh", "presentation", "--k", "3", "--n", "3")
    assert code == 2 and not out and "error" in err
    for section in ([], ["--section"]):
        code, out, err = run_cli(
            capsys, "qh", "charpoly", "--k", "3", "--n", "7", *section, "--power", "-1"
        )
        assert code == 2 and not out and "has degree -1, not a multiple of" in err, section
    # a negative power of the right degree is refused before any ring or
    # Pieri matrix is built
    calls = []
    monkeypatch.setattr(cli.section, "build_ring", lambda *args: calls.append(args))
    monkeypatch.setattr(cli.quantum, "pieri_matrix", lambda *args: calls.append(args))
    for argv in (["--section", "--k", "3", "--n", "7", "--power", "-6"], ["--k", "2", "--n", "4", "--power", "-4"]):
        code, out, err = run_cli(capsys, "qh", "charpoly", *argv)
        assert code == 2 and not out and err == f"error: matrix power needs a nonnegative exponent, got {argv[-1]}\n"
    assert calls == []


def _peak_bytes_and_seconds(capsys, *argv):
    """Run one command; its exit code, output, the largest allocation peak
    and the CPU seconds it took."""
    tracemalloc.start()
    t0 = time.process_time()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak, time.process_time() - t0


def test_oversized_core_search_exits_2_at_once(capsys):
    # in time and memory that do not grow with n
    for k, n in [(50, 100), (3, 100000), (3, 100000000)]:
        code, out, err, peak, seconds = _peak_bytes_and_seconds(capsys, "core-search", "--k", str(k), "--n", str(n))
        assert code == 2 and not out and "candidates" in err and err.count("\n") == 1, (k, n)
        assert peak < 10**6 and seconds < 2, (k, n)


def test_oversized_snow_exits_2_at_once(capsys):
    # over the partition bound, over the parts bound, and a first partition over the parts bound
    for k, n, p in [(10, 40, 100), (3, 100000000, 10000000), (10**9, 10**9 + 2, 60000), (10**9, 10**9 + 1, 10**8)]:
        code, out, err, peak, seconds = _peak_bytes_and_seconds(
            capsys, "snow", "--k", str(k), "--n", str(n), "--p", str(p), "--twist", "1")
        assert code == 2 and not out and "partitions" in err and err.count("\n") == 1, (k, n, p)
        assert peak < 10**6 and seconds < 2, (k, n, p)
    # a million columns but five partitions of 5: answered
    code, out, _ = run_cli(capsys, "snow", "--k", "3", "--n", "1000000", "--p", "5", "--twist", "1", "--format", "json")
    assert code == 0 and json.loads(out)["results"] == {"witnesses": []}
    # one partition each, of 1,500 parts and of 3,000,000 cells: answered at once
    for argv, witnesses in [(["--k", "2000", "--n", "2001", "--p", "1500", "--twist", "1"], []),
                            (["--k", "1", "--n", "100000000", "--p", "3000000", "--twist", "0"],
                             [{"partition": [3000000], "j": 3000000}])]:
        code, out, err, peak, seconds = _peak_bytes_and_seconds(capsys, "snow", *argv, "--format", "json")
        assert code == 0 and not err and json.loads(out)["results"] == {"witnesses": witnesses}, argv
        assert seconds < 0.5, argv


def test_oversized_grassmannian_is_refused_at_once(capsys):
    for command in ("semisimple", "presentation"):
        t0 = time.process_time()
        code, out, err = run_cli(capsys, "qh", command, "--k", "6", "--n", "14")
        assert code == 2 and not out and err == "error: Gr(6,14) has 3003 Schubert classes, over 300\n", command
        assert time.process_time() - t0 < 2
    # C(n, k) is not taken when its logarithm is over 9 digits: C(10^9, 5 * 10^8) has 3e8
    for k, n, digits in [(776, 99811922, 4300), (5 * 10**8, 10**9, 301029991)]:
        t0 = time.process_time()
        code, out, err = run_cli(capsys, "qh", "semisimple", "--k", str(k), "--n", str(n))
        assert code == 2 and not out and f"about 10^{digits} Schubert classes" in err and err.count("\n") == 1
        assert time.process_time() - t0 < 0.5
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
    assert code == 2 and not out and err == "error: Gr(6,14) has 3003 Schubert classes, over 300\n"
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
        piece = alg.pieces[0]
        expected.append(quantum.e_power_charpoly(alg.e_ops, piece, alg.r, power, e2))
    calls = []
    monkeypatch.setattr(quantum, "grassmannian", lambda *args: calls.append(args))
    for (k, n, power, e2), coeffs in zip(cases, expected):
        argv = ["qh", "charpoly", "--k", str(k), "--n", str(n), "--power", str(power)] + ["--with-e2"] * e2
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and not err
        assert json.loads(out)["results"]["charpoly"] == list(coeffs)
    assert calls == []


def test_misaligned_charpoly_power_is_refused_before_any_power(capsys, monkeypatch):
    from qhgrass import quantum

    blocks, powers = [], []
    original_block, original_pow = quantum._piece_block, linalg.mat_pow

    def recording_block(e_ops, cols, steps):
        blocks.append(list(steps))
        return original_block(e_ops, cols, steps)

    def recording_pow(a, e):
        powers.append(e)
        return original_pow(a, e)

    monkeypatch.setattr(quantum, "_piece_block", recording_block)
    monkeypatch.setattr(linalg, "mat_pow", recording_pow)
    for argv in (
        ["--k", "3", "--n", "7", "--power", "6"],
        ["--k", "3", "--n", "8", "--power", "8", "--with-e2"],
        ["--k", "3", "--n", "7", "--section", "--power", "7"],
        ["--k", "3", "--n", "8", "--section", "--power", "7", "--with-e2"],
    ):
        code, out, err = run_cli(capsys, "qh", "charpoly", *argv)
        assert code == 2 and not out and "deg q" in err, argv
    assert blocks == [] and powers == []
    # aligned powers go on to the thin blocks: power = m r + lead is C = E_1^lead
    # (no steps here) and B = E_1^r (r steps of E_1), then B^m on the piece
    assert run_cli(capsys, "qh", "charpoly", "--k", "3", "--n", "7", "--power", "7")[0] == 0
    assert run_cli(capsys, "qh", "charpoly", "--section", "--k", "3", "--n", "7", "--power", "6")[0] == 0
    assert blocks == [[], [1] * 7, [], [1] * 6]
    assert powers == [1, 1]


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


# an integer of 1 to 9 digits (or 10^9), the digit count uniform: log-uniform up to 10^9
magnitudes = st.integers(1, 9).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d))
signed_magnitudes = st.one_of(magnitudes, magnitudes.map(lambda m: -m), st.just(0))


@st.composite
def magnitude_argv(draw):
    """Any command with every value it takes drawn up to 10^9: the required
    flags always, the others half the time."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = name.split()
    for flag, spec in cli.COMMANDS[name][1]:
        if not (spec.get("required") or draw(st.booleans())):
            continue
        if spec.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in spec:
            argv += [flag, str(draw(st.sampled_from(spec["choices"])))]
        elif spec.get("type") is int:
            argv += [flag, str(draw(signed_magnitudes))]
        else:  # a Dynkin type
            argv += [flag, draw(st.sampled_from("ABCDEFG")) + str(draw(magnitudes))]
    return argv + ["--format", draw(st.sampled_from(["json", "table"]))]


# every refusal takes well under a second, and most admitted lines, such as qh
# semisimple on Gr(5, 10), a few; the slowest chi_y hodge's partition count
# admits, the (2, 99) section's, takes 0.6 s (Intel Xeon, Python 3.11)
MAGNITUDE_CPU_SECONDS = 10


@settings(max_examples=200, deadline=None)
@given(magnitude_argv())
def test_cli_fuzz_magnitudes_up_to_a_billion(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    seconds = time.process_time() - t0
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue().count("\n") == 1 and not out.getvalue(), (argv, err.getvalue())
    assert seconds < MAGNITUDE_CPU_SECONDS, (argv, seconds)


HUGE_BOX_COMMANDS = ["hodge", "hodge --section", "screen --section", "qh semisimple", "qh presentation",
                     "qh charpoly --power 0"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(HUGE_BOX_COMMANDS), st.integers(1, 10**4), st.integers(10**4, 10**30))
def test_cli_fuzz_huge_boxes_are_refused_at_once(command, k, n):
    # every C(n, k) with n >= 10^4 is over each command's bound (C(n, k) >= n
    # when 1 <= k <= n - 1), so each line is refused on the box count's
    # logarithm, which must not cancel to 0 for n past 10^17
    argv = command.split() + ["--k", str(k), "--n", str(n)]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    seconds = time.process_time() - t0
    assert code == 2 and not out.getvalue(), (argv, code, err.getvalue())
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    assert seconds < 1, (argv, seconds)


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
    # as `... | head -1`: the reader closes after the first line, and the
    # document may already sit whole in the pipe by then
    proc = subprocess.Popen(
        [sys.executable, "-m", "qhgrass.cli", "hodge", "--section", "--k", "3", "--n", "8", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 141)
    assert err == b"", err.decode()


def test_hodge_section_localizes_once(capsys, monkeypatch):
    from qhgrass import hodge

    calls = []
    original = hodge.chi_y

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hodge, "chi_y", counting)
    hodge.diamond.cache_clear()
    code, out, _ = run_cli(capsys, "hodge", "--k", "2", "--n", "5", "--section", "--format", "json")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["results"]["chi_y"] == list(original(2, 5, section=True))


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "qh", "nonsense")[0] == 2


def test_internal_failure_exits_1(capsys, monkeypatch):
    from qhgrass.errors import InternalConsistencyError

    def broken(args):
        raise InternalConsistencyError("synthetic")

    # each parse looks the handler up by its module-global name, so patching
    # the module attribute is enough
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
    # a well-formed command line is read from COMMANDS: no parser is built
    assert {_command_name(argv) for argv in EVERY_COMMAND} == set(cli.COMMANDS)
    added, progs = _record_add_parser(monkeypatch), _record_parsers(monkeypatch)
    for argv in EVERY_COMMAND:
        for fmt in ([], ["--format", "json"]):
            assert cli.run(argv + fmt) == 0, argv
            assert (added, progs) == ([], []), argv
    capsys.readouterr()
    assert not any(isinstance(v, argparse.ArgumentParser) for v in vars(cli).values())


# run in a fresh isolated interpreter: argv[1] is src/, the rest the command line
STARTUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import qhgrass.cli
code = qhgrass.cli.run(sys.argv[2:])
print(code, *sorted(set(sys.modules) - before))
"""


def _fresh_run(argv: list[str]) -> tuple[int, set]:
    """The exit code of run(argv) in a fresh `python -I`, and the modules that
    importing qhgrass.cli and running it loaded."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-I", "-c", STARTUP_PROBE, src, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


def test_start_up_loads_neither_dataclasses_nor_argparse():
    # a well-formed command line pays for no dataclass machinery, no parser and
    # no json package, in either format: the writer escapes strings with the C
    # function json.encoder itself binds
    assert cli.encode_basestring_ascii is json.encoder.encode_basestring_ascii
    for fmt in ("json", "table"):
        code, loaded = _fresh_run(["core-search", "--k", "3", "--n", "9", "--format", fmt])
        assert code == 0 and "qhgrass.cli" in loaded
        unwanted = {"dataclasses", "inspect", "argparse", "json", "json.encoder", "json.decoder", "json.scanner"}
        assert not loaded & unwanted, loaded
    # help goes through the whole tree, the one place argparse is imported
    code, loaded = _fresh_run(["--help"])
    assert code == 0 and "argparse" in loaded


def test_betti_and_screen_echo_the_type_they_parsed(capsys):
    # the echoed type is the one parse_type read: no spaces, no leading zeros
    for command in ("betti", "screen"):
        outs = {run_cli(capsys, command, "--type", text, "--node", "2", "--format", "json")[1]
                for text in ("E6", "e6", " E6", "E06", "e06 ")}
        assert len(outs) == 1 and json.loads(outs.pop())["inputs"]["type"] == "E6", command
        code, out, _ = run_cli(capsys, command, "--type", " A5", "--node", "2", "--format", "json")
        assert code == 0 and json.loads(out)["inputs"]["type"] == "A5", command


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


def _tree_parse(argv: list[str]):
    """vars() of the whole tree's Namespace, less the command and qh_command
    dests that nothing reads, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            full = vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code
    full.pop("command")
    full.pop("qh_command", None)
    return full


def _table_parse(argv: list[str]):
    name = _command_name(argv)
    return cli._parse_table(name, argv[len(name.split()) :])


def test_lazy_and_full_parsers_agree():
    # the table parse reads every command's valid line as the whole tree does
    for argv in EVERY_COMMAND:
        for fmt in ([], ["--format", "json"], ["--format", "table"]):
            assert vars(_table_parse(argv + fmt)) == _tree_parse(argv + fmt), argv + fmt


@st.composite
def command_lines(draw):
    """A command's words, then its flags (and --format) in any order, each with
    an int, string, negative, huge or bad value, and a few junk tokens among
    them: -h, --flag=value, abbreviations, --, repeated flags, leftovers."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    specs = dict([*cli.COMMANDS[name][1], cli._FORMAT])
    odd = st.one_of(
        st.integers(-(10**12), 10**12).map(str),
        st.sampled_from(["7", "8", "-1", "-0", "E6", "json", "x", "", "-", "--", "-1.5", "-.5",
                         " 3", "3_0", "1e3", "-1e3", "-x", "9" * 5000]),
    )
    tokens = []
    for flag in draw(st.permutations(list(specs))):
        spec = specs[flag]
        if draw(st.integers(0, 4)) < (4 if spec.get("required") else 2):
            tokens.append(flag)
            if "choices" in spec:
                fitting = st.sampled_from([str(c) for c in spec["choices"]])
            else:
                fitting = st.integers(-3, 12).map(str) if spec.get("type") is int else st.just("E6")
            if spec.get("action") != "store_true":
                tokens.append(draw(st.one_of(fitting, odd)))
            elif draw(st.integers(0, 9)) == 0:
                tokens.append(draw(odd))
    junk = st.sampled_from(["-h", "--help", "--k=3", "--format=json", "--for", "--sec", "--ty", "--with",
                            "--", "extra", "--bogus", "-1", *specs])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(junk))
    return name.split() + tokens


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_table_parse_agrees_with_the_tree(argv):
    table, tree = _table_parse(argv), _tree_parse(argv)
    if table is not None:
        assert vars(table) == tree, argv
    if tree == 2:
        assert table is None, argv


def test_entry_point_prints_what_run_prints(capsys):
    # an answer, a refusal and a usage error: exit code, stdout and stderr alike
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for argv, code in [("qh semisimple --k 3 --n 7 --format json", 0),
                       ("qh charpoly --k 5 --n 10 --power 160", 2),
                       ("qh semisimple --k 2 --n 4 extra", 2)]:
        assert cli.run(argv.split()) == code, argv
        expected = capsys.readouterr()
        assert (expected.err == "") == (code == 0), argv
        proc = subprocess.run([sys.executable, "-m", "qhgrass.cli", *argv.split()], capture_output=True, env=env,
                              timeout=60)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, expected.out, expected.err)
    assert expected.err.startswith("usage: qhgrass [-h]")


# -- the JSON writer, with json.dumps(doc, indent=2) as its oracle ---------------


@contextlib.contextmanager
def _int_digits_unlimited():
    """The window run writes a document in: no limit on int -> str digits."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_writer_matches_json_dumps_on_every_golden_document():
    from test_golden import DOCUMENTS

    for command in DOCUMENTS:
        args = cli._parse(command.split() + ["--format", "json"])
        doc = args.handler(args)
        assert cli._json(doc) == json.dumps(doc, indent=2), command


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\xe9\u20ac\U0001F600')))
_LEAVES = st.one_of(
    st.none(), st.booleans(), _TEXT, st.integers(),
    # over the 4,300 digits that int -> str allows by default
    st.builds(lambda m, e: m * 10**e + m, st.integers(-9, 9), st.integers(4300, 4500)),
)
_DOCUMENTS = st.recursive(_LEAVES, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                                            st.dictionaries(_TEXT, inner, max_size=4)),
                          max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_writer_matches_json_dumps_on_any_document(doc):
    with _int_digits_unlimited():
        assert cli._json(doc) == json.dumps(doc, indent=2)


def test_writer_refuses_what_no_document_holds():
    for value in (1.5, Fraction(1, 2), (1, 2), {1: "a"}, {"a": [0, 2.0]}, [{None: 1}]):
        with pytest.raises(TypeError):
            cli._json(value)


def test_no_command_calls_json_dumps(capsys, monkeypatch):
    calls = []
    for owner, name in ((json, "dumps"), (json.JSONEncoder, "encode"), (json.JSONEncoder, "iterencode")):
        monkeypatch.setattr(owner, name, lambda *args, name=name, **kwargs: calls.append(name))
    for argv in EVERY_COMMAND:
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["command"] == _command_name(argv), argv
    assert calls == []
