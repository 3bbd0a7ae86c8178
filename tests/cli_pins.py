"""Every pinned CLI command, one row each, and run_pin, the one function the
tests run a pinned command with.

run_pin runs `qhgrass <argv>` in this interpreter through qhgrass.cli.run,
with stdout and stderr captured and every lru_cache of the loaded qhgrass
modules cleared first, so each command runs cold whatever ran before it.
A SIGALRM timer bounds it: a command still running when its timeout is up
raises PinTimeout, which nothing in qhgrass catches.  A timeout therefore
bounds the command in a warm interpreter with cold caches; interpreter
start-up (about 0.11 s) is not inside it.  test_cli_pins.py runs every row
of PINS, and test_golden.py runs its digested commands, with run_pin.

A row is the argv as one whitespace-separated string (no quoting), the exit
code, a timeout in seconds, and at most one expectation:

- sha256: the sha256 of stdout;
- results: a subset of the JSON document's "results";
- stderr_lines: the number of lines on stderr;
- stderr_prefix: the start of stderr.

Every row must also print no traceback, and nothing on stderr when it exits 0.
A new pin is a new row here; test_no_argv_is_pinned_twice keeps each argv in
one row.
"""

import contextlib
import io
import signal
import sys
from collections import namedtuple

from qhgrass import cli

EXPECTATIONS = ("sha256", "results", "stderr_lines", "stderr_prefix")
DEFAULT_TIMEOUT = 60
Pin = namedtuple("Pin", ("argv", "code", "timeout") + EXPECTATIONS,
                 defaults=(0, DEFAULT_TIMEOUT, None, None, None, None))


class PinTimeout(Exception):
    """A pinned command overran its timeout."""


def lru_caches() -> list:
    """Every functools.lru_cache of the loaded qhgrass modules, each once,
    although some (box_counts, schubert_basis, ...) are bound in several."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qhgrass"]
    return list(dict.fromkeys(f for m in modules for f in vars(m).values()
                              if callable(getattr(f, "cache_clear", None))))


def run_pin(argv: str, timeout: float = DEFAULT_TIMEOUT) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `qhgrass <argv>`, run cold in this
    interpreter; raises PinTimeout once it has run for timeout seconds."""
    for cache in lru_caches():
        cache.cache_clear()

    def overrun(signum, frame):
        raise PinTimeout(f"{argv!r} ran past its {timeout} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, overrun)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv.split())
        finally:
            # an alarm that fires here has spent the one-shot timer, and the
            # outer finally still restores the handler
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


PINS = [
    # each command runs with exit 0 and nothing on stderr
    Pin("--help"),
    Pin("qh semisimple --help"),
    Pin("core-search --k 3 --n 9 --format json"),
    Pin("core-search --k 12 --n 24 --format json"),
    # the edges core search admits: (20, 50) with 999,350 candidates, just
    # under the bound, and the wide side
    Pin("core-search --k 20 --n 50 --format json", timeout=5, results={"witnesses": []}),
    Pin("core-search --k 3 --n 300 --format json", timeout=5, results={"witnesses": []}),
    Pin("betti --type E8 --node 4 --format json"),
    Pin("screen --type F4 --node 4 --format json"),
    # a type parse_type normalizes echoes as parsed: these are the E6/P2 documents
    Pin("betti --type E06 --node 2 --format json",
        sha256="ac07d6278313baaad2fa3abd6dfdde47dad6dd1d43a1d4f49fe55331084d3429"),
    Pin("screen --type e06 --node 2 --format json",
        sha256="8939818a9513956ce322102eb49b26e98b235d291dff4eea206f09c8edd5eb62"),
    Pin("exceptional-table --format json"),
    Pin("qh semisimple --section --k 3 --n 6"),
    Pin("qh semisimple --section --k 3 --n 8"),
    Pin("qh semisimple --section --k 3 --n 7"),
    Pin("qh lefschetz --n 8"),
    Pin("qh lefschetz --n 7"),
    Pin("qh charpoly --section --k 3 --n 8 --power 5 --with-e2"),
    Pin("qh charpoly --section --k 3 --n 7 --power 6"),
    Pin("qh presentation --k 4 --n 8"),
    Pin("qh semisimple --k 4 --n 8"),
    Pin("qh charpoly --k 3 --n 8 --power 6 --with-e2"),
    Pin("snow --k 3 --n 6 --p 2 --twist 1"),
    Pin("snow --k 3 --n 1000000 --p 5 --twist 1"),
    Pin("hodge --k 3 --n 9"),
    Pin("hodge --section --k 3 --n 7"),
    Pin("screen --section --k 3 --n 8"),
    # relation checks hold, Gr(5, 10) is semisimple by the trace form, and the
    # section verdicts: (3, 6) not semisimple by the Betti screen, (3, 7) by the
    # trace form of the 30-dimensional ring, (3, 8) by the trace form of the
    # 49-dimensional perp subalgebra and monodromy for the 2-dimensional radical
    Pin("qh presentation --k 4 --n 8 --format json", results={"holds": True}),
    Pin("qh presentation --k 5 --n 10 --format json", results={"holds": True}),
    # Gr(1, 300) and Gr(2, 25): the relation check runs on the unit alone
    Pin("qh presentation --k 1 --n 300 --format json", timeout=5, results={"holds": True}),
    Pin("qh presentation --k 2 --n 25 --format json", timeout=5, results={"holds": True}),
    Pin("qh lefschetz --n 7 --format json", results={"holds": True}),
    Pin("qh lefschetz --n 8 --format json", results={"holds": True}),
    Pin("qh semisimple --k 5 --n 10 --format json",
        results={"semisimple": True, "method": "trace-form"}),
    Pin("qh semisimple --section --k 3 --n 6 --format json",
        results={"semisimple": False, "method": "betti-screen"}),
    Pin("qh semisimple --section --k 3 --n 7 --format json",
        results={"semisimple": True, "method": "trace-form",
                 "detail": "nondegenerate trace form on the 30-dimensional ring"}),
    Pin("qh semisimple --section --k 3 --n 8 --format json",
        results={"semisimple": True, "method": "trace-form+monodromy",
                 "detail": "nondegenerate trace form on the 49-dimensional perp subalgebra; "
                           "2-dimensional radical semisimple by the external monodromy argument"}),
    # the wide sides of (3, 7) and (3, 8), read on their narrow twins
    Pin("qh semisimple --section --k 4 --n 7 --format json",
        results={"semisimple": True, "method": "trace-form",
                 "detail": "nondegenerate trace form on the 30-dimensional ring"}),
    Pin("qh semisimple --section --k 5 --n 8 --format json",
        results={"semisimple": True, "method": "trace-form+monodromy",
                 "detail": "nondegenerate trace form on the 49-dimensional perp subalgebra; "
                           "2-dimensional radical semisimple by the external monodromy argument"}),
    # the e_1 charpolys of the wide sides (5, 8) and (4, 7), those of (3, 8) and (3, 7)
    Pin("qh charpoly --section --k 5 --n 8 --power 7 --format json",
        results={"charpoly": [0, 0, -6561, 7591111, -22779765, 22859427, -7712387, 49365, -1191, 1]}),
    Pin("qh charpoly --section --k 4 --n 7 --power 6 --format json",
        results={"charpoly": [128, -7309, -36250, 3828, -302, 1]}),
    # charpolys of Gr(5, 10), at power 100, at power 58 with e_2, and at power
    # 150, the largest the charpoly work bound admits (power 160 is refused)
    Pin("qh charpoly --k 5 --n 10 --power 100 --format json", timeout=5,
        sha256="929a03e1d4554070737c5af8a8af78eca0aad4f4fbb42085585d9d0971f175bc"),
    Pin("qh charpoly --k 5 --n 10 --power 58 --with-e2 --format json", timeout=5,
        sha256="0852d15bd6cbc04222581f85e6218c6db390e6f8f46cc288fef2b25a5fa8152b"),
    Pin("qh charpoly --k 5 --n 10 --power 150 --format json", timeout=5,
        sha256="aa03ebccd6b454ff922dee138b81eaa8b87af8cb94ab48ef6554afd34764cdbb"),
    # section Hodge diamonds and the (3, 8) section screen.  The Hodge-Tate
    # verdicts follow the A-D-E bound: yes for (3, 8), no for the dim = 2n boxes
    # (3, 9) and (4, 8), which take the full diamond
    Pin("hodge --section --k 3 --n 8 --format json",
        sha256="0d583569892b3281d8beeb54137487a3fdd9c8172b047939f254ca1850cc47b6"),
    Pin("hodge --section --k 3 --n 9 --format json",
        sha256="82a8726f3839c475ceaeeeb93b1b30cabbefb8e4a6c5943d3dddcc6470de2945"),
    Pin("hodge --section --k 4 --n 8 --format json",
        sha256="5b8ae1f14d1bbb905e2a97b3eca1e6d55bda96def01a02953d4f93c26d8d481f"),
    Pin("hodge --section --k 2 --n 10 --format json",
        sha256="05cdb3ba638e8baba69edf31d638406ff0aecb52c6d050746957e8f2d8ad38f6"),
    Pin("hodge --section --k 5 --n 10 --format json",
        sha256="abdafef3f5625cd002930dc5a344aa95cc377e8277d488d56b002b39ea2b347e"),
    Pin("screen --section --k 3 --n 8 --format json",
        sha256="3a021573f4b5fc1244b15ef7815c0c1b56ddb90055613385c563ba1672797f3c"),
    # a section of the wide side, read on its narrow twin (3, 8)
    Pin("hodge --section --k 5 --n 8 --format json", timeout=10,
        sha256="2dff72967222fb0fb06b19e90080e485668afec6994e88f1554e855e557fd702"),
    Pin("screen --section --k 5 --n 8 --format json", timeout=10,
        sha256="9e939c3db2c7ef41f119d92ec88c5cc5f54607271301086b087c10873aaa23da"),
    # wide boxes: the first four from the hook-content kernel; the last three,
    # extremes the partition count admits, from the beta-set kernel, whose
    # (2, 100) section sums equal euler_sums_by_hooks'
    Pin("hodge --k 999 --n 1000 --format json", timeout=10,
        sha256="899015d8770dd1ebe5a32b4792f399ad7d5f0ac26cb83ea5f191a33809bb30c1"),
    Pin("hodge --k 1 --n 1000 --format json", timeout=10,
        sha256="6524d0e374cf597e2996c9fff834bc01363d1ef0af24f7034a871580efc77728"),
    Pin("hodge --section --k 7 --n 14 --format json", timeout=10,
        sha256="ab36abf92a79809dba233baffe860cf1cfdf8a24307bcda8b693a8c201f81fe1"),
    Pin("hodge --section --k 2 --n 70 --format json", timeout=10,
        sha256="9ee9cc9fbffeaff29603cf6c657725b7166eab19b7c1f6e536278aa0e95af2c3"),
    Pin("hodge --k 1 --n 2500 --format json", timeout=10,
        sha256="8027e2d46bbf93a6ec43061b9aebd47fa4989acb44e0737ec31d5d76200c16d2"),
    Pin("hodge --section --k 2 --n 100 --format json", timeout=10,
        sha256="c2235cfc2a666ebe1e8ad35d138983d049c54610f4e262031c61610898f22cc4"),
    Pin("hodge --section --k 1 --n 5000 --format json", timeout=10,
        sha256="ae4a7eed0d5a992836b41fb2b2c97be6942ccbd6929e3cc8b9ec15a849ceca2c"),
    # a snow partition of 1,500 parts and one of 3,000,000 cells
    Pin("snow --k 2000 --n 2001 --p 1500 --twist 1", timeout=5),
    Pin("snow --k 1 --n 100000000 --p 3000000 --twist 0", timeout=5),
    # refused up front with one line on stderr: a misaligned charpoly power, a
    # charpoly over the work bound, an oversized Dynkin type, core search, snow
    # (a negative twist among them) and chi_y, and the other mode's flags given
    # to screen, a --seed among them
    Pin("qh charpoly --k 5 --n 10 --power 11", code=2, timeout=5, stderr_lines=1),
    Pin("qh charpoly --k 5 --n 10 --power 160", code=2, timeout=5, stderr_lines=1),
    Pin("qh charpoly --section --k 3 --n 8 --power 6", code=2, timeout=5, stderr_lines=1),
    Pin("qh charpoly --k 1 --n 3 --power 1 --with-e2", code=2, timeout=5, stderr_lines=1),
    # the section charpoly keeps the wide side refused: duality sends e_2 to
    # sigma_2, not to sigma_{1,1}, so a --with-e2 charpoly is not invariant
    Pin("qh charpoly --section --k 5 --n 8 --power 7 --with-e2", code=2, timeout=5,
        stderr_prefix="error: no section ring for (k, n) = (5, 8)\n"),
    Pin("betti --type A1000 --node 500", code=2, timeout=5, stderr_lines=1),
    Pin("core-search --k 3 --n 100000", code=2, timeout=5, stderr_lines=1),
    Pin("core-search --k 3 --n 100000000", code=2, timeout=5, stderr_lines=1),
    Pin("snow --k 10 --n 40 --p 100 --twist 1", code=2, timeout=5, stderr_lines=1),
    Pin("snow --k 3 --n 6 --p 2 --twist -1", code=2, timeout=5, stderr_lines=1),
    Pin("snow --k 3 --n 100000000 --p 10000000 --twist 1", code=2, timeout=5, stderr_lines=1),
    Pin("hodge --k 5 --n 20", code=2, timeout=5, stderr_lines=1),
    Pin("hodge --section --k 7 --n 30", code=2, timeout=5, stderr_lines=1),
    # past n ~ 10^17 the box count's logarithm must not cancel to 0, or the
    # exact count of 10^174341 would be taken and formatted
    Pin("hodge --k 10000 --n 1000000000000000000000", code=2, timeout=5, stderr_lines=1),
    Pin("qh semisimple --k 10000 --n 1000000000000000000000", code=2, timeout=5, stderr_lines=1),
    # past n ~ 1.8 x 10^308 the count's logarithm must not make n a float,
    # or the refusal is an OverflowError: n = 10^400, 10^309 and 10^400
    Pin("hodge --k 2 --n 1" + "0" * 400, code=2, timeout=5, stderr_lines=1),
    Pin("qh semisimple --k 2 --n 1" + "0" * 309, code=2, timeout=5, stderr_lines=1),
    Pin("screen --section --k 2 --n 1" + "0" * 400, code=2, timeout=5, stderr_lines=1),
    Pin("screen --section --k 3 --n 8 --type E7", code=2, timeout=5, stderr_lines=1),
    Pin("screen --type E7 --node 2 --k 3", code=2, timeout=5, stderr_lines=1),
    Pin("screen --type E7 --node 2 --seed 5", code=2, timeout=5, stderr_lines=1),
    # a command line the table parse does not accept, here one with a leftover
    # argument, goes to the whole tree and gets the top-level usage
    Pin("qh semisimple --k 2 --n 4 extra", code=2, timeout=5, stderr_prefix="usage: qhgrass [-h]"),
]
