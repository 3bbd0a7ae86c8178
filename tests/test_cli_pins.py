"""Run every row of cli_pins.PINS through cli_pins.run_pin, and test the runner.

Each row runs in this interpreter with every qhgrass cache cleared first, so
its timeout bounds the command in a warm interpreter with cold caches;
interpreter start-up (about 0.11 s) is no longer inside it.  The entry point
`python -m qhgrass.cli` itself is run as a subprocess only by test_cli.py.
"""

import hashlib
import json
import signal
import time

import pytest

from cli_pins import EXPECTATIONS, PINS, PinTimeout, lru_caches, run_pin
from qhgrass import cli, hodge, partitions, quantum, section


def _expectations(pin):
    return [name for name in EXPECTATIONS if getattr(pin, name) is not None]


def _as_run(argv):
    """argv as run: a missing --format reads as the default, table."""
    return argv if "--format" in argv.split() else f"{argv} --format table"


def test_no_argv_is_pinned_twice():
    # a second row with the same argv runs the command again; one row, one run
    argvs = [_as_run(pin.argv) for pin in PINS]
    assert sorted({argv for argv in argvs if argvs.count(argv) > 1}) == []


def test_every_refusal_is_pinned_with_a_short_timeout():
    # a refusal is made up front, before any heavy work; one that stops being
    # so overruns its timeout
    assert [pin.argv for pin in PINS if pin.code == 2 and pin.timeout > 5] == []


def _run_and_check_the_timer(argv, timeout):
    handler = signal.getsignal(signal.SIGALRM)
    try:
        return run_pin(argv, timeout)
    finally:
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler


@pytest.mark.parametrize("pin", [pytest.param(pin, id=" ".join([pin.argv, *_expectations(pin)]))
                                 for pin in PINS])
def test_cli_pin(pin):
    assert len(_expectations(pin)) <= 1, "a row holds at most one expectation"
    code, out, err = _run_and_check_the_timer(pin.argv, pin.timeout)
    assert code == pin.code, err
    assert "Traceback" not in err, err
    if pin.code == 0:
        assert err == "", err
    if pin.sha256 is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == pin.sha256
    if pin.results is not None:
        results = json.loads(out)["results"]
        assert {key: results.get(key) for key in pin.results} == pin.results
    if pin.stderr_lines is not None:
        assert err.count("\n") == pin.stderr_lines, err
    if pin.stderr_prefix is not None:
        assert err.startswith(pin.stderr_prefix), err


def test_a_row_that_overruns_its_timeout_fails(monkeypatch):
    pin = next(pin for pin in PINS if pin.argv.startswith("qh presentation"))
    monkeypatch.setattr(cli, "_cmd_qh_presentation", lambda args: time.sleep(1))
    start = time.monotonic()
    with pytest.raises(PinTimeout):
        _run_and_check_the_timer(pin.argv, 0.2)
    assert time.monotonic() - start < 0.9


def test_a_command_sees_every_cache_cold(monkeypatch):
    caches = lru_caches()
    warm = [(section.build_ring, (3, 6)), (quantum.grassmannian, (partitions.Box(2, 4),)),
            (hodge.diamond, (3, 6)), (partitions.box_counts, (2, 4))]
    for cache, args in warm:
        assert cache in caches
        cache(*args)
        assert cache.cache_info().currsize
    seen = []
    handler = cli._cmd_qh_lefschetz
    monkeypatch.setattr(cli, "_cmd_qh_lefschetz",
                        lambda args: seen.append([cache.cache_info().currsize for cache in caches]) or handler(args))
    assert _run_and_check_the_timer("qh lefschetz --n 7", 60)[0] == 0
    assert seen == [[0] * len(caches)]
