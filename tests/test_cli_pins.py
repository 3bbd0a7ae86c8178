"""Run every row of cli_pins.PINS as `python -m qhgrass.cli` in a subprocess."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from cli_pins import EXPECTATIONS, PINS
from qhgrass import cli

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


def _expectations(pin):
    return [name for name in EXPECTATIONS if getattr(pin, name) is not None]


def test_no_argv_is_pinned_twice():
    # a second row with the same argv runs the command again; one row, one run
    argvs = [pin.argv for pin in PINS]
    assert sorted({argv for argv in argvs if argvs.count(argv) > 1}) == []


def test_every_refusal_is_pinned_with_a_short_timeout():
    # a refusal is made up front, before any heavy work; one that stops being
    # so overruns its timeout
    assert [pin.argv for pin in PINS if pin.code == 2 and pin.timeout > 5] == []


@pytest.mark.parametrize("pin", [pytest.param(pin, id=" ".join([pin.argv, *_expectations(pin)]))
                                 for pin in PINS])
def test_cli_pin(pin):
    assert len(_expectations(pin)) <= 1, "a row holds at most one expectation"
    proc = subprocess.run([sys.executable, "-m", "qhgrass.cli", *pin.argv.split()],
                          capture_output=True, env=ENV, timeout=pin.timeout)
    err = proc.stderr.decode()
    assert proc.returncode == pin.code, err
    assert "Traceback" not in err, err
    if pin.code == 0:
        assert err == "", err
    if pin.sha256 is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == pin.sha256
    if pin.results is not None:
        results = json.loads(proc.stdout)["results"]
        assert {key: results.get(key) for key in pin.results} == pin.results
    if pin.stderr_lines is not None:
        assert err.count("\n") == pin.stderr_lines, err
    if pin.stderr_prefix is not None:
        assert err.startswith(pin.stderr_prefix), err
