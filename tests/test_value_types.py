"""The value types: tuples with named fields, checked when built, immutable,
and equal and hashed by value; and the polynomials, plain tuples of
coefficients."""

import json
import re
from fractions import Fraction

import pytest

from cli_pins import PINS, run_pin
from oracles import SMALL_TYPES, euler_number
from qhgrass import cli, hodge, linalg, quantum, screen, section
from qhgrass.errors import InvalidInputError
from qhgrass.hodge import HodgeDiamond
from qhgrass.partitions import Box
from qhgrass.rootdata import DynkinType, GrassmannianId, poincare_polynomial
from qhgrass.screen import BettiProfile, ExceptionalRow, Verdict

# each type with the fields of one value, and a second value differing in one field
EXAMPLES = [
    (Box, (3, 6), (3, 7)),
    (DynkinType, ("E", 6), ("E", 7)),
    (GrassmannianId, (DynkinType("E", 6), 2), (DynkinType("E", 6), 4)),
    (BettiProfile, ((1, 1, 2), 3, "toy"), ((1, 1, 2), 3, "other")),
    (Verdict, (False, "betti-screen", (1, 2, 3, 2)), (None, "betti-screen", None)),
    (ExceptionalRow, ("E6/P2", 21, 11, 1, 5, 4, "Witness"), ("E6/P2", 21, 11, 1, 5, 5, "Witness")),
    (HodgeDiamond, (1, (1, 1), (0, 0), (1, -1)), (1, (1, 1), (0, 0), (1, 1))),
    (Verdict, (True, "diamond", ()), (False, "middle-row-jump", (5, 9, 1))),
    (Verdict, (True, "trace-form", (30,)), (False, "trace-form", (30,))),
]
# a Verdict is named by the method of its first value
NAMES = [cls.__name__ + (f"-{fields[1]}" if cls is Verdict else "") for cls, fields, _ in EXAMPLES]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Box(0, 3), "need 1 <= k <= n-1, got k=0, n=3"),
        (lambda: Box(3, 3), "need 1 <= k <= n-1, got k=3, n=3"),
        (lambda: DynkinType("E", 9), "rank 9 invalid for type E"),
        (lambda: DynkinType("X", 3), "unknown family 'X'"),
        (lambda: GrassmannianId(DynkinType("E", 6), 7), "node 7 out of range for E6"),
        (lambda: BettiProfile((1,), 0), "Fano index must be positive"),
        (lambda: BettiProfile((-1,), 2), "Betti numbers must be nonnegative"),
    ],
)
def test_invalid_values_are_refused(build, message):
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("cls, fields, _", EXAMPLES, ids=NAMES)
def test_values_are_immutable(cls, fields, _):
    value = cls(*fields)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], fields[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*fields)


@pytest.mark.parametrize("cls, fields, other", EXAMPLES, ids=NAMES)
def test_values_are_equal_and_hashed_by_value(cls, fields, other):
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != cls(*other)
    assert len({a, b, cls(*other)}) == 2


def test_repr_str_defaults_and_properties():
    assert repr(Box(3, 6)) == "Box(k=3, n=6)"
    assert str(DynkinType("E", 6)) == "E6"
    assert str(GrassmannianId(DynkinType("E", 6), 2)) == "E6/P2"
    assert Box(3, 6).cols == 3 and Box(3, 6).dual((2, 1)) == (3, 2, 1)
    assert BettiProfile((1, 1, 2), 3).label == "" and euler_number(BettiProfile((1, 1, 2), 3)) == 4
    assert Verdict(None, "betti-screen", None).certificate is None
    assert Verdict(False, "betti-screen", (1, 2, 3, 2)).holds is False
    assert Verdict(None, "betti-screen", None).holds is None


def _plain(value) -> bool:
    return type(value) is int or type(value) is tuple and all(map(_plain, value))


def test_every_golden_verdict_holds_true_false_or_none_by_identity():
    # from the screen on the 220 G/P_k of SMALL_TYPES and the three section
    # profiles, section_semisimplicity on every supported section and its
    # twin, and is_hodge_tate on every box with n <= 12; every certificate
    # is plain ints and tuples, or None
    verdicts = [screen.screen(screen.profile_of(GrassmannianId(t, node)))
                for t in SMALL_TYPES for node in range(1, t.rank + 1)]
    verdicts += [screen.screen(hodge.section_profile(3, n)) for n in (6, 7, 8)]
    verdicts += [section.section_semisimplicity(k, n) for n in (6, 7, 8) for k in (3, n - 3)]
    verdicts += [hodge.is_hodge_tate(k, n) for n in range(2, 13) for k in range(1, n // 2 + 1)]
    assert len(verdicts) == 220 + 3 + 6 + 36
    for v in verdicts:
        assert type(v) is Verdict, v
        assert any(v.holds is x for x in (True, False, None)), v
        assert v.certificate is None or _plain(v.certificate), v
    assert {v.holds for v in verdicts} == {True, False, None}


def test_every_semisimple_document_is_worded_from_its_returned_verdict(monkeypatch):
    # every exit-0 qh semisimple pin, run as JSON: its results are the record
    # that quantum.qh_semisimple or section.section_semisimplicity returned
    returned = []
    for module, name in [(quantum, "qh_semisimple"), (section, "section_semisimplicity")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original: returned.append(f(*args)) or returned[-1])
    argvs = [re.sub(r" --format \w+", "", pin.argv) + " --format json" for pin in PINS
             if pin.argv.startswith("qh semisimple ") and pin.code == 0 and "--help" not in pin.argv]
    # ten rows, seven commands: three are pinned in both formats
    argvs = list(dict.fromkeys(argvs))
    assert len(argvs) >= 7
    for argv in argvs:
        returned.clear()
        code, out, err = run_pin(argv)
        assert (code, err, len(returned)) == (0, "", 1), argv
        v, doc = returned[0], json.loads(out)
        assert type(v) is Verdict, argv
        expected = {"semisimple": v.holds, "method": v.method, "detail": cli._detail(v, doc["inputs"]["n"] - 1)}
        assert doc["results"] == expected, argv


def test_polynomials_are_tuples_of_exact_coefficients(capsys, monkeypatch):
    # every polynomial is its coefficients, lowest degree first: a tuple whose
    # last entry is nonzero, each entry an int or a Fraction that is not one
    polys = [hodge.chi_y(k, n, section) for n in range(2, 13) for k in range(1, n) for section in (False, True)]
    polys += [poincare_polynomial(GrassmannianId(t, node)) for t in SMALL_TYPES for node in range(1, t.rank + 1)]
    # and every charpoly the pinned qh charpoly commands take, at each layer
    for module, name in [(linalg, "charpoly"), (quantum, "e_power_charpoly"), (section, "section_charpoly")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original, **kw: polys.append(f(*args, **kw)) or polys[-1])
    argvs = [pin.argv.split() for pin in PINS if pin.argv.startswith("qh charpoly") and pin.code == 0]
    for argv in argvs:
        assert cli.run(argv) == 0, argv
    capsys.readouterr()
    assert len(argvs) >= 8 and len(polys) == 2 * 66 + 220 + 2 * len(argvs)
    for poly in polys:
        assert type(poly) is tuple and poly and poly[-1] != 0, poly
        assert all(type(c) is int or type(c) is Fraction and c.denominator != 1 for c in poly), poly
