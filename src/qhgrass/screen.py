"""Index-periodic Betti numbers and the semisimplicity obstruction screen.

A Fano manifold whose even quantum cohomology is generically semisimple must
have tilde_b(i) <= tilde_b(d*i) for all residues i mod r and all d >= 1, where
tilde_b sums even Betti numbers over residue classes of complex degree modulo
the Fano index r.  The screen searches for a violating pair; finding one is a
proof of non-semisimplicity, finding none proves nothing.

Every decision is one record, Verdict(holds, method, certificate): holds is
True or False when the method decides and None when it does not, and the
certificate is plain ints and tuples, never prose; the CLI words it.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidInputError
from .rootdata import DynkinType, GrassmannianId, dimension, fano_index, poincare_polynomial

# the screen's outcome as its documents name it: holds None, holds False
NO_OBSTRUCTION = "NoObstruction"
WITNESS = "Witness"


class BettiProfile(namedtuple("BettiProfile", "even_betti index label")):
    """Even Betti numbers b_0, b_2, ..., b_{2 dim} plus the Fano index."""

    __slots__ = ()

    def __new__(cls, even_betti: tuple[int, ...], index: int, label: str = ""):
        if index < 1:
            raise InvalidInputError("Fano index must be positive")
        if any(b < 0 for b in even_betti):
            raise InvalidInputError("Betti numbers must be nonnegative")
        return super().__new__(cls, even_betti, index, label)


Verdict = namedtuple("Verdict", "holds method certificate")


def periodic_betti(profile: BettiProfile) -> dict[int, int]:
    """tilde_b on residues mod r: sums of b_{2j} over j in each class."""
    r = profile.index
    out = {i: 0 for i in range(r)}
    for j, b in enumerate(profile.even_betti):
        out[j % r] += b
    return out


def screen(profile: BettiProfile) -> Verdict:
    """Search for tilde_b(i) > tilde_b(d*i); the first hit in lexicographic
    (i, d) is the certificate (i, d, lhs, rhs) of holds False, and no hit
    leaves holds None.

    d only needs to range over [1, r] since d*i mod r is r-periodic in d, so
    the search is finite and complete.
    """
    r = profile.index
    tb = periodic_betti(profile)
    for i in range(r):
        for d in range(1, r + 1):
            lhs, rhs = tb[i], tb[(d * i) % r]
            if lhs > rhs:
                return Verdict(False, "betti-screen", (i, d, lhs, rhs))
    return Verdict(None, "betti-screen", None)


def asymmetry(profile: BettiProfile) -> tuple[int, int, int] | None:
    """The least i >= 1 with tilde_b(i) != tilde_b(-i), as (i, tilde_b(i),
    tilde_b(-i)), or None.  The larger side violates the screen's
    inequality at d = r - 1, so an asymmetry implies a witness."""
    r = profile.index
    tb = periodic_betti(profile)
    for i in range(1, r):
        if tb[i] != tb[-i % r]:
            return i, tb[i], tb[-i % r]
    return None


def profile_of(g: GrassmannianId) -> BettiProfile:
    """Betti profile of a generalized Grassmannian from its Poincare polynomial."""
    return BettiProfile(poincare_polynomial(g), fano_index(g), str(g))


EXCEPTIONAL_TYPES = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))

ExceptionalRow = namedtuple("ExceptionalRow", "label dim index residue tilde_b tilde_b_neg verdict")


def exceptional_table() -> list[ExceptionalRow]:
    """The screen witnesses among the 27 exceptional-type G/P_k, in Dynkin
    order, each with its asymmetry: residue 4 on F4/P4 and 1 on the other 12."""
    rows = []
    for family, rank in EXCEPTIONAL_TYPES:
        for node in range(1, rank + 1):
            g = GrassmannianId(DynkinType(family, rank), node)
            p = profile_of(g)
            if screen(p).holds is False:
                i, lhs, rhs = asymmetry(p)
                rows.append(ExceptionalRow(str(g), dimension(g), p.index, i, lhs, rhs, WITNESS))
    return rows
