"""Index-periodic Betti numbers and the semisimplicity obstruction screen.

A Fano manifold whose even quantum cohomology is generically semisimple must
have tilde_b(i) <= tilde_b(d*i) for all residues i mod r and all d >= 1, where
tilde_b sums even Betti numbers over residue classes of complex degree modulo
the Fano index r.  The screen searches for a violating pair; finding one is a
proof of non-semisimplicity, finding none proves nothing.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidInputError
from .rootdata import DynkinType, GrassmannianId, dimension, fano_index, poincare_polynomial

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


# witness: (i, d, lhs, rhs), or None
class ScreenVerdict(namedtuple("ScreenVerdict", "outcome witness", defaults=(None,))):
    __slots__ = ()

    @property
    def is_witness(self) -> bool:
        return self.outcome == WITNESS


def periodic_betti(profile: BettiProfile) -> dict[int, int]:
    """tilde_b on residues mod r: sums of b_{2j} over j in each class."""
    r = profile.index
    out = {i: 0 for i in range(r)}
    for j, b in enumerate(profile.even_betti):
        out[j % r] += b
    return out


def screen(profile: BettiProfile) -> ScreenVerdict:
    """Search for tilde_b(i) > tilde_b(d*i); first hit in lexicographic (i, d).

    d only needs to range over [1, r] since d*i mod r is r-periodic in d, so
    the search is finite and complete.
    """
    r = profile.index
    tb = periodic_betti(profile)
    for i in range(r):
        for d in range(1, r + 1):
            lhs, rhs = tb[i], tb[(d * i) % r]
            if lhs > rhs:
                return ScreenVerdict(WITNESS, (i, d, lhs, rhs))
    return ScreenVerdict(NO_OBSTRUCTION)


def profile_of(g: GrassmannianId) -> BettiProfile:
    """Betti profile of a generalized Grassmannian from its Poincare polynomial."""
    return BettiProfile(poincare_polynomial(g), fano_index(g), str(g))


# The 13 exceptional G/P_k whose non-semisimplicity the screen certifies,
# with the residue the source table displays (4 for F4/P4, 1 elsewhere).
EXCEPTIONAL_WITNESS_CASES = (
    ("E", 6, 2, 1),
    ("E", 6, 4, 1),
    ("E", 7, 1, 1),
    ("E", 7, 3, 1),
    ("E", 7, 6, 1),
    ("E", 8, 1, 1),
    ("E", 8, 2, 1),
    ("E", 8, 3, 1),
    ("E", 8, 5, 1),
    ("E", 8, 7, 1),
    ("E", 8, 8, 1),
    ("F", 4, 3, 1),
    ("F", 4, 4, 4),
)

# Exceptional cases where the screen finds nothing: four with unknown
# semisimplicity, plus E8/P4 which is known non-semisimple by other means.
EXCEPTIONAL_SILENT_CASES = (
    ("E", 7, 2),
    ("E", 7, 4),
    ("E", 7, 5),
    ("E", 8, 6),
    ("E", 8, 4),
)


ExceptionalRow = namedtuple("ExceptionalRow", "label dim index residue tilde_b tilde_b_neg verdict")


def exceptional_table() -> list[ExceptionalRow]:
    """The 13-row table of screen witnesses among exceptional-type G/P_k."""
    rows = []
    for family, rank, node, residue in EXCEPTIONAL_WITNESS_CASES:
        g = GrassmannianId(DynkinType(family, rank), node)
        p = profile_of(g)
        tb = periodic_betti(p)
        lhs, rhs = tb[residue % p.index], tb[-residue % p.index]
        verdict = WITNESS if lhs != rhs else NO_OBSTRUCTION
        rows.append(ExceptionalRow(str(g), dimension(g), p.index, residue, lhs, rhs, verdict))
    return rows
