"""Univariate polynomials with exact rational coefficients, lowest degree first."""

from __future__ import annotations

from fractions import Fraction


class UniPoly:
    """Immutable polynomial; coefficients may be int or Fraction, always exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [
            int(c) if isinstance(c, Fraction) and c.denominator == 1 else c for c in coeffs
        ]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly([1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally of degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        """True when nonzero, as for ints and Fractions."""
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs or list(self.coeffs) == list(other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(Fraction(c) for c in self.coeffs))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] += a * b
            return UniPoly(out)
        return UniPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"
