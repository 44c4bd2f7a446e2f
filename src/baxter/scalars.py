"""Exact scalars: rationals and the quartic extension Q(i, sqrt2).

Every number in this package is either a Python int, a fractions.Fraction,
or an Ext value a + b*sqrt2 + c*i + d*i*sqrt2 with rational components.
Floats are rejected everywhere; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction

_RATIONAL_TYPES = (int, Fraction)


def _frac(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, _RATIONAL_TYPES):
        raise TypeError(f"exact rational required, got {type(x).__name__}")
    return Fraction(x)


class Ext:
    """Element a + b*sqrt2 + c*i + d*i*sqrt2 of Q(i, sqrt2).

    The four components are Fractions.  Multiplication uses sqrt2**2 = 2
    and i**2 = -1; the basis (1, sqrt2, i, i*sqrt2) is closed under it.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def __setattr__(self, name, value):
        raise AttributeError("Ext values are immutable")

    # -- conversions ---------------------------------------------------

    @classmethod
    def of(cls, x) -> "Ext":
        if isinstance(x, Ext):
            return x
        return cls(_frac(x))

    @property
    def is_rational(self) -> bool:
        return self.b == 0 and self.c == 0 and self.d == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.a

    def components(self):
        return (self.a, self.b, self.c, self.d)

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _RATIONAL_TYPES):
            other = Ext.of(other)
        if not isinstance(other, Ext):
            return NotImplemented
        return Ext(self.a + other.a, self.b + other.b,
                   self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return Ext(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        if isinstance(other, _RATIONAL_TYPES):
            other = Ext.of(other)
        if not isinstance(other, Ext):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _RATIONAL_TYPES):
            q = _frac(other)
            return Ext(self.a * q, self.b * q, self.c * q, self.d * q)
        if not isinstance(other, Ext):
            return NotImplemented
        a1, b1, c1, d1 = self.components()
        a2, b2, c2, d2 = other.components()
        return Ext(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 2 * b1 * d2 + 2 * d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    # -- field structure -----------------------------------------------

    def conj_i(self) -> "Ext":
        """Conjugate sending i -> -i."""
        return Ext(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "Ext":
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt2)")
        # z * conj_i(z) lands in Q(sqrt2); finish with the sqrt2 norm.
        w = self * self.conj_i()
        p, q = w.a, w.b
        norm = p * p - 2 * q * q  # nonzero: p = q*sqrt2 has no rational solution
        return self.conj_i() * Ext(p / norm, -q / norm)

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL_TYPES):
            other = Ext.of(other)
        if not isinstance(other, Ext):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        out = Ext(1)
        for _ in range(abs(exponent)):
            out = out * base
        return out

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _RATIONAL_TYPES):
            return self.is_rational and self.a == other
        if isinstance(other, Ext):
            return self.components() == other.components()
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash(self.components())

    def __bool__(self):
        return any(self.components())

    def __repr__(self):
        terms = []
        for value, unit in zip(self.components(), ("", "*sqrt2", "*i", "*i*sqrt2")):
            if value:
                terms.append(f"{value}{unit}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


SQRT2 = Ext(0, 1)
IM = Ext(0, 0, 1)


def is_exact_scalar(x) -> bool:
    return isinstance(x, _RATIONAL_TYPES + (Ext,)) and not isinstance(x, bool)
