"""Polynomials in at most two variables over the exact scalars.

Coefficients are ints, Fractions, or Ext values.  A Poly keeps a table
mapping exponent tuples to nonzero coefficients; variables are kept in
canonical (sorted) order, so equal polynomials compare equal.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Ext, is_exact_scalar

MAX_VARS = 2


def _unify(vars_a, vars_b):
    union = sorted(set(vars_a) | set(vars_b))
    if len(union) > MAX_VARS:
        raise ValueError(f"more than {MAX_VARS} variables: {union}")
    return tuple(union)


def _relabel(coeffs, old_vars, new_vars):
    positions = [new_vars.index(v) for v in old_vars]
    out = {}
    for exps, value in coeffs.items():
        new_exps = [0] * len(new_vars)
        for pos, e in zip(positions, exps):
            new_exps[pos] = e
        out[tuple(new_exps)] = value
    return out


class Poly:
    __slots__ = ("vars", "coeffs")

    def __init__(self, vars=(), coeffs=None):
        vars = tuple(vars)
        if len(vars) > MAX_VARS:
            raise ValueError(f"more than {MAX_VARS} variables: {vars}")
        if list(vars) != sorted(set(vars)):
            raise ValueError(f"variables must be sorted and distinct: {vars}")
        table = {}
        for exps, value in (coeffs or {}).items():
            exps = tuple(exps)
            if len(exps) != len(vars) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent {exps} for variables {vars}")
            if not is_exact_scalar(value) and not isinstance(value, Poly):
                raise TypeError(f"inexact coefficient {value!r}")
            if value:
                table[exps] = table[exps] + value if exps in table else value
                if not table[exps]:
                    del table[exps]
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "coeffs", table)

    def __setattr__(self, name, value):
        raise AttributeError("Poly values are immutable")

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls((name,), {(1,): 1})

    @classmethod
    def univariate(cls, name: str, ascending) -> "Poly":
        return cls((name,), {(e,): c for e, c in enumerate(ascending)})

    @classmethod
    def lift(cls, value, vars=()) -> "Poly":
        if isinstance(value, Poly):
            return value
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): value})

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.coeffs)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.coeffs.values())) if self.coeffs else 0

    def degree(self, var=None) -> int:
        """Degree in one variable, or total degree; zero poly has degree 0."""
        if not self.coeffs:
            return 0
        if var is None:
            return max(sum(e) for e in self.coeffs)
        i = self.vars.index(var)
        return max(e[i] for e in self.coeffs)

    def coefficient(self, exps):
        if isinstance(exps, int):
            exps = (exps,)
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise ValueError(f"exponent {exps} does not match {self.vars}")
        return self.coeffs.get(exps, 0)

    def monomials(self):
        """(exponents, coefficient) pairs in lexicographic exponent order."""
        return [(e, self.coeffs[e]) for e in sorted(self.coeffs)]

    # -- arithmetic ------------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, Poly):
            if not is_exact_scalar(other):
                return None, None
            other = Poly.lift(other)
        vars = _unify(self.vars, other.vars)
        return (_relabel(self.coeffs, self.vars, vars),
                _relabel(other.coeffs, other.vars, vars)), vars

    def __add__(self, other):
        pair, vars = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        out = dict(a)
        for exps, value in b.items():
            out[exps] = out.get(exps, 0) + value
        return Poly(vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        pair, vars = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        out = dict(a)
        for exps, value in b.items():
            out[exps] = out.get(exps, 0) - value
        return Poly(vars, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair, vars = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Poly(vars, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Poly):
            other = other.constant_value()
        if not is_exact_scalar(other):
            return NotImplemented
        inv = other.inverse() if isinstance(other, Ext) else Fraction(1) / other
        return self * inv

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = Poly.lift(1, self.vars)
        for _ in range(exponent):
            out = out * self
        return out

    # -- evaluation ------------------------------------------------------

    def substitute(self, assignment: dict):
        """Replace variables by scalars or polynomials; exact throughout.

        Returns a scalar when nothing symbolic remains.
        """
        for name in assignment:
            if name not in self.vars:
                raise ValueError(f"unknown variable {name!r} (have {self.vars})")
        replacements = []
        for i, name in enumerate(self.vars):
            if name in assignment:
                replacements.append((i, Poly.lift(assignment[name])))
            else:
                replacements.append((i, Poly.variable(name)))
        # Cache powers of each replacement, exponents are small.
        powers = [{0: Poly.lift(1)} for _ in self.vars]

        def power(i, e):
            table = powers[i]
            if e not in table:
                table[e] = power(i, e - 1) * replacements[i][1]
            return table[e]

        total = Poly.lift(0)
        for exps, value in self.coeffs.items():
            term = Poly.lift(value)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            total = total + term
        if total.is_constant():
            return total.constant_value()
        return total

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            vars = _unify(self.vars, other.vars)
            return (_relabel(self.coeffs, self.vars, vars)
                    == _relabel(other.coeffs, other.vars, vars))
        if is_exact_scalar(other):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.vars, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exps, value in self.monomials():
            factors = []
            if value != 1 or not any(exps):
                text = str(value)
                factors.append(f"({text})" if ("/" in text or " " in text) else text)
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)
