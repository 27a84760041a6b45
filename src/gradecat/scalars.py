"""Exact scalar arithmetic: cyclotomic numbers and rational quaternions.

Rationals are plain fractions.Fraction values.  A Cyclotomic is a residue
modulo the N-th cyclotomic polynomial with rational coefficients, i.e. an
element of Q(zeta_N); complex conjugation sends zeta_N to zeta_N^(N-1).
A RationalQuaternion has four rational components on the 1, i, j, k basis.
Every coefficient and component is kept in one normal form: an int when
it is integral, a Fraction only when it has a denominator, so integral
arithmetic runs on ints.  Every division goes through Fraction, and a float
or bool input is refused, so no floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _rational(c):
    """The exact rational c in normal form: an int when it is integral, else a
    Fraction with denominator > 1.  A float or bool is refused, because
    Fraction() would read 0.5 as 1/2 and True as 1."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, (bool, float)):
            raise TypeError(f"{c!r} is not an exact rational")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quotient(a, b):
    """a / b exactly, in normal form; int / int never makes a float."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for top in range(len(num) - 1, len(den) - 2, -1):
        shift = top - (len(den) - 1)
        q, r = divmod(num[top], den[-1])
        if r:
            raise ArithmeticError("polynomial division is not exact")
        out[shift] = q
        for i, c in enumerate(den):
            num[shift + i] -= q * c
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending order, monic."""
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _phi_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_phi(n: int, coeffs: list) -> list:
    """The residue of sum coeffs[i] x^i mod Phi_n: deg Phi_n coefficients in
    normal form."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for top in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[top]
        if c:
            shift = top - deg
            for i, p in enumerate(phi):
                coeffs[shift + i] -= c * p
    coeffs = [_rational(c) for c in coeffs[:deg]]
    coeffs += [0] * (deg - len(coeffs))
    return coeffs


@lru_cache(maxsize=None)
def _zeta_power(n: int, k: int) -> tuple[int, ...]:
    """zeta_n^k as a residue vector mod Phi_n."""
    k %= n
    mono = [0] * (k + 1)
    mono[k] = 1
    return tuple(_reduce_mod_phi(n, mono))


class Cyclotomic:
    """An element of Q(zeta_N), stored as a residue modulo Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        deg = _phi_degree(conductor)
        coeffs = [_rational(c) for c in coeffs]
        if len(coeffs) > deg:
            coeffs = _reduce_mod_phi(conductor, coeffs)
        coeffs += [0] * (deg - len(coeffs))
        self.conductor = conductor
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "Cyclotomic":
        return cls(conductor, [value])

    def promoted(self, conductor: int) -> "Cyclotomic":
        """The same value inside Q(zeta_conductor); self.conductor must divide it."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("can only promote to a multiple conductor")
        return self._substituted(conductor, conductor // self.conductor)

    def _substituted(self, conductor: int, power: int) -> "Cyclotomic":
        """The image under zeta_N^j -> zeta_conductor^(j * power), N = self.conductor.

        With conductor = N and power coprime to N this is the Galois
        automorphism zeta_N -> zeta_N^power of Q(zeta_N); with
        conductor = N * power it is the embedding into Q(zeta_conductor).
        """
        acc = [0] * _phi_degree(conductor)
        for j, c in enumerate(self.coeffs):
            if c:
                for i, x in enumerate(_zeta_power(conductor, j * power)):
                    acc[i] += c * x
        return Cyclotomic(conductor, acc)

    def _pair(self, other):
        if isinstance(other, Cyclotomic):
            n = math.lcm(self.conductor, other.conductor)
            return self.promoted(n), other.promoted(n)
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic.from_rational(other, self.conductor)
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Cyclotomic(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-x for x in self.coeffs])

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Cyclotomic(a.conductor, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        conv = [0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        return Cyclotomic(a.conductor, conv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclotomic.from_rational(1, self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, self.conductor)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # values of equal worth may live in different conductors

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta_N -> zeta_N^(N-1)."""
        return self._substituted(self.conductor, self.conductor - 1)

    def inverse(self) -> "Cyclotomic":
        """The product of the other Galois conjugates over the norm.

        The conjugates zeta_N -> zeta_N^k, k coprime to N, run over the
        embeddings of Q(zeta_N) (Phi_N is irreducible), so their product
        over all k is the rational norm of self, nonzero when self is.
        """
        if not self:
            raise ZeroDivisionError("inversion of zero cyclotomic")
        n = self.conductor
        others = Cyclotomic.from_rational(1, n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                others = others * self._substituted(n, k)
        norm = (self * others).coeffs[0]
        return Cyclotomic(n, [_quotient(c, norm) for c in others.coeffs])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self):
        """The value as an int or a Fraction; ValueError when it is irrational."""
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {[str(c) for c in self.coeffs]})"

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "Cyclotomic":
        # a "p/q" string is parsed; any other coefficient meets the constructor's gate
        return cls(data["conductor"],
                   [Fraction(c) if type(c) is str else c for c in data["coeffs"]])


def zeta(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^k as an exact cyclotomic value."""
    return Cyclotomic(n, _zeta_power(n, k))


class RationalQuaternion:
    """A quaternion with rational components on the (1, i, j, k) basis, each an
    int or a Fraction in normal form."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w = _rational(w)
        self.x = _rational(x)
        self.y = _rational(y)
        self.z = _rational(z)

    @classmethod
    def one(cls):
        return cls(1)

    @classmethod
    def i(cls):
        return cls(0, 1)

    @classmethod
    def j(cls):
        return cls(0, 0, 1)

    @classmethod
    def k(cls):
        return cls(0, 0, 0, 1)

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def _coerce(self, other):
        if isinstance(other, RationalQuaternion):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalQuaternion(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalQuaternion(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __neg__(self):
        return RationalQuaternion(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.components()
        e, f, g, h = o.components()
        return RationalQuaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "RationalQuaternion":
        return RationalQuaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        """w^2 + x^2 + y^2 + z^2 as an int or a Fraction in normal form."""
        return _rational(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def inverse(self) -> "RationalQuaternion":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inversion of zero quaternion")
        return RationalQuaternion(_quotient(self.w, n), _quotient(-self.x, n),
                                  _quotient(-self.y, n), _quotient(-self.z, n))

    def __bool__(self):
        return bool(self.w or self.x or self.y or self.z)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.components() == o.components()

    __hash__ = None

    def __repr__(self):
        return f"RationalQuaternion({self.w}, {self.x}, {self.y}, {self.z})"

    def to_json(self) -> list:
        return [str(c) for c in self.components()]
