"""Exact arithmetic in the cyclotomic field Q(zeta), zeta = e^{i*pi/6}.

Elements are kept reduced on the basis {1, zeta, zeta^2, zeta^3}; the
defining relation is the 12th cyclotomic polynomial

    zeta^4 = zeta^2 - 1.

Q(zeta) is the smallest field containing every scalar the package touches:

    i           = zeta^3
    omega       = e^{2*pi*i/3} = zeta^4      (primitive cube root of 1)
    conj(omega) = zeta^8
    sqrt(3)     = 2*zeta - zeta^3
    e^{-i*pi/3} = zeta^10

Coordinates are Fractions and every operation returns the reduced
representative, so field equality is plain coordinate equality.
"""

import math
from fractions import Fraction

# zeta^k on the basis {1, zeta, zeta^2, zeta^3} for k = 0..11.
_ZETA_POWERS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 1, 0),
    (0, -1, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0),
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, -1, 0),
    (0, 1, 0, -1),
)

# float image of zeta and its powers, for embed()
_ZC1 = complex(math.sqrt(3.0) / 2.0, 0.5)
_ZC2 = _ZC1 * _ZC1
_ZC3 = _ZC2 * _ZC1


class Cyclo:
    """An immutable element of Q(zeta12)."""

    __slots__ = ("_c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self._c = (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    @property
    def coords(self):
        return self._c

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        return Cyclo(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        a = self._c
        return Cyclo(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        r = [Fraction(0)] * 7
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        r[i + j] += ai * bj
        # fold zeta^4 = zeta^2 - 1, zeta^5 = zeta^3 - zeta, zeta^6 = -1
        return Cyclo(r[0] - r[4] - r[6], r[1] - r[5], r[2] + r[4], r[3] + r[5])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        return repeated_squaring(self, n, ONE)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes like one
        c = self._c
        return hash(c) if c[1] or c[2] or c[3] else hash(c[0])

    def __bool__(self):
        return any(self._c)

    # -- field structure ------------------------------------------------

    def galois(self, k):
        """The field automorphism zeta -> zeta^k, for k coprime to 12."""
        if k % 12 not in (1, 5, 7, 11):
            raise ValueError("zeta -> zeta^%d is not an automorphism" % k)
        out = [Fraction(0)] * 4
        for j, cj in enumerate(self._c):
            if cj:
                for m, base in enumerate(_ZETA_POWERS[(j * k) % 12]):
                    if base:
                        out[m] += cj * base
        return Cyclo(*out)

    def conj(self):
        """Complex conjugation, the automorphism zeta -> zeta^11."""
        return self.galois(11)

    def inv(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta12)")
        # product of the other three Galois conjugates; times self it is
        # the field norm, a nonzero rational
        b = self.galois(5) * self.galois(7) * self.galois(11)
        norm = (self * b).rational()
        return b._scaled(1 / norm)

    def _scaled(self, f):
        a = self._c
        return Cyclo(a[0] * f, a[1] * f, a[2] * f, a[3] * f)

    # -- views ------------------------------------------------------------

    def is_rational(self):
        c = self._c
        return not (c[1] or c[2] or c[3])

    def rational(self):
        """The element as a Fraction; raises if it is not rational."""
        if not self.is_rational():
            raise ValueError("not a rational element: %s" % (self,))
        return self._c[0]

    def embed(self):
        """Float-complex image under zeta -> cos(pi/6) + i*sin(pi/6)."""
        c = self._c
        return (
            complex(float(c[0]), 0.0)
            + float(c[1]) * _ZC1
            + float(c[2]) * _ZC2
            + float(c[3]) * _ZC3
        )

    def to_strings(self):
        """The four coordinates as exact rational strings."""
        return [str(x) for x in self._c]

    @classmethod
    def from_strings(cls, parts):
        if len(parts) != 4:
            raise ValueError("expected four coordinates, got %d" % len(parts))
        return cls(*(Fraction(p) for p in parts))

    def __repr__(self):
        return "Cyclo(%s, %s, %s, %s)" % self._c

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for k, c in enumerate(self._c):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mon = "z" if k == 1 else "z^%d" % k
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append("-" + mon)
                else:
                    parts.append("%s*%s" % (c, mon))
        out = parts[0]
        for p in parts[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out


def _coerce(x):
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo(x)
    return NotImplemented


def repeated_squaring(base, n, one):
    """base ** n for an integer n >= 0, starting from the unit one."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def zeta_pow(k):
    """zeta^k for any integer k."""
    return Cyclo(*_ZETA_POWERS[k % 12])


ZERO = Cyclo()
ONE = Cyclo(1)
ZETA = zeta_pow(1)
I = zeta_pow(3)
OMEGA = zeta_pow(4)
OMEGA_BAR = zeta_pow(8)
SQRT3 = Cyclo(0, 2, 0, -1)
