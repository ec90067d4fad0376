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

An element is stored as four int numerators over one positive int
denominator, (n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / d, reduced so that
gcd(n0, n1, n2, n3, d) = 1, with zero stored as (0, 0, 0, 0) / 1: the
layout FLINT uses for fmpq_poly.  Every operation returns that reduced
representative, so field equality is plain equality of representatives,
and the field arithmetic is integer products plus one gcd per result.
An int or Fraction operand of `*`, and a rational `Cyclo` times an
irrational one, take the scaling route, `Cyclo._scaled`: four numerator
products and one denominator product, with no field product and no
inverse; `/` multiplies by the inverse of its coerced divisor.  A sum or
product of two rational elements takes the rational route, `_rational`:
one numerator, one denominator and one gcd of the two.
`coords` gives the four coordinates as reduced Fractions; the constructor
takes ints and Fractions and raises TypeError for anything else, a float
included.

The module also holds the package's shared routines: `repeated_squaring`;
`_accumulate`, which adds a dict of nonzero terms into another (the sums of
`Poly2` and `Series`, substitution and the Taylor sums); and `_signed_sum`,
the one text rule for a signed sum of monomials (`Cyclo`, `Poly2` and the
CLI's CSV cells).
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

    __slots__ = ("_n", "_d")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        cs = (c0, c1, c2, c3)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("a Cyclo coordinate is an int or a Fraction, not %r" % (c,))
        d = math.lcm(*(c.denominator for c in cs))
        # over the lcm of reduced denominators no prime divides d and every
        # numerator, so the representative is already reduced
        self._n = tuple(c.numerator * (d // c.denominator) for c in cs)
        self._d = d

    @property
    def coords(self):
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        ad, bd = self._d, other._d
        if not (a1 or a2 or a3 or b1 or b2 or b3):
            return _rational(a0 * bd + b0 * ad, ad * bd)
        if ad == bd:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _reduced(
            a0 * bd + b0 * ad,
            a1 * bd + b1 * ad,
            a2 * bd + b2 * ad,
            a3 * bd + b3 * ad,
            ad * bd,
        )

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
        a0, a1, a2, a3 = self._n
        return _raw((-a0, -a1, -a2, -a3), self._d)

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        if not (b1 or b2 or b3):
            if not (a1 or a2 or a3):
                return _rational(a0 * b0, self._d * other._d)
            return self._scaled(b0, other._d)
        if not (a1 or a2 or a3):
            return other._scaled(a0, self._d)
        # the zeta^4, zeta^5 and zeta^6 coefficients of the product, folded
        # by zeta^4 = zeta^2 - 1, zeta^5 = zeta^3 - zeta, zeta^6 = -1
        r4 = a1 * b3 + a2 * b2 + a3 * b1
        r5 = a2 * b3 + a3 * b2
        r6 = a3 * b3
        return _reduced(
            a0 * b0 - r4 - r6,
            a0 * b1 + a1 * b0 - r5,
            a0 * b2 + a1 * b1 + a2 * b0 + r4,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + r5,
            self._d * other._d,
        )

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
        if not isinstance(other, Cyclo):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes like one
        if self.is_rational():
            return hash(self.rational())
        return hash((self._n, self._d))

    def __bool__(self):
        return self._n != (0, 0, 0, 0)

    # -- field structure ------------------------------------------------

    def galois(self, k):
        """The field automorphism zeta -> zeta^k, for k coprime to 12."""
        if k % 12 not in (1, 5, 7, 11):
            raise ValueError("zeta -> zeta^%d is not an automorphism" % k)
        out = [0, 0, 0, 0]
        for j, cj in enumerate(self._n):
            if cj:
                for m, base in enumerate(_ZETA_POWERS[(j * k) % 12]):
                    if base:
                        out[m] += cj * base
        # the automorphism maps the integral basis to an integral basis, so
        # the numerators keep their gcd and the result stays reduced
        return _raw(tuple(out), self._d)

    def conj(self):
        """Complex conjugation, the automorphism zeta -> zeta^11."""
        return self.galois(11)

    def inv(self):
        """The multiplicative inverse.

        A rational n/d, reduced, inverts to d/n with the sign moved into the
        numerator; any other element through its Galois conjugates.
        """
        n0, n1, n2, n3 = self._n
        if not (n1 or n2 or n3):
            if not n0:
                raise ZeroDivisionError("inverse of zero in Q(zeta12)")
            return _raw((self._d, 0, 0, 0), n0) if n0 > 0 else _raw((-self._d, 0, 0, 0), -n0)
        # product of the other three Galois conjugates; times self it is
        # the field norm, a nonzero rational
        b = self.galois(5) * self.galois(7) * self.galois(11)
        norm = self * b
        return b._scaled(norm._d, norm._n[0])

    def _scaled(self, num, den):
        """self * num / den, for ints num and den != 0."""
        if den < 0:
            num, den = -num, -den
        a0, a1, a2, a3 = self._n
        return _reduced(a0 * num, a1 * num, a2 * num, a3 * num, self._d * den)

    # -- views ------------------------------------------------------------

    def is_rational(self):
        n = self._n
        return not (n[1] or n[2] or n[3])

    def rational(self):
        """The element as a Fraction; raises if it is not rational."""
        if not self.is_rational():
            raise ValueError("not a rational element: %s" % (self,))
        return Fraction(self._n[0], self._d)

    def embed(self):
        """Float-complex image under zeta -> cos(pi/6) + i*sin(pi/6)."""
        n0, n1, n2, n3 = self._n
        d = self._d
        return (
            complex(n0 / d, 0.0)
            + (n1 / d) * _ZC1
            + (n2 / d) * _ZC2
            + (n3 / d) * _ZC3
        )

    def to_strings(self):
        """The four coordinates as exact rational strings, as str(Fraction)."""
        d = self._d
        out = []
        for n in self._n:
            g = math.gcd(n, d)
            out.append(str(n // g) if g == d else "%d/%d" % (n // g, d // g))
        return out

    def __repr__(self):
        return "Cyclo(%s, %s, %s, %s)" % tuple(self.to_strings())

    def __str__(self):
        return _signed_sum([(c, m) for c, m in zip(self.to_strings(), ("", "z", "z^2", "z^3"))
                            if c != "0"])


def _raw(n, d):
    """The element with numerators n over d, already reduced."""
    x = object.__new__(Cyclo)
    x._n = n
    x._d = d
    return x


def _reduced(n0, n1, n2, n3, d):
    """The element (n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / d, for d > 0."""
    if d != 1:
        g = math.gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    return _raw((n0, n1, n2, n3), d)


def _rational(n, d):
    """The rational element n / d, for d > 0."""
    g = math.gcd(n, d)
    return _raw((n // g, 0, 0, 0), d // g)


def _coerce(x):
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, int):
        return _raw((x, 0, 0, 0), 1)
    if isinstance(x, Fraction):
        return _raw((x.numerator, 0, 0, 0), x.denominator)
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


def _accumulate(out, terms):
    """Add the nonzero terms of a dict into out, in place."""
    for exp, c in terms.items():
        acc = out.get(exp)
        if acc is None:
            out[exp] = c
        else:
            acc += c
            if acc:
                out[exp] = acc
            else:
                del out[exp]


def _signed_sum(terms):
    """The text c1*m1 + c2*m2 - ... of (coefficient text, monomial text) pairs,
    "0" for none: an empty monomial keeps its coefficient, a coefficient 1 or
    -1 before a monomial is dropped, and a negative term is joined with " - "."""
    parts = [c if not m else m if c == "1" else "-" + m if c == "-1" else c + "*" + m
             for c, m in terms]
    if not parts:
        return "0"
    return parts[0] + "".join([(" - " + p[1:]) if p.startswith("-") else (" + " + p)
                               for p in parts[1:]])


def zeta_pow(k):
    """zeta^k for any integer k."""
    return _raw(_ZETA_POWERS[k % 12], 1)


ZERO = Cyclo()
ONE = Cyclo(1)
ZETA = zeta_pow(1)
I = zeta_pow(3)
OMEGA = zeta_pow(4)
OMEGA_BAR = zeta_pow(8)
SQRT3 = Cyclo(0, 2, 0, -1)
