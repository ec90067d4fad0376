"""Bivariate rational functions in the torus weights t1, t2 over Q(zeta12).

Polynomials are sparse maps (e1, e2) -> Cyclo. A RatFun keeps a canonical
representative: numerator and denominator coprime and the denominator monic
under graded lexicographic order with t1 > t2, so equality of rational
functions is plain equality of representatives. Every verifier in the
package leans on that.

Denominators are homogeneous in (t1, t2): every one in the package is a
product of torus weights, so the field is K[t1, t2] localized at its
nonzero homogeneous elements. Numerators are arbitrary. A non-homogeneous
denominator, including the inverse of a non-homogeneous numerator, raises
ValueError.

That contract makes the gcd univariate. A homogeneous polynomial of degree
k is t2^k F(s) with s = t1/t2, and every divisor of a homogeneous q is
homogeneous, so gcd(p, q) is the monic Euclid in K[s] of q and each
homogeneous component of p, times the least power of t2 they share.
"""

from fractions import Fraction

from .cyclotomic import (
    Cyclo,
    ONE as C_ONE,
    ZERO as C_ZERO,
    _coerce,
    repeated_squaring,
)

_GRLEX = lambda e: (e[0] + e[1], e[0])


class Poly2:
    """A polynomial in t1, t2 with Cyclo coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, c in items:
                c = _scalar(c)
                if not c:
                    continue
                exp = (int(exp[0]), int(exp[1]))
                if exp[0] < 0 or exp[1] < 0:
                    raise ValueError("negative exponent %r" % (exp,))
                acc = t.get(exp)
                c = c if acc is None else acc + c
                if c:
                    t[exp] = c
                elif exp in t:
                    del t[exp]
        self._t = t

    def terms(self):
        return self._t.items()

    def is_zero(self):
        return not self._t

    def is_one(self):
        return self._t == {(0, 0): C_ONE}

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __add__(self, other):
        out = dict(self._t)
        for exp, c in other._t.items():
            acc = out.get(exp)
            c = c if acc is None else acc + c
            if c:
                out[exp] = c
            elif exp in out:
                del out[exp]
        p = Poly2.__new__(Poly2)
        p._t = out
        return p

    def __neg__(self):
        p = Poly2.__new__(Poly2)
        p._t = {exp: -c for exp, c in self._t.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a1, a2), ca in self._t.items():
            for (b1, b2), cb in other._t.items():
                exp = (a1 + b1, a2 + b2)
                c = ca * cb
                acc = out.get(exp)
                c = c if acc is None else acc + c
                if c:
                    out[exp] = c
                elif exp in out:
                    del out[exp]
        p = Poly2.__new__(Poly2)
        p._t = out
        return p

    def scale(self, c):
        c = _scalar(c)
        if not c:
            return P_ZERO
        p = Poly2.__new__(Poly2)
        p._t = {exp: v * c for exp, v in self._t.items()}
        return p

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term, t1 > t2."""
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self._t, key=_GRLEX)
        return exp, self._t[exp]

    def eval(self, a1, a2):
        a1, a2 = Fraction(a1), Fraction(a2)
        out = C_ZERO
        for (e1, e2), c in self._t.items():
            out = out + c * (a1**e1 * a2**e2)
        return out

    def __repr__(self):
        return "Poly2(%r)" % (self._t,)

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for exp in sorted(self._t, key=_GRLEX, reverse=True):
            c = self._t[exp]
            mon = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(("t1", "t2"), exp)
                if e
            )
            cs = str(c)
            if " " in cs:
                cs = "(%s)" % cs
            if not mon:
                parts.append(cs)
            elif cs == "1":
                parts.append(mon)
            elif cs == "-1":
                parts.append("-" + mon)
            else:
                parts.append("%s*%s" % (cs, mon))
        out = parts[0]
        for p in parts[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out


def _scalar(c):
    x = _coerce(c)
    if x is NotImplemented:
        raise TypeError("cannot build a coefficient from %r" % (c,))
    return x


P_ZERO = Poly2()
P_ONE = Poly2({(0, 0): 1})
P_T1 = Poly2({(1, 0): 1})
P_T2 = Poly2({(0, 1): 1})


# -- gcd machinery ------------------------------------------------------
#
# The F of a homogeneous t2^k F(t1/t2) is a dense list over s-degree of Cyclo
# (trimmed; zero is []); its factor t2^(k + 1 - len(F)) is the root at
# s = infinity.


def _components(p):
    """{k: F} over the homogeneous components t2^k F(t1/t2) of p."""
    out = {}
    for (e1, e2), c in p._t.items():
        f = out.setdefault(e1 + e2, [])
        if len(f) <= e1:
            f.extend([C_ZERO] * (e1 + 1 - len(f)))
        f[e1] = c
    return out


def _homogeneous(q):
    """(k, F) of a denominator q = t2^k F(t1/t2).

    ZeroDivisionError if q is zero, ValueError if it is not homogeneous.
    """
    comps = _components(q)
    if len(comps) == 1:
        return comps.popitem()
    if not comps:
        raise ZeroDivisionError("zero denominator")
    raise ValueError("denominator %s is not homogeneous in t1, t2" % (q,))


def _homogenize(k, f):
    """t2^k f(t1/t2) as a Poly2."""
    p = Poly2.__new__(Poly2)
    p._t = {(i, k - i): c for i, c in enumerate(f) if c}
    return p


def _u_divmod(f, g):
    r = list(f)
    q = [C_ZERO] * max(len(f) - len(g) + 1, 0)
    ilc = g[-1].inv()
    while len(r) >= len(g):
        c = r[-1] * ilc
        k = len(r) - len(g)
        q[k] = c
        for j, b in enumerate(g):
            r[j + k] = r[j + k] - c * b
        while r and not r[-1]:
            r.pop()
    return q, r


def _u_gcd(f, g):
    while g:
        f, g = g, _u_divmod(f, g)[1]
    if f:
        ilc = f[-1].inv()
        f = [c * ilc for c in f]
    return f


def poly_gcd(p, q):
    """A gcd of p and a homogeneous q, unique up to a Cyclo unit.

    Every divisor of q is homogeneous, so the gcd divides each homogeneous
    component of p: it is the monic Euclid of the components in s = t1/t2,
    times the least power of t2 they share.
    """
    k, g = _homogeneous(q)
    t2 = k + 1 - len(g)
    for j, f in _components(p).items():
        t2 = min(t2, j + 1 - len(f))
        if len(g) > 1:
            g = _u_gcd(f, g)
    if len(g) == 1:
        g = [C_ONE]
    return _homogenize(t2 + len(g) - 1, g)


def poly_divexact(p, g):
    """p / g for a homogeneous g dividing p; ArithmeticError otherwise."""
    k, h = _homogeneous(g)
    t2 = k + 1 - len(h)
    out = {}
    for j, f in _components(p).items():
        quo, rem = _u_divmod(f, h)
        if rem or j + 1 - len(f) < t2:
            raise ArithmeticError("not an exact division")
        out.update(_homogenize(j - k, quo)._t)
    p = Poly2.__new__(Poly2)
    p._t = out
    return p


# -- rational functions --------------------------------------------------


class RatFun:
    """A canonical ratio of a Poly2 over a homogeneous Poly2."""

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = P_ONE if den is None else _as_poly(den)
        if den.is_one():
            self._n, self._d = num, P_ONE
            return
        g = poly_gcd(num, den)  # refuses a zero or non-homogeneous den
        if not g.is_one():
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        lc = den.leading()[1]
        if lc != C_ONE:
            ilc = lc.inv()
            num, den = num.scale(ilc), den.scale(ilc)
        self._n, self._d = num, den

    @property
    def num(self):
        return self._n

    @property
    def den(self):
        return self._d

    def is_zero(self):
        return self._n.is_zero()

    def is_one(self):
        return self._n.is_one() and self._d.is_one()

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # a constant equals its Cyclo, so it hashes like one
        t = self._n._t
        if self._d.is_one() and t.keys() <= {(0, 0)}:
            return hash(t.get((0, 0), C_ZERO))
        return hash((self._n, self._d))

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if self._d == other._d:
            return RatFun(self._n + other._n, self._d)
        return RatFun(
            self._n * other._d + other._n * self._d, self._d * other._d
        )

    __radd__ = __add__

    def __neg__(self):
        r = RatFun.__new__(RatFun)
        r._n, r._d = -self._n, self._d
        return r

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (Cyclo, int, Fraction)):
            # a nonzero scalar times a canonical numerator leaves it coprime
            # to the monic denominator
            if not other:
                return RF_ZERO
            r = RatFun.__new__(RatFun)
            r._n, r._d = self._n.scale(other), self._d
            return r
        if not isinstance(other, RatFun):
            return NotImplemented
        return RatFun(self._n * other._n, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        return repeated_squaring(self, n, RF_ONE)

    def inv(self):
        # a canonical pair is coprime already: only the new denominator's
        # leading coefficient needs normalizing
        ilc = _homogeneous(self._n)[1][-1].inv()
        r = RatFun.__new__(RatFun)
        r._n, r._d = self._d.scale(ilc), self._n.scale(ilc)
        return r

    def eval(self, a1, a2):
        """Value at exact rational (t1, t2); ZeroDivisionError on a pole."""
        d = self._d.eval(a1, a2)
        if not d:
            raise ZeroDivisionError(
                "pole at (t1, t2) = (%s, %s)" % (Fraction(a1), Fraction(a2))
            )
        return self._n.eval(a1, a2) * d.inv()

    def to_json(self):
        return {"num": _poly_json(self._n), "den": _poly_json(self._d)}

    @classmethod
    def from_json(cls, obj):
        return cls(_poly_from_json(obj["num"]), _poly_from_json(obj["den"]))

    def __repr__(self):
        return "RatFun(%s)" % (self,)

    def __str__(self):
        if self._d.is_one():
            return str(self._n)
        return "(%s)/(%s)" % (self._n, self._d)


def _as_poly(x):
    if isinstance(x, Poly2):
        return x
    if isinstance(x, (Cyclo, int, Fraction)):
        return Poly2({(0, 0): x})
    raise TypeError("cannot build a polynomial from %r" % (x,))


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (Cyclo, int, Fraction)):
        return RatFun(_as_poly(x))
    return NotImplemented


def _poly_json(p):
    return [
        [e[0], e[1], p._t[e].to_strings()]
        for e in sorted(p._t, key=_GRLEX, reverse=True)
    ]


def _poly_from_json(rows):
    return Poly2(
        ((int(r[0]), int(r[1])), Cyclo.from_strings(r[2])) for r in rows
    )


def rf(x):
    """Coerce a scalar to a RatFun."""
    r = _as_ratfun(x)
    if r is NotImplemented:
        raise TypeError("cannot build a rational function from %r" % (x,))
    return r


RF_ZERO = RatFun(P_ZERO)
RF_ONE = RatFun(P_ONE)
RF_T1 = RatFun(P_T1)
RF_T2 = RatFun(P_T2)
