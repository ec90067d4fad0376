"""Bivariate rational functions in the torus weights t1, t2 over Q(zeta12).

Polynomials are sparse maps (e1, e2) -> Cyclo. A RatFun keeps a canonical
representative: numerator and denominator coprime and the denominator monic
under graded lexicographic order with t1 > t2, so equality of rational
functions is plain equality of representatives. Every verifier in the
package leans on that.

The gcd works on a dense recursion: a polynomial in t1 whose coefficients
are univariate polynomials in t2 over the field. A primitive polynomial
remainder sequence keeps intermediate growth down; coefficient gcds in
K[t2] are the ordinary monic Euclid.
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
# Dense recursive form: a Poly2 becomes a list over t1-degree whose entries
# are trimmed lists over t2-degree of Cyclo (the zero polynomial is []).


def _to_rec(p):
    if not p._t:
        return []
    d1 = max(e[0] for e in p._t)
    d2 = max(e[1] for e in p._t)
    rows = [[C_ZERO] * (d2 + 1) for _ in range(d1 + 1)]
    for (e1, e2), c in p._t.items():
        rows[e1][e2] = c
    return _b_trim([_u_trim(r) for r in rows])


def _from_rec(rows):
    t = {}
    for e1, row in enumerate(rows):
        for e2, c in enumerate(row):
            if c:
                t[(e1, e2)] = c
    p = Poly2.__new__(Poly2)
    p._t = t
    return p


def _u_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _u_mul(f, g):
    if not f or not g:
        return []
    out = [C_ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = out[i + j] + a * b
    return _u_trim(out)

def _u_sub(f, g):
    out = list(f) + [C_ZERO] * (len(g) - len(f))
    for j, b in enumerate(g):
        out[j] = out[j] - b
    return _u_trim(out)


def _u_divmod(f, g):
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    r = list(f)
    q = [C_ZERO] * max(len(f) - len(g) + 1, 0)
    ilc = g[-1].inv()
    while len(r) >= len(g):
        c = r[-1] * ilc
        k = len(r) - len(g)
        q[k] = c
        for j, b in enumerate(g):
            r[j + k] = r[j + k] - c * b
        _u_trim(r)
    return _u_trim(q), r


def _u_gcd(f, g):
    while g:
        f, g = g, _u_divmod(f, g)[1]
    if f:
        ilc = f[-1].inv()
        f = [c * ilc for c in f]
    return f


def _b_trim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _b_content(rows):
    c = []
    for r in rows:
        c = _u_gcd(c, r)
        if len(c) == 1:
            break
    return c


def _b_div_content(rows, c):
    if len(c) == 1 and c[0] == C_ONE:
        return rows
    out = []
    for r in rows:
        q, rem = _u_divmod(r, c)
        if rem:
            raise ArithmeticError("content division is not exact")
        out.append(q)
    return out


def _b_primitive(rows):
    rows = _b_trim(rows)
    if not rows:
        return rows
    return _b_div_content(rows, _b_content(rows))


def _b_prem(f, g):
    """Pseudo-remainder of f by g in t1, up to K[t2]-content.

    Content is irrelevant to the primitive remainder sequence, so the
    classical lc(g)^e top-up is skipped.
    """
    dg = len(g) - 1
    lcg = g[-1]
    r = list(f)
    while len(r) - 1 >= dg:
        lcr = r[-1]
        k = len(r) - 1 - dg
        r = [_u_mul(lcg, ri) for ri in r]
        for j, gj in enumerate(g):
            r[j + k] = _u_sub(r[j + k], _u_mul(lcr, gj))
        if len(_u_trim(r[-1])) != 0:
            raise ArithmeticError("pseudo-remainder failed to cancel")
        r.pop()
        _b_trim(r)
    return r


def _b_gcd(a, b):
    if not a:
        return _b_trim(list(b))
    if not b:
        return _b_trim(list(a))
    ca, cb = _b_content(a), _b_content(b)
    f = _b_div_content(a, ca)
    s = _b_div_content(b, cb)
    while s:
        r = _b_prem(f, s)
        f, s = s, _b_primitive(r)
    cg = _u_gcd(ca, cb)
    return [_u_mul(fi, cg) for fi in f]


def poly_gcd(p, q):
    """A gcd of p and q, unique up to a Cyclo unit."""
    return _from_rec(_b_gcd(_to_rec(p), _to_rec(q)))


def poly_divexact(p, g):
    """p / g when the division is exact; ArithmeticError otherwise."""
    a, b = _to_rec(p), _to_rec(g)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return P_ZERO
    q = [[] for _ in range(len(a) - len(b) + 1)] if len(a) >= len(b) else []
    lcb = b[-1]
    r = list(a)
    while r:
        k = len(r) - len(b)
        if k < 0:
            raise ArithmeticError("not an exact division")
        c, rem = _u_divmod(r[-1], lcb)
        if rem:
            raise ArithmeticError("not an exact division")
        q[k] = c
        for j, bj in enumerate(b):
            r[j + k] = _u_sub(r[j + k], _u_mul(c, bj))
        _b_trim(r)
    return _from_rec(q)


# -- rational functions --------------------------------------------------


class RatFun:
    """A canonical ratio of two Poly2."""

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = P_ONE if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self._n, self._d = P_ZERO, P_ONE
            return
        if den.is_one():
            self._n, self._d = num, P_ONE
            return
        g = poly_gcd(num, den)
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
        return RatFun(self._d, self._n)

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
