"""Truncated multivariate power series with per-variable caps.

Coefficients are stored as given, in whatever field the caller works in:
int or Fraction for the rational series, Cyclo for the identity checks
in Q(zeta12), RatFun where the torus weights t1, t2 appear.  Arithmetic
combines them only with each other and with rationals, so a series stays
in the field its inputs live in.  A missing coefficient reads as 0.

A VarSet fixes an ordered tuple of variable names and one truncation cap
per variable. A Series stores only exponents within the caps; arithmetic
silently discards anything beyond a cap and never corrupts what is kept,
so a result is exact to its caps whenever its inputs were.  `Series(vs,
terms)` is the one public constructor and checks every exponent, and it and
`scale` refuse a float or complex coefficient with TypeError; the
package's own results, whose dicts are already within the caps and free of
zeros, are wrapped by the internal `Series._of` without a second check.

Sums, substitution and the Taylor sums of exp, sin, cos, tan and inverse
add their terms into one dict through `cyclotomic._accumulate`, as `Poly2`
sums do; a Taylor sum of a one-term argument runs as a scalar recurrence, and
a product keeps its own inline loop.

Caps are per variable rather than total degree: the curve-degree variable
q wants its own bound independent of the analytic orders in the z and u
directions.  A derivative lowers the differentiated variable's cap by one,
which keeps the exactness guarantee honest.
"""

import operator
from fractions import Fraction
from operator import add, le

from .cyclotomic import Cyclo, _accumulate, repeated_squaring


class VarSet:
    __slots__ = ("names", "caps", "_pos")

    def __init__(self, names, caps):
        self.names = tuple(names)
        self.caps = tuple(operator.index(c) for c in caps)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if len(self.caps) != len(self.names):
            raise ValueError("%d names but %d caps" % (len(self.names), len(self.caps)))
        if any(c < 0 for c in self.caps):
            raise ValueError("negative cap")
        self._pos = {n: i for i, n in enumerate(self.names)}

    def index(self, name):
        try:
            return self._pos[name]
        except KeyError:
            raise ValueError("unknown variable %r" % (name,)) from None

    def with_cap(self, name, cap):
        caps = list(self.caps)
        caps[self.index(name)] = cap
        return VarSet(self.names, caps)

    def __eq__(self, other):
        if not isinstance(other, VarSet):
            return NotImplemented
        return self.names == other.names and self.caps == other.caps

    def __hash__(self):
        return hash((self.names, self.caps))

    def __repr__(self):
        return "VarSet(%r, %r)" % (self.names, self.caps)


def _exact(c):
    """Refuse a float or complex coefficient: a series holds exact numbers."""
    if isinstance(c, (float, complex)):
        raise TypeError("a Series coefficient must be exact, not %r" % (c,))


class Series:
    __slots__ = ("vs", "_t")

    def __init__(self, vs, terms=None):
        self.vs = vs
        t = {}
        if terms:
            caps = vs.caps
            n = len(caps)
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, c in items:
                _exact(c)
                exp = tuple(operator.index(e) for e in exp)
                if len(exp) != n:
                    raise ValueError("exponent arity %d, expected %d" % (len(exp), n))
                if any(e < 0 for e in exp):
                    raise ValueError("negative exponent %r" % (exp,))
                if any(e > cap for e, cap in zip(exp, caps)):
                    continue
                acc = t.get(exp)
                c = c if acc is None else acc + c
                if c:
                    t[exp] = c
                elif exp in t:
                    del t[exp]
        self._t = t

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, vs, c):
        return cls(vs, {(0,) * len(vs.names): c})

    @classmethod
    def variable(cls, vs, name):
        exp = [0] * len(vs.names)
        exp[vs.index(name)] = 1
        return cls(vs, {tuple(exp): 1})

    @staticmethod
    def _of(vs, terms):
        """A series on vs that takes the dict terms as it is, unchecked.

        Only for dicts the package built itself: each exponent a tuple of
        ints within vs.caps, no zero coefficient, and no other holder that
        will change the dict.  Everything else goes through `Series(vs, terms)`.
        """
        s = Series.__new__(Series)
        s.vs = vs
        s._t = terms
        return s

    # -- ring structure ---------------------------------------------------

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.vs == other.vs and self._t == other._t

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_vs(other)
        out = dict(self._t)
        _accumulate(out, other._t)
        return Series._of(self.vs, out)

    def __neg__(self):
        return Series._of(self.vs, {e: -c for e, c in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        self._check_vs(other)
        caps = self.vs.caps
        right = list(other._t.items())
        out = {}
        for e1, c1 in self._t.items():
            for e2, c2 in right:
                exp = tuple(map(add, e1, e2))
                if not all(map(le, exp, caps)):
                    continue
                acc = out.get(exp)
                if acc is None:
                    # nonzero, as c1 and c2 are
                    out[exp] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc:
                        out[exp] = acc
                    else:
                        del out[exp]
        return Series._of(self.vs, out)

    def scale(self, c):
        _exact(c)
        if not c:
            return Series._of(self.vs, {})
        return Series._of(self.vs, {e: v * c for e, v in self._t.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series power wants a non-negative integer")
        return repeated_squaring(self, n, Series.constant(self.vs, 1))

    # -- calculus -----------------------------------------------------------

    def differentiate(self, name):
        i = self.vs.index(name)
        cap = self.vs.caps[i]
        if cap == 0:
            raise ValueError("cannot differentiate %s below cap 0" % name)
        vs2 = self.vs.with_cap(name, cap - 1)
        out = {}
        for exp, c in self._t.items():
            if exp[i]:
                e2 = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
                out[e2] = c * exp[i]
        return Series._of(vs2, out)

    # -- structure maps -------------------------------------------------------

    def substitute(self, images, target):
        """Image under variable -> series, a ring homomorphism to caps.

        Substituted images must have zero constant term; variables without
        an image must exist in the target and map to themselves.
        """
        for name in images:
            if name not in self.vs._pos:
                raise ValueError("image given for unknown variable %r" % (name,))
        one = Series.constant(target, 1)
        # powers[i][e]: the e-th power of variable i's image, each made once
        powers = []
        for name in self.vs.names:
            s = images.get(name)
            if s is None:
                s = Series.variable(target, name)
            else:
                if s.vs != target:
                    raise ValueError("image of %s lives on %r, expected %r" % (name, s.vs, target))
                if s.constant_term():
                    raise ValueError("image of %s has a nonzero constant term" % name)
            powers.append([one, s])

        def power(i, e):
            seq = powers[i]
            while len(seq) <= e:
                seq.append(seq[-1] * seq[1])
            return seq[e]

        acc = {}
        for exp, c in self._t.items():
            prod = one
            for i, e in enumerate(exp):
                if e:
                    prod = power(i, e) if prod is one else prod * power(i, e)
            # products of nonzero field elements are nonzero
            _accumulate(acc, {pe: c * pc for pe, pc in prod._t.items()})
        return Series._of(target, acc)

    def into(self, target):
        """Recoordinatize on target: reorder/add variables, prune to its caps.

        Every variable of self must either appear in target or appear in no
        retained term. Dropping caps is allowed and truncates.
        """
        spots = [target._pos.get(n) for n in self.vs.names]
        width = len(target.names)
        out = {}
        for exp, c in self._t.items():
            e2 = [0] * width
            for e, spot, name in zip(exp, spots, self.vs.names):
                if spot is None:
                    if e:
                        raise ValueError("variable %s is absent from the target" % name)
                else:
                    e2[spot] = e
            exp2 = tuple(e2)
            if any(e > cap for e, cap in zip(exp2, target.caps)):
                continue
            out[exp2] = c
        return Series._of(target, out)

    # -- views ------------------------------------------------------------

    def coeff(self, exp):
        exp = tuple(operator.index(e) for e in exp)
        if len(exp) != len(self.vs.names):
            raise ValueError("exponent arity mismatch")
        if any(e > cap or e < 0 for e, cap in zip(exp, self.vs.caps)):
            raise ValueError("exponent %r outside caps %r" % (exp, self.vs.caps))
        return self._t.get(exp, 0)

    def constant_term(self):
        return self._t.get((0,) * len(self.vs.names), 0)

    def terms(self):
        return self._t.items()

    def sorted_terms(self):
        return sorted(self._t.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def to_json(self):
        return {
            "vars": list(self.vs.names),
            "caps": list(self.vs.caps),
            "terms": [
                {"exp": list(exp), "coeff": c.to_json()}
                for exp, c in self.sorted_terms()
            ],
        }

    def _check_vs(self, other):
        if other.vs != self.vs:
            raise ValueError("variable sets differ: %r vs %r" % (self.vs, other.vs))

    def __repr__(self):
        return "Series(%r, %d terms)" % (self.vs, len(self._t))


# -- analytic functions of a series -------------------------------------
#
# Each is a finite Taylor sum: the step has zero constant term, so its
# powers climb in total degree and die at the caps.


def _require_no_constant(f, what):
    if f.constant_term():
        raise ValueError("%s of a series with a nonzero constant term" % what)


def _taylor(out, term, step, ratio):
    """out + term * step * r(1) + term * step^2 * r(1) * r(2) + ..., until the
    caps kill a term, r(k) = n/d for the int pair ratio(k) = (n, d).  A one-term
    term c x^e and step a x^s take the same products as c <- c * a * r(k) at
    e <- e + s, and no series: a `Cyclo` c * a is scaled by (n, d) itself."""
    total = dict(out._t)
    if len(term._t) == len(step._t) == 1:
        ((e, c),), ((s, a),) = term._t.items(), step._t.items()
        caps, terms, k = out.vs.caps, {}, 0
        while True:
            e, k = tuple(map(add, e, s)), k + 1
            if not all(map(le, e, caps)):
                _accumulate(total, terms)
                return Series._of(out.vs, total)
            c = c * a
            c = terms[e] = c._scaled(*ratio(k)) if type(c) is Cyclo else c * Fraction(*ratio(k))
    k = 0
    while True:
        k += 1
        term = term * step
        if not term:
            return Series._of(out.vs, total)
        term = term.scale(Fraction(*ratio(k)))
        _accumulate(total, term._t)


def exp(f):
    _require_no_constant(f, "exp")
    one = Series.constant(f.vs, 1)
    return _taylor(one, one, f, lambda k: (1, k))


def sin(f):
    _require_no_constant(f, "sin")
    return _taylor(f, f, f * f, lambda k: (-1, 2 * k * (2 * k + 1)))


def cos(f):
    _require_no_constant(f, "cos")
    one = Series.constant(f.vs, 1)
    return _taylor(one, one, f * f, lambda k: (-1, (2 * k - 1) * 2 * k))


_TAN = {1: Fraction(1)}


def _tan_coeff(m):
    """Taylor coefficient of tan at odd order m, from T' = 1 + T^2."""
    got = _TAN.get(m)
    if got is None:
        top = max(_TAN)
        for n in range(top + 2, m + 1, 2):
            s = sum(_TAN[i] * _TAN[n - 1 - i] for i in range(1, n - 1, 2))
            _TAN[n] = s / n
        got = _TAN[m]
    return got


def tan(f):
    _require_no_constant(f, "tan")
    return _taylor(f, f, f * f,
                   lambda k: (_tan_coeff(2 * k + 1) / _tan_coeff(2 * k - 1)).as_integer_ratio())


def inverse(f):
    """Multiplicative inverse; the constant term c must be invertible.

    1/f = (1/c) * sum over k of (1 - f/c)^k, a Taylor sum like the others:
    1 - f/c has zero constant term.
    """
    c = f.constant_term()
    if not c:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    ci = Fraction(1) / c
    first = Series.constant(f.vs, ci)
    return _taylor(first, first, Series.constant(f.vs, 1) - f.scale(ci), lambda k: (1, 1))
