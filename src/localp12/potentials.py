"""The genus-zero potential of local P(1,2) in closed form.

The potential splits by curve degree into three layers:

  * classical: the degree-zero cubic, with one coefficient per three-point
    invariant of the classes 1, H, S, each a rational function of the
    torus weights t1, t2: a sum over the two torus-fixed points of the base
    orbifold, put over one denominator so that it costs one `RatFun`
    canonicalization, or a twisted-sector evaluation for a pair of stacky
    insertions;
  * stacky: the degree-zero tail in the twisted variable alone, the triple
    antiderivative G of half the tangent of z2/2 (`g_series`, written from
    tan's Taylor coefficients), weighted by -(t1+t2); it is the q^0 row of
    the rational tail below and the G whose third derivative the `residual`
    suite checks;
  * quantum: for each positive degree d, the coefficient of z1^a z2^b q^d
    is the invariant <H^a S^b>_d / (a! b!): (t1+t2) times d^a from the
    divisor class and `local_invariant(d, b)` from the stacky insertions.
    Summed over a and b this is e^(d z1) times a sine or cosine of d z2/2;
    `localization` keeps that resummed series only as the independent route
    that checks the closed form.

Outside the classical cubic every coefficient is (t1+t2) times a rational
number, so the stacky and quantum layers are built together, the rational
tail.  Each of its coefficients is a ratio of two integer products, held as
the integer pair (n, m) in lowest terms, m > 0, with no `Fraction` (G's
q^0 row is read off tan's coefficients, not off `g_series`).  A term is the
row (a, k, n, m) at the exponent (0, a) + parts[k], each part (b, d[, c])
made once, and the rows come in table order, by total degree and then by
exponent as `Series.sorted_terms` orders them, so a writer sorts none of
them and writes each part's exponent text once.  `potential` and
`extended_potential` return a `Potential`: the cubic as a `RatFun` series
and the tail's parts and rows, on shared per-variable caps; its `tail` is
the same tail as a `Series` over Q.  The two never share an
exponent: the cubic has q-degree 0 and total degree 3, the tail q-degree at
least 1 or z2/u-degree at least 4.  A writer can therefore print each term
from exactly one part, merging the cubic's few terms into the tail's, and
`Potential.series()` attaches (t1+t2) to the tail and adds the cubic when a
`RatFun` series is wanted.
`extended_potential` shifts z2 by a formal angle u: the cubic by
substitution, the tail written from its coefficients in theta = z2 + u.
`gw_invariant` exposes the underlying numbers directly, with the divisor
class H accounted for by degree factors.

The classical cubic depends on no input, so it is computed once per process
and the same series is handed to every caller; `Series` and `RatFun` have no
mutators, so sharing it is safe.  `degree0_triple` reads its values off that
cubic: the package keeps no other degree-zero cache.  The module owns every
closed form it writes from and imports no check module, so `localization`
and `pcrc` sit on top of it.
"""

import functools
import itertools
import math
from fractions import Fraction

from .mpseries import Series, VarSet, _tan_coeff
from .ratfun import P_ONE, RF_ONE, RF_T1, RF_T2, RF_ZERO, RatFun
from .reports import FrozenRecord, reduced

#: the weight (t1+t2) carried by every term outside the classical cubic
_LEVEL = RF_T1 + RF_T2


# --------------------------------------------------------------------------
# closed forms


def local_invariant(d, n):
    """Direct formula for the degree-d invariant with n stacky insertions.

    Requires n >= 0 with n = d (mod 2); in genus terms n = 2g+1 for odd d
    and n = 2g+2 (g >= -1) for even d.  The value is
    quantum_sign(d) (-1)^(n//2) 2 d^n / (d^3 2^n).
    """
    return Fraction(*invariant_pair(d, n))


def invariant_pair(d, n):
    """`local_invariant(d, n)` as (numerator, denominator) in lowest terms,
    denominator > 0, made with one gcd and no `Fraction`."""
    if d < 1:
        raise ValueError("degree must be positive, got %r" % (d,))
    if n < 0 or (n - d) % 2:
        raise ValueError(
            "insertion count %r has the wrong parity for degree %r" % (n, d)
        )
    return reduced(quantum_sign(d) * (-1) ** (n // 2) * 2 * d**n, d**3 * 2**n)


def quantum_sign(d):
    """Sign of the degree-d closed-form term: period four in d."""
    return (-1) ** (d // 2)


# --------------------------------------------------------------------------
# degree zero


class TorusWeights(FrozenRecord):
    """Restrictions and normal weights at the degree-zero fixed loci.

    `base_*` and `fiber_*` are the tangent and fiber-direction weights at
    the two fixed points, `point_*` the restrictions of the degree-two
    class H, and the `auto_*` entries the orbifold automorphism factors.
    """

    __slots__ = ("base_0", "fiber_0", "auto_0", "base_inf", "fiber_inf", "auto_inf",
                 "point_0", "point_inf", "point_twisted", "auto_twisted")


TORUS_WEIGHTS = TorusWeights(
    base_0=RF_T2 - RF_T1 * Fraction(1, 2),
    fiber_0=RF_T1 * Fraction(3, 2),
    auto_0=Fraction(1, 2),
    base_inf=RF_T1 - RF_T2 * 2,
    fiber_inf=RF_T2 * 3,
    auto_inf=Fraction(1),
    point_0=RF_T1,
    point_inf=RF_T2 * 2,
    point_twisted=-RF_T1,
    auto_twisted=Fraction(1, 2),
)

_CLASSES = ("1", "H", "S")


def degree0_classes(classes):
    """classes as a tuple of three names from `_CLASSES`; ValueError otherwise."""
    classes = tuple(classes)
    if len(classes) != 3:
        raise ValueError("expected three insertion classes, got %r" % (classes,))
    for c in classes:
        if c not in _CLASSES:
            raise ValueError("unknown insertion class %r" % (c,))
    return classes


def degree0_fixed_point_sum(classes, weights=None):
    """Three-point degree-zero invariant of the listed insertion classes.

    Classes are named "1", "H" (degree two) and "S" (the twisted-sector
    unit).  Stacky insertions pair off through the twisted sector; an odd
    number of them is rejected since those invariants vanish for parity
    reasons and are handled upstream.  Otherwise the two fixed-point terms
    point^h auto / (fiber base), h the number of H insertions, are written
    from the weights' numerators and denominators over one common
    denominator, and that one fraction is the only one canonicalized.  A
    factor that is one is skipped, not multiplied.
    """
    classes = degree0_classes(classes)
    w = weights or TORUS_WEIGHTS

    stacky = classes.count("S")
    if stacky % 2:
        raise ValueError("odd stacky insertion counts vanish; not summed here")
    if stacky == 2:
        # twisted-sector pairing: restrict the remaining class there
        rest = [c for c in classes if c != "S"][0]
        restriction = RF_ONE if rest == "1" else w.point_twisted
        return restriction * w.auto_twisted

    h = classes.count("H")
    terms = []
    for point, fiber, base, auto in (
        (w.point_0, w.fiber_0, w.base_0, w.auto_0),
        (w.point_inf, w.fiber_inf, w.base_inf, w.auto_inf),
    ):
        # point^h auto / (fiber base) as a numerator over a denominator
        num = _product([point.num] * h + [fiber.den, base.den])
        den = _product([point.den] * h + [fiber.num, base.num])
        terms.append((num if auto == 1 else num.scale(auto), den))
    (n0, d0), (n1, d1) = terms
    return RatFun(_product([n0, d1]) + _product([n1, d0]), _product([d0, d1]))


def _product(polys):
    """The product of the Poly2s, with no product by a factor that is one,
    as every denominator in `TORUS_WEIGHTS` is."""
    out = P_ONE
    for p in polys:
        if not p.is_one():
            out = p if out is P_ONE else out * p
    return out


# --------------------------------------------------------------------------
# the potential


def degree0_triple(classes):
    """Three-point degree-zero invariant: the classical cubic's coefficient at
    the class counts times their factorials, `RF_ZERO` where it has none."""
    counts = tuple(map(degree0_classes(classes).count, _CLASSES))
    value = classical_part().coeff(counts)
    return value * math.prod(map(math.factorial, counts)) if value else RF_ZERO


@functools.cache
def classical_part():
    """Degree-zero cubic in (z0, z1, z2), one variable per insertion class."""
    terms = {}
    for picks in itertools.combinations_with_replacement(_CLASSES, 3):
        counts = tuple(map(picks.count, _CLASSES))
        # an odd number of twisted insertions vanishes
        if counts[2] % 2 == 0:
            weight = Fraction(1, math.prod(map(math.factorial, counts)))
            terms[counts] = degree0_fixed_point_sum(picks) * weight
    # the vanishing triples are dropped by the constructor
    return Series(VarSet(("z0", "z1", "z2"), (3, 3, 3)), terms)


def g_series(order):
    """G, the triple antiderivative of (1/2) tan(z2/2) with all constants
    zero, to z2^order.

    Written straight from tan's Taylor coefficients T_m: three integrations
    of T_m z2^m / 2^(m+1) give G_n = T_(n-3) / (2^(n-2) n (n-1) (n-2)) at
    every even n >= 4, and the other coefficients vanish.  It starts at z2^4
    with coefficient 1/96.
    """
    return Series._of(VarSet(("z2",), (order,)), {
        (n,): _tan_coeff(n - 3) / (2 ** (n - 2) * n * (n - 1) * (n - 2))
        for n in range(4, order + 1, 2)})


def _tail_rows(vs):
    """The potential minus its classical cubic, divided by (t1+t2), as
    (parts, rows): parts[k] is an exponent's part (b, d[, c]), and each row
    (a, k, n, m) the term at (0, a) + parts[k], with coefficient n/m of Q in
    lowest terms, m > 0, in table order, by total degree and then by
    exponent as `Series.sorted_terms` orders them.

    Built on vs, caps for (z0, z1, z2, q) or, extended, (z0, z1, z2, q, u),
    where u enters only through theta = z2 + u and theta^n/n! is the sum of
    z2^b u^c/(b! c!) over b + c = n.  The q^0 row is -G_n n!/(b! c!), with
    n! G_n = T_(n-3) (n-3)!/2^(n-2) an unreduced integer pair from tan's
    coefficient; at d >= 1 the coefficient of z1^a z2^b u^c q^d is
    <H^a S^n>_d/(a! b! c!) without its (t1+t2), d^a/a! times
    `invariant_pair(d, n)` over b! c! when n = d (mod 2).
    """
    z1_cap, z2_cap, qmax = vs.caps[1:4]
    u_cap = sum(vs.caps[4:])  # 0 on the plain caps
    top, arity = z2_cap + u_cap, len(vs.caps) - 2
    fact = [math.factorial(k) for k in range(max(top, z1_cap) + 1)]
    # weight[d][n]: n! times the coefficient of theta^n q^d at z1 = 0, as
    # numerator and denominator, or None where there is no term
    weight = [[None] * (top + 1) for _ in range(qmax + 1)]
    for n in range(4, top + 1, 2):
        t = _tan_coeff(n - 3)
        weight[0][n] = (-t.numerator * fact[n - 3], t.denominator << (n - 2))
    for d in range(1, qmax + 1):
        for n in range(d % 2, top + 1, 2):
            weight[d][n] = invariant_pair(d, n)
    # parts in lexicographic order; by_total[t]: the parts of total t as
    # (k, d, numerator, denominator); n = b + c has the parity of d, so t is even
    parts, by_total = [], [[] for _ in range(top + qmax + 1)]
    for b, fb in enumerate(fact[:z2_cap + 1]):
        for d, row in enumerate(weight):
            for c in range((b + d) % 2, u_cap + 1, 2):
                if w := row[b + c]:
                    by_total[b + d + c].append((len(parts), d, w[0], w[1] * fb * fact[c]))
                    parts.append((b, d, c)[:arity])
    # per a: the divisor factor d^a/a! and the parts by total degree a + t,
    # those with d = 0 only at a = 0
    positive = [[p for p in part if p[1]] for part in by_total]
    factors = [(a, [d**a for d in range(qmax + 1)], fact[a],
                [[]] * a + (positive if a else by_total) + [[]] * (z1_cap - a))
               for a in range(z1_cap + 1)]
    rows = []
    # by total degree s, then a (of the parity of s), then part: each
    # coefficient is a ratio of two integer products, reduced by one gcd
    for s in range(z1_cap + len(by_total)):
        for a, p, f, part in factors[s % 2:s + 1:2]:
            for k, d, n, m in part[s]:
                n, m = p[d] * n, f * m
                g = math.gcd(n, m)
                rows.append((a, k, n // g, m // g))
    return parts, rows


class Potential:
    """The potential on `vs` as cubic + (t1+t2) * tail, supports disjoint.

    `cubic` is the classical cubic as a `RatFun` series on `vs`.  `parts` and
    `rows` hold the rest divided by (t1+t2) as `_tail_rows` makes them, each
    row (a, k, n, m) the term n/m at (0, a) + parts[k], in table order;
    `tail` is the same as a `Series` over Q, made from the rows on each read.
    """

    __slots__ = ("vs", "cubic", "parts", "rows")

    def __init__(self, vs, cubic, parts, rows):
        self.vs, self.cubic, self.parts, self.rows = vs, cubic, parts, rows

    @property
    def tail(self):
        return Series._of(self.vs, {(0, a) + self.parts[k]: Fraction(n, m)
                                    for a, k, n, m in self.rows})

    def series(self):
        """The potential as one `RatFun` series."""
        return self.cubic + self.tail.scale(_LEVEL)


def potential(qmax, zorder):
    """Full potential in (z0, z1, z2, q) with per-variable caps, as a `Potential`."""
    vs = VarSet(("z0", "z1", "z2", "q"), (zorder, zorder, zorder, qmax))
    return Potential(vs, classical_part().into(vs), *_tail_rows(vs))


def extended_potential(qmax, zorder, uorder):
    """Potential with z2 shifted by the formal angle u.

    The tail is written straight from its theta = z2 + u coefficients; only
    the classical cubic, a polynomial, goes through the shift.
    """
    target = VarSet(
        ("z0", "z1", "z2", "q", "u"), (zorder, zorder, zorder, qmax, uorder)
    )
    shift = {"z2": Series.variable(target, "z2") + Series.variable(target, "u")}
    cubic = classical_part().substitute(shift, target)
    return Potential(target, cubic, *_tail_rows(target))


def gw_invariant(n1, n2, d):
    """Degree-d invariant with n1 divisor and n2 twisted insertions.

    Divisor insertions each contribute a factor d; the twisted count must
    match the parity of d.  Positive degrees only; degree zero is handled
    point by point in the degree-zero layer.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("insertion counts must be nonnegative")
    base = local_invariant(d, n2)
    return _LEVEL * (Fraction(d) ** n1 * base)
