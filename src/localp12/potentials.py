"""The genus-zero potential of local P(1,2) in closed form.

The potential splits by curve degree into three layers:

  * classical: the degree-zero cubic, with one coefficient per three-point
    invariant of the classes 1, H, S, each a rational function of the
    torus weights t1, t2;
  * stacky: the degree-zero tail in the twisted variable alone, the triple
    antiderivative of half the tangent of z2/2, weighted by -(t1+t2);
  * quantum: for each positive degree d, the coefficient of z1^a z2^b q^d
    is the invariant <H^a S^b>_d / (a! b!): (t1+t2) times d^a from the
    divisor class and `local_invariant(d, b)` from the stacky insertions.
    Summed over a and b this is e^(d z1) times a sine or cosine of d z2/2;
    `localization` keeps that resummed series only as the independent route
    that checks the closed form.

Outside the classical cubic every coefficient is (t1+t2) times a rational
number, so the stacky and quantum layers are built together as one series
over Q, the rational tail.  `potential` and `extended_potential` return a
`Potential`: the cubic as a `RatFun` series and the tail over Q, on shared
per-variable caps.  The two never share an exponent: the cubic has q-degree
0 and total degree at most 3, the tail q-degree at least 1 or z2/u-degree at
least 4.  A writer can therefore print each term from exactly one part, and
`Potential.series()` attaches (t1+t2) to the tail and adds the cubic when a
`RatFun` series is wanted.  `extended_potential` shifts z2 by a formal angle
u in both parts, building the tail with a z2 cap high enough that the
truncated result is exact.  `gw_invariant` exposes the underlying
numbers directly, with the divisor class H accounted for by degree factors.
"""

import itertools
import math
from fractions import Fraction

from .localization import degree0_fixed_point_sum, local_invariant
from .mpseries import Series, VarSet, tan
from .ratfun import RF_T1, RF_T2, RF_ZERO

_CLASS_NAMES = ("1", "H", "S")

#: the weight (t1+t2) carried by every term outside the classical cubic
_LEVEL = RF_T1 + RF_T2


def degree0_triple(classes):
    """Three-point degree-zero invariant, including the vanishing ones."""
    classes = tuple(classes)
    if classes.count("S") % 2:
        return RF_ZERO
    return degree0_fixed_point_sum(classes)


def classical_part():
    """Degree-zero cubic in (z0, z1, z2), one variable per insertion class."""
    terms = {}
    for picks in itertools.combinations_with_replacement(range(3), 3):
        counts = (picks.count(0), picks.count(1), picks.count(2))
        weight = Fraction(1, math.prod(map(math.factorial, counts)))
        terms[counts] = degree0_triple(_CLASS_NAMES[i] for i in picks) * weight
    # the vanishing triples are dropped by the constructor
    return Series(VarSet(("z0", "z1", "z2"), (3, 3, 3)), terms)


def g_series(order):
    """Triple antiderivative of (1/2) tan(z2/2), all constants zero.

    Starts at z2^4 with coefficient 1/96; odd and low-order coefficients
    vanish.
    """
    if order < 4:
        return Series.zero(VarSet(("z2",), (order,)))
    vs = VarSet(("z2",), (order - 3,))
    integrand = tan(Series.variable(vs, "z2").scale(Fraction(1, 2))).scale(
        Fraction(1, 2)
    )
    return integrand.integrate("z2").integrate("z2").integrate("z2")


def stacky_part(order):
    """Degree-zero tail in z2: -(t1+t2) times `g_series`."""
    return g_series(order).scale(-_LEVEL)


def _plain_caps(qmax, zorder):
    return VarSet(("z0", "z1", "z2", "q"), (zorder, zorder, zorder, qmax))


def _rational_tail(vs):
    """The potential minus its classical cubic, divided by (t1+t2): over Q.

    Built on vs, caps for (z0, z1, z2, q).  The q^0 row is -G; at d >= 1 the
    coefficient of z1^a z2^b q^d is <H^a S^b>_d / (a! b!) without its
    (t1+t2), that is d^a/a! * local_invariant(d, b)/b! when b = d (mod 2).
    """
    _, z1_cap, z2_cap, qmax = vs.caps
    out = {(0, 0, b, 0): -c for (b,), c in g_series(z2_cap).terms()}
    for d in range(1, qmax + 1):
        stacky = [(b, local_invariant(d, b) / math.factorial(b))
                  for b in range(d % 2, z2_cap + 1, 2)]
        for a in range(z1_cap + 1):
            divisor = Fraction(d**a, math.factorial(a))
            for b, c in stacky:
                out[(0, a, b, d)] = divisor * c
    return Series(vs, out)


def quantum_part(qmax, zorder):
    """All positive-degree terms up to q^qmax, z-variables capped at zorder."""
    tail = _rational_tail(_plain_caps(qmax, zorder))
    # the terms of positive q-degree; those of q-degree 0 are -G
    return Series(tail.vs, {e: c * _LEVEL for e, c in tail.terms() if e[3]})


class Potential:
    """The potential on `vs` as cubic + (t1+t2) * tail, supports disjoint.

    `cubic` is the classical cubic as a `RatFun` series, `tail` the rest
    divided by (t1+t2), over Q; both live on `vs`.
    """

    __slots__ = ("vs", "cubic", "tail")

    def __init__(self, vs, cubic, tail):
        self.vs, self.cubic, self.tail = vs, cubic, tail

    def series(self):
        """The potential as one `RatFun` series."""
        return self.cubic + self.tail.scale(_LEVEL)


def potential(qmax, zorder):
    """Full potential in (z0, z1, z2, q) with per-variable caps, as a `Potential`."""
    if qmax < 0 or zorder < 0:
        raise ValueError("caps must be nonnegative")
    tail = _rational_tail(_plain_caps(qmax, zorder))
    return Potential(tail.vs, classical_part().into(tail.vs), tail)


def extended_potential(qmax, zorder, uorder):
    """Potential with z2 shifted by the formal angle u.

    The rational tail is built at z2-cap zorder + uorder before the shift,
    which is exactly enough for every retained coefficient of z2^a u^b to be
    exact; the shift leaves z0, z1 and q alone, so their caps need no margin,
    and the classical cubic is a polynomial and needs none either.
    """
    if qmax < 0 or zorder < 0 or uorder < 0:
        raise ValueError("caps must be nonnegative")
    target = VarSet(
        ("z0", "z1", "z2", "q", "u"), (zorder, zorder, zorder, qmax, uorder)
    )
    shift = {"z2": Series.variable(target, "z2") + Series.variable(target, "u")}
    tail = _rational_tail(_plain_caps(qmax, zorder).with_cap("z2", zorder + uorder))
    tail = tail.substitute(shift, target)
    return Potential(target, classical_part().substitute(shift, target), tail)


def gw_invariant(n1, n2, d):
    """Degree-d invariant with n1 divisor and n2 twisted insertions.

    Divisor insertions each contribute a factor d; the twisted count must
    match the parity of d.  Positive degrees only; degree zero is handled
    point by point in the degree-zero layer.
    """
    if d < 1:
        raise ValueError("degree must be positive, got %r" % (d,))
    if n1 < 0 or n2 < 0:
        raise ValueError("insertion counts must be nonnegative")
    base = local_invariant(d, n2)
    return _LEVEL * (Fraction(d) ** n1 * base)
