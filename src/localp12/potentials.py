"""The genus-zero potential of local P(1,2) in closed form.

The potential splits by curve degree into three layers:

  * classical: the degree-zero cubic, with one coefficient per three-point
    invariant of the classes 1, H, S, each a rational function of the
    torus weights t1, t2;
  * stacky: the degree-zero tail in the twisted variable alone, the triple
    antiderivative of half the tangent of z2/2, weighted by -(t1+t2);
  * quantum: one closed-form term per positive degree d, a sine or cosine
    of d z2/2 according to the parity of d, carried by e^(d z1) q^d and
    weighted by (t1+t2).

Outside the classical cubic every coefficient is (t1+t2) times a rational
number, so the stacky and quantum layers are built as series over Q and
(t1+t2) is attached once, after all series arithmetic.  `potential`
assembles the three layers under shared per-variable caps, and
`extended_potential` shifts z2 by a formal angle u at a working precision
high enough that the truncated result is exact.  `gw_invariant` exposes the
underlying numbers directly, with the divisor class H accounted for by
degree factors.
"""

import itertools
import math
from fractions import Fraction

from .localization import (
    degree0_fixed_point_sum,
    local_invariant,
    resummed_even,
    resummed_odd,
)
from .mpseries import Series, VarSet, exp, tan
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
    vs = VarSet(("z0", "z1", "z2"), (3, 3, 3))
    out = Series.zero(vs)
    for picks in itertools.combinations_with_replacement(range(3), 3):
        counts = (picks.count(0), picks.count(1), picks.count(2))
        value = degree0_triple(_CLASS_NAMES[i] for i in picks)
        if not value:
            continue
        weight = Fraction(
            1, math.factorial(counts[0]) * math.factorial(counts[1]) * math.factorial(counts[2])
        )
        out = out + Series(vs, {counts: value * weight})
    return out


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


def _rational_tail(qmax, zorder):
    """The potential minus its classical cubic, divided by (t1+t2): over Q."""
    vs = VarSet(("z0", "z1", "z2", "q"), (zorder, zorder, zorder, qmax))
    out = -g_series(zorder).into(vs)
    for d in range(1, qmax + 1):
        term = (resummed_odd if d % 2 else resummed_even)(d, zorder).into(vs)
        term = term * exp(Series.variable(vs, "z1").scale(d))
        out = out + term * Series(vs, {(0, 0, 0, d): 1})
    return out


def quantum_part(qmax, zorder):
    """All positive-degree terms up to q^qmax, z-variables capped at zorder."""
    tail = _rational_tail(qmax, zorder)
    # the terms of positive q-degree; those of q-degree 0 are -G
    return Series(tail.vs, {e: c * _LEVEL for e, c in tail.terms() if e[3]})


def potential(qmax, zorder):
    """Full potential as a series in (z0, z1, z2, q) with per-variable caps."""
    if qmax < 0 or zorder < 0:
        raise ValueError("caps must be nonnegative")
    tail = _rational_tail(qmax, zorder)
    return classical_part().into(tail.vs) + tail.scale(_LEVEL)


def extended_potential(qmax, zorder, uorder):
    """Potential with z2 shifted by the formal angle u.

    The rational tail is built at working z2-cap zorder + uorder before the
    shift, which is exactly enough for every retained coefficient of
    z2^a u^b to be exact; the classical cubic is a polynomial and needs no
    margin.
    """
    if qmax < 0 or zorder < 0 or uorder < 0:
        raise ValueError("caps must be nonnegative")
    target = VarSet(
        ("z0", "z1", "z2", "q", "u"), (zorder, zorder, zorder, qmax, uorder)
    )
    shift = {"z2": Series.variable(target, "z2") + Series.variable(target, "u")}
    tail = _rational_tail(qmax, zorder + uorder).substitute(shift, target)
    return classical_part().substitute(shift, target) + tail.scale(_LEVEL)


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
