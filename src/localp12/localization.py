"""Fixed-locus checks of the closed forms `potentials` writes from.

Everything here serves the `degree0`, `resummation` and `assembly` suites of
`verify`.  Positive degree localizes on a single family of fixed maps:
degree-d covers of the fiber line totally ramified over both torus-fixed
points.  An auxiliary one-parameter scaling with weight s acts on that
family; every contribution is a monomial in s, and the total must cancel to
an honest number.

Odd-degree assembly multiplies four ingredients:

  * edge factor: obstruction weights of the two twisted line bundles over
    the tangent weights of the cover, with the single reparametrization
    zero mode removed;
  * vertex factor: the Hodge-class evaluation (-1)^g (s/2)^{2g};
  * node factor: the coefficient of psi^{2g-1} in the smoothing series
    -(s/d) (s/(2d) - psi/2)^{-1}, continued formally to the exponent -1
    when g = 0;
  * a 1/d automorphism count and the hyperelliptic cover integral 1/2.

The edge factor does not depend on g and is made once per degree.  Every
factor is an `SMonomial` of three ints, num/den in lowest terms with den > 0
times s to an int power, and the total is their product, reduced with one
gcd; a `Fraction` appears only in `value()`, the number a cancelled total is.

Even degrees have the same closed form, proved here by resummation rather
than assembly: the literal even-degree fixed-locus product carries a net
s-exponent of -1/2 and never cancels (see `even_literal_assembly`, which
records the imbalance exactly instead of hiding it); the even invariant is
checked against n! times a coefficient of the resummed generating function,
and `potentials.local_invariant` is the direct formula both parities share.
`resummed` builds that generating function for both parities, a sine at
odd d and a cosine at even d, as a dilation of one Taylor wave per parity,
sin(z2/2) or cos(z2/2) made once per order, each dilated coefficient one
Fraction; the `resummation` suite reads every genus of a degree from one
such series.

The `resummation` and `assembly` cases compare integer pairs reduced by
`reports.reduced` (n! times a resummed coefficient, the odd total, the even
s-exponent) with `potentials.invariant_pair` or -1/2, and write every side's
text with `reports.pair_text`, in a failing case too.  Each call builds its
series, records and fixed-point sums afresh; only the `degree0` suite's
frozen targets and their texts are built once, on its first run.
"""

import functools
import math
from fractions import Fraction

from .mpseries import Series, VarSet, cos, sin
from .potentials import degree0_fixed_point_sum, invariant_pair, quantum_sign
from .ratfun import P_ONE, P_T1, P_T2, RF_T1, RF_T2, RF_ZERO, RatFun, rf
from .reports import FrozenRecord, SuiteReport, case, pair_text, reduced


class AssemblyInconsistencyError(ArithmeticError):
    """A fixed-locus product failed a structural invariant it must satisfy."""


# --------------------------------------------------------------------------
# monomials in the auxiliary weight


class SMonomial(FrozenRecord):
    """num/den times s^s_exp: three ints, num/den in lowest terms with
    den > 0, so that == between two is equality of their values."""

    __slots__ = ("num", "den", "s_exp")

    @property
    def is_constant(self):
        return self.s_exp == 0

    def value(self):
        if not self.is_constant:
            raise AssemblyInconsistencyError(
                "net s-exponent %s does not cancel" % (self.s_exp,)
            )
        return Fraction(self.num, self.den)


# --------------------------------------------------------------------------
# lifting weights of the three line bundles on the cover


class WeightTable(FrozenRecord):
    """Weights of the torus lift at the two ramification points of a cover.

    Each entry is the pair (at the stacky point, at the other point), in
    units of s.
    """

    __slots__ = ("o_one", "o_half", "tangent")


#: the unique lift making the direct-sum bundle O(-1) + O(-1/2) balanced
#: against the tangent line
DEFAULT_WEIGHTS = WeightTable((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(0)),
                              (Fraction(1, 2), Fraction(0)))


def odd_weight_families(d, table=None):
    """Weight lists (in units of s) entering the odd-degree edge factor.

    Returns (half, one, tangent): H^1 of the square-root bundle, H^1 of
    O(-1), and H^0 of the cover tangent bundle with its one zero mode
    removed.  Exactly one tangent weight must vanish; anything else means
    the lift is wrong.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("degree must be odd and positive, got %r" % (d,))
    table = table or DEFAULT_WEIGHTS
    w_half = table.o_half[0]
    w_one = table.o_one[0]
    w_tan = table.tangent[0]
    half = [w_half + Fraction(k, 2 * d) for k in range(1, d, 2)]
    one = [w_one + Fraction(k, 2 * d) for k in range(2, 2 * d, 2)]
    tangent = []
    zeros = 0
    for k in range(1, 3 * d + 1, 2):
        w = w_tan - Fraction(k, 2 * d)
        if w == 0:
            zeros += 1
            continue
        tangent.append(w)
    if zeros != 1:
        raise AssemblyInconsistencyError(
            "expected exactly one tangent zero mode at degree %d, found %d"
            % (d, zeros)
        )
    return half, one, tangent


# --------------------------------------------------------------------------
# node smoothing


def node_coefficient(d, k, stacky):
    """The psi^k coefficient of the factor smoothing the node joining cover
    and vertex, at degree d.

    The stacky node contributes -(s/d) / (s/(2d) - psi/2), whose psi^k
    coefficient is -2 (d/s)^k; the untwisted variant -(s/d) / (s/d - psi)
    gives -(d/s)^k.  Negative k continues the geometric series formally:
    the genus-zero (k = -1) and below cases are defined by the same
    formula, which is what makes the closed forms uniform in g.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    sign = -2 if stacky else -1
    num, den = (sign * d**k, 1) if k >= 0 else reduced(sign, d**-k)
    return SMonomial(num, den, -k)


#: integral of psi^(2g-1) over the space of genus-g hyperelliptic covers
COVER_INTEGRAL = SMonomial(1, 2, 0)


# --------------------------------------------------------------------------
# odd-degree assembly


class OddAssembly(FrozenRecord):
    """All five factors of one odd-degree fixed-locus contribution, as `SMonomial`s."""

    __slots__ = ("d", "g", "edge", "vertex", "node", "automorphisms", "cover_integral")

    @property
    def total(self):
        """The product of the five factors, reduced with one gcd."""
        e, v, n, a, c = self.edge, self.vertex, self.node, self.automorphisms, self.cover_integral
        num, den = reduced(e.num * v.num * n.num * a.num * c.num,
                           e.den * v.den * n.den * a.den * c.den)
        return SMonomial(num, den, e.s_exp + v.s_exp + n.s_exp + a.s_exp + c.s_exp)

    @property
    def value(self):
        # raises AssemblyInconsistencyError unless every power of s cancels
        return self.total.value()


@functools.cache
def _odd_edge(d):
    """The edge factor, a ratio of integer products reduced once; the sign of
    the tangent weights' product moves up to the numerator."""
    half, one, tangent = odd_weight_families(d)
    num = math.prod(w.numerator for w in half + one)
    den = math.prod(w.denominator for w in half + one)
    num *= math.prod(w.denominator for w in tangent)
    den *= math.prod(w.numerator for w in tangent)
    if den < 0:
        num, den = -num, -den
    return SMonomial(*reduced(num, den), len(half) + len(one) - len(tangent))


def odd_assembly(d, g):
    if g < 0:
        raise ValueError("genus must be nonnegative, got %r" % (g,))
    edge = _odd_edge(d)
    vertex = SMonomial((-1) ** g, 4**g, 2 * g)
    node = node_coefficient(d, 2 * g - 1, stacky=True)
    return OddAssembly(d, g, edge, vertex, node, SMonomial(1, d, 0), COVER_INTEGRAL)


# --------------------------------------------------------------------------
# even-degree literal product


class EvenLiteralAssembly(FrozenRecord):
    """Exact bookkeeping of the literal even-degree fixed-locus product.

    The product is rational * s^s_exponent * (2d)^root2d_exponent
    * d^rootd_exponent; it and the closed form are integer pairs reduced by
    `reports.reduced`.  It is recorded, not asserted: the net s-exponent
    is -1/2 for every even d, so the product is not a number and `matches`
    is decided, in integers, against the closed form only when all
    exponents vanish.
    """

    __slots__ = ("d", "g", "rational", "s_exponent", "root2d_exponent", "rootd_exponent",
                 "closed_form")

    @property
    def matches(self):
        (s, _), (a, a_den), (b, b_den) = self.s_exponent, self.root2d_exponent, self.rootd_exponent
        if s != 0 or a_den != 1 or b_den != 1:
            return False
        (num, den), (want_num, want_den) = self.rational, self.closed_form
        # num/den * (2d)^a * d^b == want_num/want_den, each negative power moved across
        left, right = num * want_den, want_num * den
        for base, e in ((2 * self.d, a), (self.d, b)):
            left, right = (left * base**e, right) if e >= 0 else (left, right * base**-e)
        return left == right


def even_literal_assembly(d, g):
    if d < 2 or d % 2:
        raise ValueError("degree must be even and positive, got %r" % (d,))
    if g < -1:
        raise ValueError("genus must be at least -1, got %r" % (g,))

    # the rational is num / den; every exponent is counted in halves
    num, den, s2, e2d2, ed2 = 1, 1, 0, 0, 0
    # first edge bundle: (d-1)!! s^((d-1)/2) / (2d)^((d-1)/2)
    num *= math.prod(range(d - 1, 0, -2))
    s2 += d - 1
    e2d2 -= d - 1
    # second edge bundle: (d-1)! (s/d)^(d-1)
    num *= math.factorial(d - 1)
    s2 += 2 * (d - 1)
    ed2 -= 2 * (d - 1)
    # tangent denominator: 2 d! d!! s^(3d/2) / ((2d)^(d/2) d^d)
    den *= 2 * math.factorial(d) * math.prod(range(d, 0, -2))
    s2 -= 3 * d
    e2d2 += d
    ed2 += 2 * d
    # flag factor s/2
    den *= 2
    s2 += 2
    # vertex (s/2)^(2g) = s^(2g) / 4^g; g = -1 inverts it
    if g < 0:
        num *= 4
    else:
        den *= 4**g
    s2 += 4 * g
    # untwisted node smoothing, psi^(2g) coefficient, of s-exponent -2g
    node = node_coefficient(d, 2 * g, stacky=False)
    num *= node.num
    den *= node.den
    s2 -= 4 * g
    # gluing factor 2 and the cover integral
    num *= 2 * COVER_INTEGRAL.num
    den *= COVER_INTEGRAL.den

    return EvenLiteralAssembly(
        d, g, reduced(num, den), reduced(s2, 2), reduced(e2d2, 2), reduced(ed2, 2),
        invariant_pair(d, 2 * g + 2),
    )


# --------------------------------------------------------------------------
# resummation


@functools.cache
def _wave(odd, order):
    """sin(z2/2) if odd else cos(z2/2), to z2^order: the one Taylor build
    that `resummed` dilates to every degree of that parity."""
    half = Series.variable(VarSet(("z2",), (order,)), "z2").scale(Fraction(1, 2))
    return (sin if odd else cos)(half)


def resummed(d, order):
    """Generating function of the degree-d invariants, 2 quantum_sign(d)/d^3
    times sin(d z2/2) at odd d and cos(d z2/2) at even d: the coefficient of
    z2^n times n! is the (d, n) invariant.  It is `_wave` dilated by d, its
    z2^n coefficient times d^n 2 quantum_sign(d)/d^3."""
    if d < 1:
        raise ValueError("degree must be positive, got %r" % (d,))
    wave = _wave(d % 2 == 1, order)
    sign, cube = 2 * quantum_sign(d), d**3
    return Series._of(wave.vs, {(n,): Fraction(c.numerator * sign * d**n, c.denominator * cube)
                                for (n,), c in wave.terms()})


# --------------------------------------------------------------------------
# suites


@functools.cache
def _degree0_targets():
    """The degree-0 suite's frozen targets, (key, classes, value, its text) per
    case, built on the suite's first run: the only thing a suite builds once."""
    return tuple(("<%s>" % ",".join(classes), classes, want, str(want)) for classes, want in (
        (("1", "1", "1"), RatFun(P_ONE, (P_T1 * P_T2).scale(3))),
        (("1", "1", "H"), RF_ZERO),
        (("1", "H", "H"), rf(Fraction(-2, 3))),
        (("H", "H", "H"), (RF_T1 + RF_T2 * 2) * Fraction(-2, 3)),
        (("1", "S", "S"), rf(Fraction(1, 2))),
        (("H", "S", "S"), RF_T1 * Fraction(-1, 2)),
    ))


def degree0_suite():
    """Check the six degree-zero three-point values against frozen targets.

    Canonical forms that are equal print the same text, so a passing case
    writes its target's text."""
    cases = []
    for key, classes, want, text in _degree0_targets():
        got = degree0_fixed_point_sum(classes)
        cases.append(case(key, True, {"value": text}) if got == want
                     else case(key, False, {"value": str(got)}, got, want))
    return SuiteReport("degree0", cases)


#: the (d, g) cases the resummation and assembly suites walk, odd then even
_ODD_GRID = [(d, g) for d in range(1, 10, 2) for g in range(0, 5)]
_EVEN_GRID = [(d, g) for d in range(2, 9, 2) for g in range(-1, 5)]
#: the net s-exponent of every even-degree literal product
_EVEN_IMBALANCE = (-1, 2)


def _pair_case(key, passed, info, got, want, n):
    """The case of two sides held as reduced integer pairs: a failing one
    names them by their text, with n its first mismatching exponent."""
    if passed:
        return case(key, True, info)
    return case(key, False, info, pair_text(got), pair_text(want), (n,))


def _per_degree(grid, shift):
    """`resummed(d, n)` per degree d of grid at its top count n = 2g + shift;
    cap exactness makes its lower coefficients those of a smaller build."""
    top = {}
    for d, g in grid:
        top[d] = max(top.get(d, 0), 2 * g + shift)
    return {d: resummed(d, n) for d, n in top.items()}


def resummation_suite():
    """Compare series extraction against the direct closed form: n! times
    the z2^n coefficient, reduced, against `invariant_pair(d, n)`."""
    cases = []
    for label, grid, shift in (("odd", _ODD_GRID, 1), ("even", _EVEN_GRID, 2)):
        coeffs = {d: dict(series.terms()) for d, series in _per_degree(grid, shift).items()}
        for d, g in grid:
            n = 2 * g + shift
            c = coeffs[d].get((n,), 0)
            got = reduced(math.factorial(n) * c.numerator, c.denominator)
            want = invariant_pair(d, n)
            cases.append(_pair_case("%s d=%d g=%d" % (label, d, g), got == want,
                                    {"value": pair_text(want)}, got, want, n))
    return SuiteReport("resummation", cases)


def assembly_suite():
    """Odd assembly against the closed form; even literal product recorded.

    An odd case compares the total's (num, den) with `invariant_pair(d, n)`
    as reduced integer pairs.  Even-degree cases pass when the product shows
    exactly the documented imbalance (net s-exponent -1/2, no match with the
    closed form); a change in that behavior is what fails them.
    """
    cases = []
    for d, g in _ODD_GRID:
        n = 2 * g + 1
        total = odd_assembly(d, g).total
        got, want = (total.num, total.den), invariant_pair(d, n)
        cases.append(_pair_case("odd d=%d g=%d" % (d, g), total.is_constant and got == want,
                                {"s_exponent": str(total.s_exp), "value": pair_text(got)},
                                got, want, n))
    for d, g in _EVEN_GRID:
        report = even_literal_assembly(d, g)
        matches = report.matches
        info = {
            "rational": pair_text(report.rational),
            "s_exponent": pair_text(report.s_exponent),
            "root2d_exponent": pair_text(report.root2d_exponent),
            "rootd_exponent": pair_text(report.rootd_exponent),
            "closed_form": pair_text(report.closed_form),
            "matches": matches,
        }
        # what is compared is the net s-exponent, which must stay -1/2
        cases.append(_pair_case("even-literal d=%d g=%d" % (d, g),
                                report.s_exponent == _EVEN_IMBALANCE and not matches, info,
                                report.s_exponent, _EVEN_IMBALANCE, 2 * g + 2))
    return SuiteReport("assembly", cases)
