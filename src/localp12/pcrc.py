"""Change-of-variable maps along the partial resolution chain.

Three coordinate patches: (y0, y1, y2, q1, q2) on the full resolution side,
(z0, z1, z2, q, u) on local P(1,2) with its extension angle u, and
(x0, x1, x2, s1, s2) on the quotient side.  A map moves cohomology
variables by an invertible Cyclo-linear block and sends each quantum
parameter either to a root of unity times another quantum parameter or to
a root of unity times the exponential of a linear form.

Inverting an exponential line takes a logarithm, hence a branch integer b;
the recovered angle constant is pi a/6 + 2 pi b, with a/6 the principal angle
of the phase over pi, in (-1, 1] (`AngleLine.constant_in_pi`).  The
constant phase is a 12th root of unity and does not depend on b, which is
why no branch choice ever makes the angle constant vanish: the angle line
produced by chaining the two printed maps carries phase zeta^10 (that is,
e^{-i pi/3}) for every b.

`verify_bracket_identity` and `verify_residual_thirdderiv` check the two
series identities that drive the specialization argument.  Both run in
Q(zeta12) in the one angle theta = z2 + u and decide each case by one exact
`==`.  The residual identity reads G''' off the potential's own degree-zero
tail, `potentials.g_series`, lifted to `Cyclo`, against an independent exp
right side.  The bracket identity is stated on (z1, z2, q, u) with the
carrier (q e^{z1})^d / d^3, but the carrier's z1^0 q^d coefficient is
nonzero and z2^a u^b picks up C(a+b, a) times the theta^{a+b} coefficient,
so checking bracket - wave to theta-degree 2 * order is the same check.  The
corollary suite makes one composition, the first map inverted on branch 0
and chained with the second, checks it against the third entry by entry, and
reads the twelve branch cases off its u-line.  The module takes `g_series`
and `quantum_sign` from `potentials` and imports no `localization`.
"""

from fractions import Fraction
from math import comb

from .cyclotomic import Cyclo, I, OMEGA, OMEGA_BAR, ONE, ZERO, zeta_pow
from .mpseries import Series, VarSet, cos, exp, inverse, sin
from .potentials import g_series, quantum_sign
from .reports import FrozenRecord, SuiteReport, case, pair_text, reduced

#: i / sqrt(3) = (2 zeta^2 - 1) / 3
I_OVER_SQRT3 = Cyclo(Fraction(-1, 3), 0, Fraction(2, 3), 0)
#: 1 / sqrt(3)
INV_SQRT3 = I_OVER_SQRT3 * -I
#: 1/2, rational, so a product with it is a scaling
HALF = Cyclo(Fraction(1, 2))


def _cyclo(x):
    return x if isinstance(x, Cyclo) else Cyclo(x)


_PHASE_EXPONENTS = {zeta_pow(k): k for k in range(12)}


def _principal_sixths(k):
    """The principal angle of zeta^k in units of pi/6, in (-6, 6]."""
    return k if k <= 6 else k - 12


# --------------------------------------------------------------------------
# line types


class LinearForm(FrozenRecord):
    """Cyclo-linear combination of named variables (sorted, zero-free)."""

    __slots__ = ("terms",)

    @classmethod
    def of(cls, mapping):
        items = []
        for name in sorted(mapping):
            c = _cyclo(mapping[name])
            if c:
                items.append((name, c))
        return cls(tuple(items))

    def coeff(self, name):
        for n, c in self.terms:
            if n == name:
                return c
        return ZERO

    def names(self):
        return tuple(n for n, _ in self.terms)

    def scaled(self, c):
        c = _cyclo(c)
        return LinearForm.of({n: v * c for n, v in self.terms})


class ScalarLine(FrozenRecord):
    """q maps to scalar * var: an ordinary quantum parameter."""

    __slots__ = ("scalar", "var")


class ExpLine(FrozenRecord):
    """q maps to phase * e^(form): a root-of-unity specialization."""

    __slots__ = ("phase", "form")


class LogLine(FrozenRecord):
    """v maps to premult * Log_branch(scalar * param).

    The unresolved inverse of an exponential line; composing it over an
    ExpLine resolves it into an AngleLine.
    """

    __slots__ = ("premult", "scalar", "param", "branch")


class AngleLine(FrozenRecord):
    """v maps to an exact angle constant plus a linear form.

    The constant is pi (a/6 + 2 branch), a/6 the phase's angle over pi in
    (-1, 1]; the phase is pinned to a power of zeta so it stays symbolic.
    """

    __slots__ = ("phase", "branch", "form")

    def constant_in_pi(self):
        k = _PHASE_EXPONENTS.get(self.phase)
        if k is None:
            raise ValueError("not a 12th root of unity: %s" % (self.phase,))
        return Fraction(_principal_sixths(k) + 12 * self.branch, 6)


class CovMap(FrozenRecord):
    __slots__ = ("source", "target", "lines")  # lines: (name, line) in source order

    def line(self, name):
        for n, ln in self.lines:
            if n == name:
                return ln
        raise KeyError(name)


# --------------------------------------------------------------------------
# the three printed maps


def build_cov():
    """Resolution-side coordinates in terms of the orbifold line's."""
    return CovMap(
        source=("y0", "y1", "y2", "q1", "q2"),
        target=("z0", "z1", "z2", "q", "u"),
        lines=(
            ("y0", LinearForm.of({"z0": 1})),
            ("y1", LinearForm.of({"z2": I})),
            ("y2", LinearForm.of({"z1": ONE, "z2": I * Fraction(-1, 2)})),
            ("q1", ExpLine(-ONE, LinearForm.of({"u": I}))),
            ("q2", ScalarLine(I, "q")),
        ),
    )


def build_covbgp():
    """Resolution-side coordinates in terms of the quotient side's."""
    c = I_OVER_SQRT3
    return CovMap(
        source=("y0", "y1", "y2", "q1", "q2"),
        target=("x0", "x1", "x2", "s1", "s2"),
        lines=(
            ("y0", LinearForm.of({"x0": 1})),
            ("y1", LinearForm.of({"x1": c * OMEGA, "x2": c * OMEGA_BAR})),
            ("y2", LinearForm.of({"x1": c * OMEGA_BAR, "x2": c * OMEGA})),
            ("q1", ExpLine(OMEGA, LinearForm.of({"s1": c * OMEGA, "s2": c * OMEGA_BAR}))),
            ("q2", ExpLine(OMEGA, LinearForm.of({"s1": c * OMEGA_BAR, "s2": c * OMEGA}))),
        ),
    )


def build_corollary():
    """Orbifold-line coordinates in terms of the quotient side's."""
    c = I_OVER_SQRT3
    h = c * Fraction(1, 2)
    r = INV_SQRT3
    return CovMap(
        source=("z0", "z1", "z2", "q", "u"),
        target=("x0", "x1", "x2", "s1", "s2"),
        lines=(
            ("z0", LinearForm.of({"x0": 1})),
            ("z1", LinearForm.of({"x1": h * (OMEGA_BAR - 1), "x2": h * (OMEGA - 1)})),
            ("z2", LinearForm.of({"x1": r * OMEGA, "x2": r * OMEGA_BAR})),
            ("q", ExpLine(-I * OMEGA, LinearForm.of({"s1": c * OMEGA_BAR, "s2": c * OMEGA}))),
            ("u", AngleLine(zeta_pow(10), 0, LinearForm.of({"s1": r * OMEGA, "s2": r * OMEGA_BAR}))),
        ),
    )


# --------------------------------------------------------------------------
# inversion and composition


def invert(m, branch=0):
    """Inverse map; exponential lines pick up the given logarithm branch."""
    lin_sources = [n for n, ln in m.lines if isinstance(ln, LinearForm)]
    touched = []
    for n in lin_sources:
        for v in m.line(n).names():
            if v not in touched:
                touched.append(v)
    touched.sort(key=m.target.index)
    if len(touched) != len(lin_sources):
        raise ValueError("singular linear part: %d variables for %d lines"
                         % (len(touched), len(lin_sources)))
    inv_rows = _invert_matrix([[m.line(n).coeff(v) for v in touched] for n in lin_sources])

    out = {}
    for j, v in enumerate(touched):
        out[v] = LinearForm.of(
            {lin_sources[i]: inv_rows[j][i] for i in range(len(lin_sources))}
        )
    for n, ln in m.lines:
        if isinstance(ln, ScalarLine):
            if ln.var in out:
                raise ValueError("two lines land on %r" % (ln.var,))
            out[ln.var] = ScalarLine(ln.scalar.inv(), n)
        elif isinstance(ln, ExpLine):
            if len(ln.form.terms) != 1:
                raise ValueError(
                    "cannot invert an exponential of the multi-variable form %r"
                    % (ln.form,)
                )
            v, k = ln.form.terms[0]
            if v in out:
                raise ValueError("two lines land on %r" % (v,))
            out[v] = LogLine(k.inv(), ln.phase.inv(), n, branch)
        elif isinstance(ln, (LogLine, AngleLine)):
            raise ValueError("cannot invert a logarithm or angle line")
    missing = [v for v in m.target if v not in out]
    if missing:
        raise ValueError("target variables never hit: %r" % (missing,))
    return CovMap(m.target, m.source, tuple((v, out[v]) for v in m.target))


def _invert_matrix(rows):
    """Gauss-Jordan inverse of a list of rows; a pivot of 1 is not inverted."""
    n = len(rows)
    aug = [list(rows[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular linear part")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        if aug[col][col] != ONE:
            inv = aug[col][col].inv()
            aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    # row j of the inverse expresses variable j in terms of the sources
    return [row[n:] for row in aug]


def compose(a, b):
    """The chain 'a then b'; sources of b must be the targets of a.  An
    exponential line of a is not pushed: ValueError."""
    if a.target != b.source:
        raise ValueError(
            "maps do not chain: %r versus %r" % (a.target, b.source)
        )
    lines = tuple((n, _push(ln, b)) for n, ln in a.lines)
    return CovMap(a.source, b.target, lines)


def _push(ln, b):
    if isinstance(ln, LinearForm):
        acc = {}
        for v, c in ln.terms:
            img = b.line(v)
            if not isinstance(img, LinearForm):
                raise ValueError("linear line runs into the quantum line of %r" % (v,))
            for w, cw in img.terms:
                acc[w] = acc.get(w, ZERO) + c * cw
        return LinearForm.of(acc)
    if isinstance(ln, ScalarLine):
        img = b.line(ln.var)
        if isinstance(img, ScalarLine):
            return ScalarLine(ln.scalar * img.scalar, img.var)
        if isinstance(img, ExpLine):
            return ExpLine(ln.scalar * img.phase, img.form)
        raise ValueError("cannot rescale the line of %r" % (ln.var,))
    if isinstance(ln, LogLine):
        img = b.line(ln.param)
        if isinstance(img, ScalarLine):
            return LogLine(ln.premult, ln.scalar * img.scalar, img.var, ln.branch)
        if isinstance(img, ExpLine):
            if ln.premult != -I:
                raise ValueError("angle resolution requires premultiplier -i")
            return AngleLine(ln.scalar * img.phase, ln.branch, img.form.scaled(-I))
        raise ValueError("cannot take the logarithm of the line of %r" % (ln.param,))
    raise ValueError("cannot push %r through a further map" % (ln,))


# --------------------------------------------------------------------------
# identity verification


def _conjugate(f):
    """f with each coefficient complex-conjugated; an int or Fraction
    coefficient is its own conjugate."""
    return Series._of(f.vs, {e: c.conj() if isinstance(c, Cyclo) else c
                             for e, c in f.terms()})


def verify_bracket_identity(qmax, order):
    """Per-degree check that the specialized exponential bracket closes up.

    For each degree d, the carried bracket

        (q e^{z1})^d / d^3 * i^d * (e^{-i d(z2+u)/2} + (-1)^d e^{i d(z2+u)/2}) / 2

    must equal sign(d) * sin or cos of d(z2+u)/2 on the same carrier, with
    sine for odd d and cosine for even d, to the caps (order, order, qmax,
    order) on (z1, z2, q, u).

    Both sides are functions of theta = z2 + u alone, so the check runs on
    the difference D(theta) = bracket - wave to theta-degree 2 * order.
    This is the same check: the z1^0 q^d coefficient of the carrier is
    1/d^3, nonzero for d <= qmax, and the z2^a u^b coefficient of
    D(z2 + u) is C(a+b, a) * D_{a+b}, where every a + b <= 2 * order is
    reached with a, b <= order.  So the carried difference vanishes to the
    caps exactly when D does to theta-degree 2 * order.

    One `exp`, one `sin` and one `cos` per call, none at qmax = 0, each of theta
    times `HALF`, so both sides hold `Cyclo`s: degree d's sides are the
    dilations theta -> d theta of e^{i theta/2}, sin(theta/2) and cos(theta/2),
    which multiply the theta^k coefficient by d^k.  e^{-i theta/2} is
    `_conjugate` of e^{i theta/2}, as conjugation is a field automorphism that
    fixes theta/2.  The bracket depends on d only through i^d and (-1)^d, so
    one undilated pair, a parity base e^{-i theta/2} +- e^{i theta/2} times
    i^d/2 = zeta^{3d} HALF and the wave or its negation by sign(d) = +-1,
    serves every d with the same d mod 4 and sign(d): dilation by d != 0
    keeps equality and the lowest exponent of D.  The wave keeps its own
    sin/cos Taylor route, so the two sides stay independent.

    Only a failing pair builds D: with k its lowest theta-degree and
    a = max(0, k - order), the carried record's first exponent is
    (0, a, d, k - a) and both sides there are C(k, a) d^k/d^3 times their
    undilated theta^k coefficients.
    """
    if not qmax:
        return SuiteReport("bracket", [])
    vs = VarSet(("theta",), (2 * order,))
    half = Series.variable(vs, "theta").scale(HALF)
    plus = exp(half.scale(I))
    minus = _conjugate(plus)
    bases = (minus + plus, minus + -plus)
    waves = (cos(half), sin(half))
    sides = {}
    cases = []
    for d in range(1, qmax + 1):
        key = "d=%d" % d
        sign = quantum_sign(d)
        if (d % 4, sign) not in sides:
            bracket = bases[d % 2].scale(zeta_pow(3 * d) * HALF)
            wave = waves[d % 2] if sign == 1 else -waves[d % 2]
            sides[d % 4, sign] = (bracket, wave, bracket == wave)
        bracket, wave, same = sides[d % 4, sign]
        if same:
            cases.append(case(key, True))
            continue
        k = min(e for (e,), _ in (bracket - wave).terms())
        a = max(0, k - order)
        carry = Fraction(comb(k, a) * d**k, d**3)
        cases.append(case(key, False, None, bracket.coeff((k,)) * carry,
                          wave.coeff((k,)) * carry, (0, a, d, k - a)))
    return SuiteReport("bracket", cases)


def verify_residual_thirdderiv(order):
    """The angle-variable identity -G'''(theta) + i/2 = i e^{i theta}/(1 + e^{i theta}).

    The right side is what the degree sum collapses to after three derivatives,
    which is why no analytic continuation is needed at the derivative level;
    theta stands for z2 + u.  G is the potential's own `g_series(order + 3)` in
    z2, lifted to `Cyclo`, so both sides run in Q(zeta12) to z2^order.  With
    e = e^{i theta}, 1 + e is a unit (constant term 2), so lhs * (1 + e) == i e
    decides; only a failing case inverts 1 + e to report.
    """
    g = g_series(order + 3).scale(ONE)
    third = g.differentiate("z2").differentiate("z2").differentiate("z2")
    vs = third.vs
    lhs = Series.constant(vs, I * HALF) - third
    e = exp(Series.variable(vs, "z2").scale(I))
    unit = Series.constant(vs, 1) + e
    key = "theta-order=%d" % order
    if lhs * unit == e.scale(I):
        return SuiteReport("residual", [case(key, True)])
    rhs = (e * inverse(unit)).scale(I)
    first = min(x for x, _ in (lhs - rhs).terms())
    return SuiteReport("residual", [case(key, False, None, lhs.coeff(first), rhs.coeff(first),
                                         first)])


def _composition_cases(got):
    """The chain and each line of the composed map against the printed one;
    a failing case names both sides as text (a record's and a tuple's str is
    its repr)."""
    want = build_corollary()
    sides = [("chain", (got.source, got.target), (want.source, want.target))]
    sides += [("line %s" % name, got.line(name), want.line(name)) for name in want.source]
    return [case(key, g == w, None, g, w) for key, g, w in sides]


def _remark_cases(got):
    """The branch b enters the composed u-line only as the 2 pi b of its
    constant, so the branch-0 line is checked once and case b adds 2b; a
    u-line that is no angle of a 12th root of unity fails every case.  A
    failing case names the u-line and what it should be."""
    uline = got.line("u")
    want = "an AngleLine of phase zeta^10 on branch 0"
    k = _PHASE_EXPONENTS.get(uline.phase) if isinstance(uline, AngleLine) else None
    if k is None:
        return [case("branch=%d" % b, False, None, uline, want) for b in range(12)]
    ok = k == 10 and uline.branch == 0
    cases = []
    for b in range(12):
        # the constant over pi on branch b is a/6, written from the reduced pair
        a = _principal_sixths(k) + 12 * (uline.branch + b)
        cases.append(case("branch=%d" % b, ok and a != 0,
                          {"phase_exponent": k, "angle_over_pi": pair_text(reduced(a, 6))},
                          uline, want))
    return cases


def corollary_suite():
    """Invert the first printed map on branch 0, chain the second, compare
    the third; and no logarithm branch makes the angle constant vanish.

    The composition's u-line has phase zeta^10, so on branch b its constant
    is -pi/3 + 2 pi b, never zero; twelve branches are reported.
    """
    got = compose(invert(build_cov()), build_covbgp())
    return SuiteReport("corollary", _composition_cases(got) + _remark_cases(got))
