"""End-to-end acceptance gate.

One test per criterion, each printing a single "[criterion N] PASS/FAIL"
line (run with -s to see them) and holding a wall-clock budget.  The last
criterion re-derives every exact quantity from the first eight through an
independent floating-point route and compares complex embeddings at 1e-10
relative tolerance.
"""

import cmath
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement

from localp12.cyclotomic import I, zeta_pow
from localp12.localization import even_literal_assembly, odd_assembly, resummed
from localp12.mpseries import Series, VarSet, exp, inverse
from localp12.pcrc import (
    build_corollary,
    build_cov,
    build_covbgp,
    compose,
    corollary_suite,
    invert,
    verify_bracket_identity,
    verify_residual_thirdderiv,
)
from localp12.potentials import (
    classical_part,
    degree0_triple,
    g_series,
    gw_invariant,
    local_invariant,
    potential,
)
from localp12.ratfun import RF_T1, RF_T2, RF_ZERO, rf
from localp12.reports import pair_text

_TOL = 1e-10


@contextmanager
def _criterion(number, budget, label):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        verdict = "PASS" if ok and dt < budget else "FAIL"
        print("[criterion %d] %s %s (%.2f s, budget %g s)" % (
            number, verdict, label, dt, budget))
    assert dt < budget, "criterion %d took %.2f s, budget %g s" % (
        number, dt, budget)


def _agree(got, want):
    g, w = complex(got), complex(want)
    if g == 0 or w == 0:
        assert abs(g - w) <= _TOL, (g, w)
    else:
        assert abs(g - w) <= _TOL * max(abs(g), abs(w)), (g, w)


def _embed(ratfun_const):
    # constants carry no t-dependence, any evaluation point works
    return rf(ratfun_const).eval(1, 1).embed()


def _inv_float(d, n):
    # closed form of the local invariant, in doubles only
    if d % 2:
        sign = (-1.0) ** ((n - 1) // 2 + (d - 1) // 2)
    else:
        sign = (-1.0) ** (n // 2 + d // 2)
    return sign * (2.0 / d**3) * (d / 2.0) ** n


def _zigzag(top):
    # boustrophedon triangle; odd entries are the tangent numbers
    rows = [[1.0]]
    for n in range(1, top + 1):
        prev = rows[-1][::-1]
        row = [0.0]
        for k in range(n):
            row.append(row[-1] + prev[k])
        rows.append(row)
    return [r[-1] for r in rows]


def _dfact(n):
    return float(math.prod(range(n, 0, -2))) if n > 0 else 1.0


_POINTS = (
    (Fraction(13, 10), Fraction(7, 10)),
    (Fraction(3, 2), Fraction(-5, 7)),
    (Fraction(2), Fraction(1, 3)),
)

_PAIRINGS = {
    ("1", "1", "1"): lambda x, y: 1.0 / (3.0 * x * y),
    ("1", "1", "H"): lambda x, y: 0.0,
    ("1", "H", "H"): lambda x, y: -2.0 / 3.0,
    ("H", "H", "H"): lambda x, y: -2.0 * (x + 2.0 * y) / 3.0,
    ("1", "S", "S"): lambda x, y: 0.5,
    ("H", "S", "S"): lambda x, y: -x / 2.0,
}


def test_criterion_1_degree0_pairing_values():
    with _criterion(1, 1, "degree-0 pairing values"):
        t1, t2 = RF_T1, RF_T2
        assert degree0_triple(("1", "1", "1")) == rf(Fraction(1, 3)) / (t1 * t2)
        assert degree0_triple(("1", "1", "H")) == RF_ZERO
        assert degree0_triple(("1", "H", "H")) == rf(Fraction(-2, 3))
        assert degree0_triple(("H", "H", "H")) == (t1 + t2 * 2) * Fraction(-2, 3)
        assert degree0_triple(("1", "S", "S")) == rf(Fraction(1, 2))
        assert degree0_triple(("H", "S", "S")) == t1 * Fraction(-1, 2)


def test_criterion_2_g_series_onset():
    with _criterion(2, 5, "G-series onset and order-20 build"):
        g = g_series(20)
        for n in range(4):
            assert g.coeff((n,)) == RF_ZERO
        for n in range(5, 21, 2):
            assert g.coeff((n,)) == RF_ZERO
        assert g.coeff((4,)) == rf(Fraction(1, 96))
        assert g.coeff((6,)) == rf(Fraction(1, 5760))
        assert g.coeff((8,)) == rf(Fraction(1, 161280))
        for n in range(4, 21, 2):
            assert g.coeff((n,)) != RF_ZERO


def test_criterion_3_odd_assembly_matches_resummation():
    with _criterion(3, 10, "odd assembly equals resummation"):
        for d in (1, 3, 5, 7, 9):
            for g in range(5):
                a = odd_assembly(d, g)
                assert a.total.is_constant
                n = 2 * g + 1
                target = resummed(d, n).coeff((n,))
                assert a.value == math.factorial(n) * target


def test_criterion_4_even_oracle_and_literal_report():
    with _criterion(4, 5, "even oracle; literal product reported"):
        # n! times the z2^n coefficient of the resummed series, n = 2g + 2
        for d, g, want in ((2, -1, Fraction(-1, 4)), (2, 0, Fraction(1, 4)),
                           (4, -1, Fraction(1, 32))):
            n = 2 * g + 2
            assert math.factorial(n) * resummed(d, n).coeff((n,)) == want
        for d in (2, 4, 6, 8):
            for g in (-1, 0, 1):
                rec = even_literal_assembly(d, g)
                if not rec.matches:
                    print(
                        "[criterion 4] literal d=%d g=%d: %s * s^%s *"
                        " (2d)^%s * d^%s, closed form %s" % (
                            d, g, pair_text(rec.rational), pair_text(rec.s_exponent),
                            pair_text(rec.root2d_exponent), pair_text(rec.rootd_exponent),
                            pair_text(rec.closed_form)))


def test_criterion_5_classical_cubics_and_divisor():
    with _criterion(5, 10, "classical cubics and divisor slices"):
        c = classical_part()
        seen = set()
        for m in combinations_with_replacement(("1", "H", "S"), 3):
            e = (m.count("1"), m.count("H"), m.count("S"))
            weight = Fraction(1)
            for k in e:
                weight /= math.factorial(k)
            assert c.coeff(e) == degree0_triple(m) * weight
            seen.add(e)
        assert {e for e, _ in c.terms()} <= seen
        full = potential(8, 8).series()
        p = Series(full.vs, {e: v for e, v in full.terms() if e[3]})
        dp = p.differentiate("z1")
        degrees = set()
        for e, v in dp.terms():
            assert v == p.coeff(e) * e[3]
            degrees.add(e[3])
        assert degrees == set(range(1, 9))


def test_criterion_6_bracket_identity():
    with _criterion(6, 30, "carried bracket identity"):
        report = verify_bracket_identity(8, 10)
        assert report.passed
        assert [case["key"] for case in report.cases] == [
            "d=%d" % d for d in range(1, 9)]
        assert all(case["first_mismatch"] is None for case in report.cases)


def test_criterion_7_residual_identity():
    with _criterion(7, 5, "residual third-derivative identity"):
        report = verify_residual_thirdderiv(16)
        assert report.passed


def test_criterion_8_corollary_composition():
    with _criterion(8, 1, "corollary composition and remark"):
        got = compose(invert(build_cov(), 0), build_covbgp())
        want = build_corollary()
        assert got.source == want.source and got.target == want.target
        for name in got.source:
            assert got.line(name) == want.line(name)
        assert got == want
        assert got.line("u").phase == zeta_pow(10)
        report = corollary_suite()
        assert report.passed
        assert [case["key"] for case in report.cases] == (
            ["chain"] + ["line %s" % name for name in ("z0", "z1", "z2", "q", "u")]
            + ["branch=%d" % b for b in range(12)])


def test_criterion_9_numeric_cross_check():
    with _criterion(9, 10, "numeric cross-check at 1e-10"):
        zz = _zigzag(17)

        # degree-0 pairings against the closed forms, at sample points
        for t1q, t2q in _POINTS:
            x, y = float(t1q), float(t2q)
            for cls, closed in _PAIRINGS.items():
                _agree(degree0_triple(cls).eval(t1q, t2q).embed(), closed(x, y))

        # G coefficients from float tangent numbers, integrated three times
        g = g_series(20)
        for m in range(4, 21, 2):
            n = m - 3
            fi = zz[n] / (2.0 * math.factorial(n) * 2.0**n)
            _agree(float(g.coeff((m,))), fi / (m * (m - 1) * (m - 2)))

        # odd and even invariants against the float closed form
        for d in (1, 3, 5, 7, 9):
            for g_ in range(5):
                _agree(float(odd_assembly(d, g_).value), _inv_float(d, 2 * g_ + 1))
        for d in (2, 4, 6, 8):
            for g_ in range(-1, 4):
                n = 2 * g_ + 2
                _agree(float(math.factorial(n) * resummed(d, n).coeff((n,))), _inv_float(d, n))
                _agree(float(local_invariant(d, n)), _inv_float(d, n))

        # literal even product, recomputed with doubles at s = 1
        for d in (2, 4, 6):
            for g_ in (-1, 0, 1):
                rec = even_literal_assembly(d, g_)
                lit = _dfact(d - 1) / (2.0 * d) ** ((d - 1) / 2.0)
                lit *= math.factorial(d - 1) / float(d) ** (d - 1)
                lit /= (2.0 * math.factorial(d) * _dfact(d)
                        / ((2.0 * d) ** (d / 2.0) * float(d) ** d))
                lit /= 2.0
                lit *= 0.25**g_
                lit *= -(float(d) ** (2 * g_))
                (num, den), (a, a_den), (b, b_den) = (
                    rec.rational, rec.root2d_exponent, rec.rootd_exponent)
                want = num / den * (2.0 * d) ** (a / a_den) * float(d) ** (b / b_den)
                _agree(want, lit)

        # classical cubics and quantum invariants at sample points
        c = classical_part()
        combos = list(combinations_with_replacement(("1", "H", "S"), 3))
        for t1q, t2q in _POINTS:
            x, y = float(t1q), float(t2q)
            for m in combos:
                e = (m.count("1"), m.count("H"), m.count("S"))
                weight = 1.0
                for k in e:
                    weight /= math.factorial(k)
                triple = _PAIRINGS.get(tuple(sorted(m)), lambda *_: 0.0)(x, y)
                _agree(rf(c.coeff(e)).eval(t1q, t2q).embed(), triple * weight)
            for d in range(1, 9):
                for n1 in (0, 1, 2):
                    for n2 in (d % 2, d % 2 + 2):
                        got = gw_invariant(n1, n2, d).eval(t1q, t2q).embed()
                        _agree(got, (x + y) * d**n1 * _inv_float(d, n2))

        # every carried-bracket coefficient from the direct power formula
        vs = VarSet(("z1", "z2", "q", "u"), (10, 10, 8, 10))
        z1 = Series.variable(vs, "z1")
        theta0 = Series.variable(vs, "z2") + Series.variable(vs, "u")
        for d in range(1, 9):
            carrier = exp(z1.scale(d)) * Series(
                vs, {(0, 0, d, 0): rf(Fraction(1, d**3))})
            theta = theta0.scale(Fraction(d, 2))
            side = carrier * (
                exp(theta.scale(-I)) + exp(theta.scale(I)).scale((-1) ** d)
            ).scale(I**d * Fraction(1, 2))
            for e, v in side.terms():
                m, a, _, b = e
                f = (1j**d) * ((-1j * d / 2.0) ** (a + b)
                               + (-1.0) ** d * (1j * d / 2.0) ** (a + b))
                f /= 2.0 * math.factorial(a + b)
                want = (float(d) ** m / math.factorial(m) / d**3
                        * f * math.comb(a + b, b))
                _agree(_embed(v), want)

        # residual series from tangent numbers, plus two sample points
        tvs = VarSet(("theta",), (16,))
        th = Series.variable(tvs, "theta")
        ez = exp(th.scale(I))
        rhs = (ez * inverse(Series.constant(tvs, 1) + ez)).scale(I)
        coeffs = [_embed(rhs.coeff((n,))) for n in range(17)]
        _agree(coeffs[0], 0.5j)
        for n in range(1, 17):
            want = -zz[n] / (math.factorial(n) * 2.0 ** (n + 1)) if n % 2 else 0.0
            _agree(coeffs[n], want)
        for point in (0.3, 0.2 - 0.1j):
            total = sum(coeffs[n] * point**n for n in range(17))
            _agree(total, 1j * cmath.exp(1j * point) / (1 + cmath.exp(1j * point)))

        # corollary entries against cmath closed forms
        w = cmath.exp(2j * cmath.pi / 3)
        wb = w.conjugate()
        cfac = 1j / math.sqrt(3)
        r = 1 / math.sqrt(3)
        cor = build_corollary()
        checks = (
            (cor.line("z0").coeff("x0"), 1.0),
            (cor.line("z1").coeff("x1"), cfac / 2 * (wb - 1)),
            (cor.line("z1").coeff("x2"), cfac / 2 * (w - 1)),
            (cor.line("z2").coeff("x1"), r * w),
            (cor.line("z2").coeff("x2"), r * wb),
            (cor.line("q").phase, cmath.exp(1j * cmath.pi / 6)),
            (cor.line("q").form.coeff("s1"), cfac * wb),
            (cor.line("q").form.coeff("s2"), cfac * w),
            (cor.line("u").phase, cmath.exp(-1j * cmath.pi / 3)),
            (cor.line("u").form.coeff("s1"), r * w),
            (cor.line("u").form.coeff("s2"), r * wb),
        )
        for exact, want in checks:
            _agree(exact.embed(), want)
        for b in range(12):
            uline = compose(invert(build_cov(), b), build_covbgp()).line("u")
            _agree(cmath.exp(1j * math.pi * float(uline.constant_in_pi())),
                   cmath.exp(1j * (-math.pi / 3 + 2 * math.pi * b)))
            assert abs(uline.phase.embed() - 1) > 0.5
