import json
from fractions import Fraction

import pytest

from localp12 import pcrc
from localp12.cli import main
from localp12.cyclotomic import Cyclo, I, OMEGA, OMEGA_BAR, ONE, SQRT3, ZERO, zeta_pow
from localp12.mpseries import Series, VarSet, cos, exp, inverse, sin, tan
from localp12.pcrc import (
    AngleLine,
    CovMap,
    ExpLine,
    I_OVER_SQRT3,
    INV_SQRT3,
    LinearForm,
    LogLine,
    ScalarLine,
    build_corollary,
    build_cov,
    build_covbgp,
    compose,
    corollary_suite,
    invert,
    verify_bracket_identity,
    verify_residual_thirdderiv,
)
from localp12.localization import resummation_suite, resummed
from localp12.potentials import extended_potential, g_series, quantum_sign
from localp12.ratfun import RF_ONE, RF_T1, RF_T2, RatFun, rf


def test_sqrt3_constants():
    assert I_OVER_SQRT3 * I_OVER_SQRT3 == Cyclo(Fraction(-1, 3))
    assert INV_SQRT3 * INV_SQRT3 == Cyclo(Fraction(1, 3))
    assert I_OVER_SQRT3 == INV_SQRT3 * I


def test_principal_angle():
    # the angle over pi of a branch-0 line is its phase's, in (-1, 1]
    angles = [AngleLine(c, 0, LinearForm.of({})).constant_in_pi()
              for c in (ONE, I, -ONE, zeta_pow(9), zeta_pow(10))]
    assert angles == [0, Fraction(1, 2), 1, Fraction(-1, 2), Fraction(-1, 3)]
    assert all(type(a) is Fraction for a in angles)


def test_constant_in_pi_reads_every_power_of_zeta():
    # zeta^k has angle k pi/6, taken in (-pi, pi]; branch b adds 2 pi b
    for k in range(-12, 24):
        sixths = (k + 5) % 12 - 5
        for b in (-1, 0, 2):
            got = AngleLine(zeta_pow(k), b, LinearForm.of({})).constant_in_pi()
            assert got == Fraction(sixths, 6) + 2 * b
    assert [AngleLine(c, 0, LinearForm.of({})).constant_in_pi() for c in (1, -1)] == [0, 1]
    for c in (ZERO, 2, SQRT3, ONE + I):
        with pytest.raises(ValueError, match="not a 12th root of unity"):
            AngleLine(c, 0, LinearForm.of({})).constant_in_pi()


def test_printed_map_entries():
    cov = build_cov()
    assert cov.line("q2") == ScalarLine(I, "q")
    assert cov.line("q1") == ExpLine(-ONE, LinearForm.of({"u": I}))
    assert cov.line("y1") == LinearForm.of({"z2": I})
    assert cov.line("y2").coeff("z2") == I * Fraction(-1, 2)

    bgp = build_covbgp()
    assert bgp.line("y1").coeff("x1") == I_OVER_SQRT3 * OMEGA
    assert bgp.line("y2").coeff("x1") == I_OVER_SQRT3 * OMEGA_BAR
    assert bgp.line("q1").phase == OMEGA

    cor = build_corollary()
    uline = cor.line("u")
    assert uline.phase == zeta_pow(10)
    assert uline.branch == 0 and uline.constant_in_pi() == Fraction(-1, 3)
    assert cor.line("q").phase == -I * OMEGA == zeta_pow(1)
    # the z1 coefficients collapse in the field
    assert cor.line("z1").coeff("x1") == (ONE - zeta_pow(2)) * Fraction(1, 2)
    assert cor.line("z1").coeff("x2") == -zeta_pow(2) * Fraction(1, 2)
    assert cor.line("z2").coeff("x1") == INV_SQRT3 * OMEGA


def test_invert_cov_lines():
    inv = invert(build_cov(), 0)
    assert inv.source == ("z0", "z1", "z2", "q", "u")
    assert inv.line("z0") == LinearForm.of({"y0": 1})
    assert inv.line("z1") == LinearForm.of({"y1": Fraction(1, 2), "y2": 1})
    assert inv.line("z2") == LinearForm.of({"y1": -I})
    assert inv.line("q") == ScalarLine(-I, "q2")
    assert inv.line("u") == LogLine(-I, -ONE, "q1", 0)
    assert invert(build_cov(), 5).line("u").branch == 5


def test_invert_identity():
    ident = CovMap(
        ("a", "b"),
        ("a", "b"),
        (("a", LinearForm.of({"a": 1})), ("b", LinearForm.of({"b": 1}))),
    )
    assert invert(ident, 0) == ident


def test_invert_rejects_singular():
    m = CovMap(
        ("a", "b"),
        ("c", "d"),
        (("a", LinearForm.of({"c": 1})), ("b", LinearForm.of({"c": 2}))),
    )
    with pytest.raises(ValueError):
        invert(m, 0)


def test_round_trip_through_inverse():
    cov = build_cov()
    for b in (0, 1, -2):
        rt = compose(invert(cov, b), cov)
        for n in ("z0", "z1", "z2"):
            assert rt.line(n) == LinearForm.of({n: 1})
        assert rt.line("q") == ScalarLine(ONE, "q")
        u = rt.line("u")
        assert u == AngleLine(ONE, b, LinearForm.of({"u": 1}))
        assert u.constant_in_pi() == 2 * b


def test_composition_reproduces_corollary():
    got = compose(invert(build_cov(), 0), build_covbgp())
    assert got == build_corollary()
    composition = corollary_suite().cases[:6]
    assert all(c["pass"] and "info" not in c for c in composition)
    assert [c["key"] for c in composition] == ["chain"] + [
        "line %s" % name for name in ("z0", "z1", "z2", "q", "u")]


def test_corollary_remark_branches():
    suite = corollary_suite()
    branches = suite.cases[6:]
    assert [c["key"] for c in branches] == ["branch=%d" % b for b in range(12)]
    for b, case in enumerate(branches):
        assert case["pass"] is True
        assert case["info"] == {"phase_exponent": 10, "angle_over_pi": str(Fraction(-1, 3) + 2 * b)}
    assert suite.suite == "corollary"
    assert suite.passed
    assert len(suite.cases) == 18


@pytest.mark.parametrize("branch", [-3, -1, 0, 1, 4])
def test_remark_angle_texts_from_integers_are_those_of_the_fraction_route(branch):
    """Every phase zeta^k and some branches: each of the twelve cases writes
    the text of the Fraction `constant_in_pi() + 2 b`, and passes exactly
    when the phase is zeta^10 on branch 0 and that angle is not zero."""
    form = LinearForm.of({"u": 1})
    for k in range(12):
        uline = AngleLine(zeta_pow(k), branch, form)
        cases = pcrc._remark_cases(CovMap(("u",), ("u",), (("u", uline),)))
        for b, c in enumerate(cases):
            angle = uline.constant_in_pi() + 2 * b
            assert c["info"]["phase_exponent"] == k
            assert c["info"]["angle_over_pi"] == str(angle)
            assert c["pass"] is (k == 10 and branch == 0 and angle != 0)


@pytest.mark.parametrize("b", range(12))
def test_the_branch_enters_the_composition_only_through_the_u_line(b):
    base = compose(invert(build_cov(), 0), build_covbgp())
    u = base.line("u")
    lines = tuple((n, AngleLine(u.phase, b, u.form) if n == "u" else ln) for n, ln in base.lines)
    want = CovMap(base.source, base.target, lines)
    assert compose(invert(build_cov(), b), build_covbgp()) == want


def test_a_unit_u_phase_fails_every_branch(monkeypatch):
    cov = build_cov()
    q1 = cov.line("q1")
    lines = tuple((n, ExpLine(OMEGA, q1.form) if n == "q1" else ln) for n, ln in cov.lines)
    monkeypatch.setattr(pcrc, "build_cov", lambda: CovMap(cov.source, cov.target, lines))
    uline = compose(invert(pcrc.build_cov()), build_covbgp()).line("u")
    assert uline.phase == ONE
    branches = corollary_suite().cases[6:]
    assert [c["key"] for c in branches] == ["branch=%d" % b for b in range(12)]
    for b, case in enumerate(branches):
        assert case["pass"] is False
        assert case["info"] == {"phase_exponent": 0, "angle_over_pi": str(2 * b),
                             "got": repr(uline),
                             "want": "an AngleLine of phase zeta^10 on branch 0"}


@pytest.mark.parametrize("patch", ["q1 scalar", "s1 scalar"])
def test_a_malformed_u_line_fails_every_branch_through_the_cli(monkeypatch, capsys, patch):
    """An `ExpLine` or `LogLine` in place of the composed u-line's angle is
    reported as twelve failing branch cases, not raised."""
    if patch == "q1 scalar":
        name, build, line = "build_cov", build_cov, ScalarLine(I, "u")
    else:
        name, build, line = "build_covbgp", build_covbgp, ScalarLine(ONE, "s1")
    m = build()
    lines = tuple((n, line if n == "q1" else ln) for n, ln in m.lines)
    monkeypatch.setattr(pcrc, name, lambda: CovMap(m.source, m.target, lines))
    uline = compose(invert(pcrc.build_cov()), pcrc.build_covbgp()).line("u")
    assert isinstance(uline, ExpLine if patch == "q1 scalar" else LogLine)
    code = main(["verify", "--suite", "corollary"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["suite"] == "corollary"
    branches = [c for c in report["cases"] if c["key"].startswith("branch=")]
    assert len(branches) == 12
    for case in branches:
        assert not case["pass"]
        assert case["info"] == {"got": repr(uline),
                                "want": "an AngleLine of phase zeta^10 on branch 0"}


def test_a_failing_composition_line_names_both_sides(monkeypatch):
    passing = corollary_suite().cases
    bgp = build_covbgp()
    lines = tuple((n, LinearForm.of({"x0": 2}) if n == "y0" else ln) for n, ln in bgp.lines)
    monkeypatch.setattr(pcrc, "build_covbgp", lambda: CovMap(bgp.source, bgp.target, lines))
    got = compose(invert(build_cov()), pcrc.build_covbgp()).line("z0")
    want = build_corollary().line("z0")
    assert got != want
    failing = {"key": "line z0", "pass": False, "first_mismatch": None,
               "info": {"got": repr(got), "want": repr(want)}}
    assert corollary_suite().cases == [failing if c["key"] == "line z0" else c for c in passing]


def test_a_failing_chain_names_both_sides(monkeypatch):
    printed = build_corollary()
    target = printed.target[::-1]
    monkeypatch.setattr(pcrc, "build_corollary", lambda: CovMap(
        printed.source, target, printed.lines))
    (chain, *lines) = corollary_suite().cases[:6]
    assert chain == {"key": "chain", "pass": False, "first_mismatch": None, "info": {
        "got": repr((printed.source, printed.target)),
        "want": repr((printed.source, target))}}
    assert all(c["pass"] and "info" not in c for c in lines) and len(lines) == 5


@pytest.mark.parametrize("make", [
    lambda: LinearForm.of({"z0": 0.1}),
    lambda: LinearForm.of({"z0": "1/3"}),
    lambda: LinearForm.of({"z0": 1}).scaled(0.5),
])
def test_map_coefficients_take_no_floats_or_strings(make):
    with pytest.raises(TypeError):
        make()


def test_corollary_suite_composes_once(monkeypatch):
    calls = []
    for name in ("invert", "compose"):
        f = getattr(pcrc, name)
        monkeypatch.setattr(pcrc, name,
                            lambda *args, f=f, name=name: calls.append(name) or f(*args))
    assert corollary_suite().passed
    assert sorted(calls) == ["compose", "invert"]


def test_compose_requires_chaining():
    with pytest.raises(ValueError):
        compose(build_cov(), build_cov())


def test_compose_refuses_to_push_an_exponential_line():
    # every map the package composes has its exponential lines on the far
    # side; one on the near side is refused however plain its image
    a = CovMap(("q",), ("x",), (("q", ExpLine(I, LinearForm.of({"x": 1}))),))
    b = CovMap(("x",), ("y",), (("x", LinearForm.of({"y": 2})),))
    with pytest.raises(ValueError, match="cannot push"):
        compose(a, b)
    with pytest.raises(ValueError, match="cannot push"):
        compose(build_cov(), build_corollary())


def test_bracket_identity_passes():
    report = verify_bracket_identity(5, 8)
    assert report.passed
    assert [c["key"] for c in report.cases] == ["d=%d" % d for d in range(1, 6)]
    assert report.suite == "bracket"


def test_bracket_sides_d1_coefficients():
    vs = VarSet(("z1", "z2", "q", "u"), (3, 3, 1, 3))
    z1 = Series.variable(vs, "z1")
    theta = (Series.variable(vs, "z2") + Series.variable(vs, "u")).scale(
        Fraction(1, 2)
    )
    carrier = exp(z1) * Series(vs, {(0, 0, 1, 0): RF_ONE})
    lhs = carrier * (exp(theta.scale(-I)) - exp(theta.scale(I))).scale(
        I * Fraction(1, 2)
    )
    rhs = carrier * sin(theta)
    for side in (lhs, rhs):
        assert side.coeff((0, 0, 1, 0)) == rf(0)
        assert side.coeff((0, 1, 1, 0)) == rf(Fraction(1, 2))
        assert side.coeff((0, 0, 1, 1)) == rf(Fraction(1, 2))
    assert lhs == rhs


def test_printed_prefactor_breaks_the_bracket():
    # an extra e^{i d u / 2} on the bracket spoils the identity from u^2 on
    vs = VarSet(("z2", "u"), (4, 4))
    theta = (Series.variable(vs, "z2") + Series.variable(vs, "u")).scale(
        Fraction(1, 2)
    )
    prefactor = exp(Series.variable(vs, "u").scale(I * Fraction(1, 2)))
    lhs = prefactor * (exp(theta.scale(-I)) - exp(theta.scale(I))).scale(
        I * Fraction(1, 2)
    )
    diff = lhs - sin(theta)
    assert diff
    # agreement on the u-free slice only; the leading defect is quadratic,
    # (i/4)(z2 u + u^2), so every u-order from one up is contaminated
    assert not diff.into(VarSet(("z2", "u"), (4, 0)))
    assert min(sum(e) for e, _ in diff.terms()) == 2
    assert diff.coeff((1, 1)) == rf(I * Fraction(1, 4))
    assert diff.coeff((0, 2)) == rf(I * Fraction(1, 4))


def test_half_shifted_specialization_matches_extended_tail():
    # summing the carried brackets over d rebuilds the whole positive-degree
    # part of the extended potential; the angle rides inside the wave at
    # half strength, not as a standalone prefactor
    qmax, zorder, uorder = 3, 4, 4
    full = extended_potential(qmax, zorder, uorder).series()
    degree0 = extended_potential(0, zorder, uorder).series().into(full.vs)
    tail = full - degree0

    vs = full.vs
    z1 = Series.variable(vs, "z1")
    base = Series.variable(vs, "z2") + Series.variable(vs, "u")
    level = RF_T1 + RF_T2
    acc = Series(vs)
    for d in range(1, qmax + 1):
        carrier = exp(z1.scale(d)) * Series(
            vs, {(0, 0, 0, d, 0): level * Fraction(2, d**3)}
        )
        theta = base.scale(Fraction(d, 2))
        bracket = (
            exp(theta.scale(-I)) + exp(theta.scale(I)).scale((-1) ** d)
        ).scale(I**d * Fraction(1, 2))
        acc = acc + carrier * bracket
    assert acc == tail


@pytest.mark.parametrize("d", range(1, 13))
def test_conjugated_exponential_equals_the_second_taylor_sum(d):
    # the bracket's e^{-i d theta/2} at order 13, from its one exp and the
    # route it replaces
    vs = VarSet(("theta",), (26,))
    theta = Series.variable(vs, "theta").scale(Fraction(d, 2))
    assert pcrc._conjugate(exp(theta.scale(I))) == exp(theta.scale(-I))


def test_rational_coefficients_are_their_own_conjugates():
    vs = VarSet(("theta",), (3,))
    f = Series(vs, {(0,): 1, (1,): Fraction(-2, 3), (2,): I, (3,): Cyclo(1, 2, 3, 4)})
    terms = dict(pcrc._conjugate(f).terms())
    assert terms == {(0,): 1, (1,): Fraction(-2, 3), (2,): -I, (3,): Cyclo(1, 2, 3, 4).conj()}
    assert type(terms[(0,)]) is int and type(terms[(1,)]) is Fraction
    assert pcrc._conjugate(pcrc._conjugate(f)) == f


@pytest.mark.parametrize("qmax, order", [(0, 5), (1, 0), (4, 3), (8, 10)])
def test_bracket_identity_makes_one_exp_per_degree(monkeypatch, qmax, order):
    # one exp, sin and cos per call, dilated to every degree; none at qmax = 0
    calls = []
    for name, f in (("exp", exp), ("sin", sin), ("cos", cos)):
        monkeypatch.setattr(pcrc, name, lambda g, f=f, name=name: calls.append(name) or f(g))
    assert verify_bracket_identity(qmax, order).passed
    assert sorted(calls) == (["cos", "exp", "sin"] if qmax else [])


@pytest.mark.parametrize("qmax, order", [(1, 1), (4, 3), (9, 10)])
def test_a_passing_bracket_builds_no_difference(monkeypatch, qmax, order):
    # each pair of sides is decided by ==; bracket - wave is built for each
    # failing degree only
    subs = []
    sub = Series.__sub__
    monkeypatch.setattr(Series, "__sub__", lambda f, g: subs.append(1) or sub(f, g))
    assert verify_bracket_identity(qmax, order).passed
    assert subs == []
    monkeypatch.setattr(pcrc, "quantum_sign", lambda d: -quantum_sign(d))
    assert not any(c["pass"] for c in verify_bracket_identity(qmax, order).cases)
    assert len(subs) == qmax


def test_residual_identity():
    report = verify_residual_thirdderiv(12)
    assert report.passed
    assert report.suite == "residual"


@pytest.mark.parametrize("order", [1, 2, 6, 12])
def test_a_passing_residual_takes_no_inverse(monkeypatch, order):
    # lhs * (1 + e) == i e decides the case; 1 + e is inverted on failure only
    calls = []
    monkeypatch.setattr(pcrc, "inverse", lambda f: calls.append(f) or inverse(f))
    assert verify_residual_thirdderiv(order).passed
    assert calls == []
    monkeypatch.setattr(pcrc, "g_series", lambda order: g_series(order).scale(2))
    assert not verify_residual_thirdderiv(order).passed
    assert len(calls) == 1


def test_identity_checks_build_no_rational_function(monkeypatch):
    # the bracket, residual and resummation identities carry no torus weight
    def refuse(self, *args):
        raise AssertionError("a RatFun was built")

    monkeypatch.setattr(RatFun, "__init__", refuse)
    assert verify_bracket_identity(3, 6).passed
    assert verify_residual_thirdderiv(8).passed
    assert resummation_suite().passed
    assert resummed(3, 7).coeff((1,)) == Fraction(-1, 9)
    assert resummed(2, 6).coeff((0,)) == Fraction(-1, 4)


def test_residual_sides_low_coefficients():
    vs = VarSet(("theta",), (4,))
    theta = Series.variable(vs, "theta")
    lhs = Series.constant(vs, I * Fraction(1, 2)) - tan(
        theta.scale(Fraction(1, 2))
    ).scale(Fraction(1, 2))
    e = exp(theta.scale(I))
    rhs = (e * inverse(Series.constant(vs, 1) + e)).scale(I)
    for side in (lhs, rhs):
        assert side.coeff((0,)) == rf(I * Fraction(1, 2))
        assert side.coeff((1,)) == rf(Fraction(-1, 4))
    assert lhs == rhs


def test_linearform_algebra():
    a = LinearForm.of({"x1": I, "x2": 0})
    assert a.terms == (("x1", I),)
    assert a.coeff("x2") == ZERO
    assert LinearForm.of({"x2": ONE, "x1": I}).names() == ("x1", "x2")
    assert a.scaled(-I) == LinearForm.of({"x1": ONE})


def test_failing_bracket_case_names_both_sides(monkeypatch):
    sign = pcrc.quantum_sign
    monkeypatch.setattr(pcrc, "quantum_sign", lambda d: -sign(d))
    report = verify_bracket_identity(2, 4)
    assert not report.passed
    # (z1, z2, q, u): the d=1 wave starts at (z2 + u)*q/2, the d=2 wave at -q^2/8
    assert report.cases == [
        {"key": "d=1", "pass": False, "first_mismatch": [0, 0, 1, 1],
         "info": {"got": "1/2", "want": "-1/2"}},
        {"key": "d=2", "pass": False, "first_mismatch": [0, 0, 2, 0],
         "info": {"got": "-1/8", "want": "1/8"}},
    ]


def _carried_bracket_records(qmax, order):
    """The bracket suite's records, from carrier * (bracket - wave) on (z1, z2, q, u).

    An independent route: the carrier and the angle z2 + u are built as
    four-variable series, as the identity is stated.
    """
    vs = VarSet(("z1", "z2", "q", "u"), (order, order, qmax, order))
    z1 = Series.variable(vs, "z1")
    theta0 = Series.variable(vs, "z2") + Series.variable(vs, "u")
    records = []
    for d in range(1, qmax + 1):
        carrier = exp(z1.scale(d)) * Series(vs, {(0, 0, d, 0): Fraction(1, d**3)})
        theta = theta0.scale(Fraction(d, 2))
        bracket = (
            exp(theta.scale(-I)) + exp(theta.scale(I)).scale((-1) ** d)
        ).scale(I**d * Fraction(1, 2))
        wave = (pcrc.sin(theta) if d % 2 else pcrc.cos(theta)).scale(pcrc.quantum_sign(d))
        got, want = carrier * bracket, carrier * wave
        diff = got - want
        if not diff:
            records.append({"key": "d=%d" % d, "pass": True, "first_mismatch": None})
            continue
        e = min((e for e, _ in diff.terms()), key=lambda e: (sum(e), e))
        info = {"got": str(got.coeff(e)), "want": str(want.coeff(e))}
        records.append({"key": "d=%d" % d, "pass": False, "first_mismatch": list(e), "info": info})
    return records


@pytest.mark.parametrize("k", [None, 0, 1, 2, 3, 4, 5, 6, 7])
def test_bracket_records_match_the_carried_four_variable_check(monkeypatch, k):
    # a defect (3/7) f^k in sin and cos, at every theta-degree up to
    # 2 * order, including those above order that only a z2^a u^b with both
    # a, b > 0 reaches; at 2 * order + 1 it lies beyond every cap
    qmax, order = 4, 3
    if k is not None:
        for name, f in (("sin", sin), ("cos", cos)):
            monkeypatch.setattr(
                pcrc, name, lambda g, f=f: f(g) + (g**k).scale(Fraction(3, 7)))
    report = verify_bracket_identity(qmax, order)
    assert report.passed == (k is None or k > 2 * order)
    assert report.cases == _carried_bracket_records(qmax, order)


@pytest.mark.parametrize("broken", [1, 3, 5, 6])
def test_a_sign_broken_at_one_degree_fails_that_degree_alone(monkeypatch, broken):
    # got/want carry d^k beyond d = 2, and the sign is read at every degree:
    # d = 5 and 6 share d mod 4 with d = 1 and 2
    sign = pcrc.quantum_sign
    monkeypatch.setattr(pcrc, "quantum_sign", lambda d: -sign(d) if d == broken else sign(d))
    report = verify_bracket_identity(6, 4)
    assert [c["key"] for c in report.cases if not c["pass"]] == ["d=%d" % broken]
    assert report.cases == _carried_bracket_records(6, 4)


def test_bracket_identity_runs_in_one_variable(monkeypatch):
    arities = []
    init = VarSet.__init__

    def record(self, names, caps):
        init(self, names, caps)
        arities.append(len(self.names))

    monkeypatch.setattr(VarSet, "__init__", record)
    assert verify_bracket_identity(8, 10).passed
    assert arities and set(arities) == {1}


def test_bracket_records_at_the_edge_caps():
    assert verify_bracket_identity(2, 0).to_json() == {"suite": "bracket", "cases": [
        {"key": "d=1", "pass": True, "first_mismatch": None},
        {"key": "d=2", "pass": True, "first_mismatch": None},
    ]}
    report = verify_bracket_identity(0, 5)
    assert report.cases == [] and report.passed


def test_failing_residual_case_names_both_sides(monkeypatch):
    # the check reads the production G: doubling it doubles G''' = tan(theta/2)/2,
    # so the theta coefficient -1/4 of the left side becomes -1/2
    monkeypatch.setattr(pcrc, "g_series", lambda order: g_series(order).scale(2))
    (case,) = verify_residual_thirdderiv(6).cases
    assert case == {"key": "theta-order=6", "pass": False, "first_mismatch": [1],
                              "info": {"got": "-1/2", "want": "-1/4"}}
