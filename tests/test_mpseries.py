import itertools
import math
import random
from fractions import Fraction

import pytest

from localp12 import mpseries as mp
from localp12.cyclotomic import I, Cyclo
from localp12.mpseries import Series, VarSet
from localp12.potentials import classical_part, extended_potential, g_series, potential
from localp12.ratfun import RF_ONE, RF_T1, RF_T2, rf


def rand_series(rng, vs, zero_constant=False):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exp = tuple(rng.randint(0, cap) for cap in vs.caps)
        if zero_constant and not any(exp):
            continue
        terms[exp] = rf(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return Series(vs, terms)


def integrate(f, name):
    """The antiderivative of f in name with zero constant of integration, on
    f's variables with name's cap raised by one: the oracle of `g_series` and
    of `differentiate`."""
    i = f.vs.index(name)
    vs2 = f.vs.with_cap(name, f.vs.caps[i] + 1)
    out = {}
    for exp, c in f.terms():
        e2 = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
        out[e2] = c * Fraction(1, exp[i] + 1)
    return Series._of(vs2, out)


def triple_integral(f, name):
    return integrate(integrate(integrate(f, name), name), name)


def test_varset_validation():
    with pytest.raises(ValueError):
        VarSet(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        VarSet(("a",), (1, 2))
    with pytest.raises(ValueError):
        VarSet(("a",), (-1,))
    vs = VarSet(("a", "b"), (2, 3))
    assert vs.caps[vs.index("b")] == 3
    with pytest.raises(ValueError):
        vs.index("c")


@pytest.mark.parametrize("bad", [2.9, 2.0, "2", Fraction(2)])
def test_exponents_and_caps_must_be_integers(bad):
    with pytest.raises(TypeError):
        VarSet(("x",), (bad,))
    vs = VarSet(("x",), (3,))
    with pytest.raises(TypeError):
        Series(vs, {(bad,): 1})
    with pytest.raises(TypeError):
        Series.variable(vs, "x").coeff((bad,))


@pytest.mark.parametrize("bad", [0.1, 2.0, 0.0, 1j, complex(1, 0)])
def test_inexact_coefficients_are_refused(bad):
    vs = VarSet(("x",), (2,))
    with pytest.raises(TypeError):
        Series(vs, {(1,): bad})
    with pytest.raises(TypeError):
        Series.constant(vs, bad)
    x = Series.variable(vs, "x")
    with pytest.raises(TypeError):
        x.scale(bad)
    with pytest.raises(TypeError):
        x * bad
    # exact coefficients in each field still pass
    for good in (2, Fraction(1, 2), I, rf(3)):
        assert Series(vs, {(1,): good}) == x.scale(good)


def test_integer_like_exponents_and_caps_are_kept():
    vs = VarSet(("x",), (True,))
    assert vs.caps == (1,) and type(vs.caps[0]) is int
    s = Series(vs, {(True,): 3})
    assert s == Series.variable(vs, "x").scale(3)
    assert s.coeff((True,)) == 3


def test_truncating_product():
    vs = VarSet(("z2",), (2,))
    one = Series.constant(vs, 1)
    z = Series.variable(vs, "z2")
    assert (one + z) * (one - z) == one - z * z
    vq = VarSet(("q",), (1,))
    q = Series.variable(vq, "q")
    assert not q * q


def _naive_product(f, g):
    """Every pair multiplied out, then cut to the caps and cleared of zeros."""
    acc = {}
    for e1, c1 in f.terms():
        for e2, c2 in g.terms():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items()
            if c and all(x <= cap for x, cap in zip(e, f.vs.caps))}


def _small_series(rng, vs, pool, units):
    # exponents from a pool shared with the other factor and unit
    # coefficients, so that the sums of pairs cancel often
    return Series(vs, {rng.choice(pool): rng.choice(units) for _ in range(rng.randint(1, 5))})


@pytest.mark.parametrize("caps", [(6,), (2, 1, 3, 2), (1, 2, 0, 1, 2)])
@pytest.mark.parametrize("field", ["fraction", "cyclo"])
def test_product_matches_the_naive_product(caps, field):
    vs = VarSet(["v%d" % i for i in range(len(caps))], caps)
    units = [Fraction(1), Fraction(-1)]
    if field == "cyclo":
        units += [I, -I, Cyclo(1, 1)]
    rng = random.Random("%s:%r" % (field, caps))
    cancelled = truncated = 0
    for _ in range(60):
        pool = [tuple(rng.randint(0, min(cap, cap // 2 + 1)) for cap in caps) for _ in range(4)]
        f = _small_series(rng, vs, pool, units)
        g = _small_series(rng, vs, pool, units)
        got = f * g
        want = _naive_product(f, g)
        assert dict(got.terms()) == want
        every = {tuple(a + b for a, b in zip(e1, e2)) for e1 in dict(f.terms())
                 for e2 in dict(g.terms())}
        truncated += any(e not in want and any(x > c for x, c in zip(e, caps)) for e in every)
        cancelled += any(e not in want and all(x <= c for x, c in zip(e, caps)) for e in every)
    assert truncated and cancelled


def test_product_cancels_to_zero():
    vs = VarSet(("x", "y"), (2, 2))
    x, y = Series.variable(vs, "x"), Series.variable(vs, "y")
    assert dict(((x + y) * (x - y)).terms()) == {(2, 0): 1, (0, 2): -1}
    assert not (x * x) * (x + (x * y).scale(I)) and not (x * x * x)
    ix = x.scale(I)
    assert not ix * ix + x * x


def test_scale_matches_theorem_coefficient():
    vs = VarSet(("z1",), (3,))
    z1 = Series.variable(vs, "z1")
    s = (z1**3).scale((RF_T1 + 2 * RF_T2) * Fraction(-1, 9))
    assert s.coeff((3,)) == -(RF_T1 + 2 * RF_T2) / 9


def test_exp_basic():
    vs = VarSet(("z1",), (6,))
    z1 = Series.variable(vs, "z1")
    assert mp.exp(z1) * mp.exp(-z1) == Series.constant(vs, 1)
    assert mp.exp(z1).coeff((3,)) == rf(Fraction(1, 6))
    with pytest.raises(ValueError):
        mp.exp(Series.constant(vs, 1))


def test_tan_taylor():
    vs = VarSet(("z2",), (5,))
    z2 = Series.variable(vs, "z2")
    t = mp.tan(z2.scale(Fraction(1, 2)))
    assert t.coeff((1,)) == rf(Fraction(1, 2))
    assert t.coeff((3,)) == rf(Fraction(1, 24))
    assert t.coeff((5,)) == rf(Fraction(1, 240))
    assert t.coeff((2,)) == rf(0)
    # quotient route agrees
    assert t == mp.sin(z2.scale(Fraction(1, 2))) * mp.inverse(
        mp.cos(z2.scale(Fraction(1, 2)))
    )


def test_cos_taylor():
    vs = VarSet(("z2",), (4,))
    z2 = Series.variable(vs, "z2")
    c = mp.cos(z2)
    assert c.coeff((0,)) == RF_ONE
    assert c.coeff((2,)) == rf(Fraction(-1, 2))
    assert c.coeff((4,)) == rf(Fraction(1, 24))


def test_trig_identities_random():
    rng = random.Random(424)
    vs = VarSet(("a", "b"), (4, 3))
    one = Series.constant(vs, 1)
    for _ in range(12):
        f = rand_series(rng, vs, zero_constant=True)
        s, c = mp.sin(f), mp.cos(f)
        assert s * s + c * c == one
        assert mp.tan(f) == s * mp.inverse(c)
        # exp(i f) = cos f + i sin f
        assert mp.exp(f.scale(I)) == c + s.scale(I)


def test_exp_is_a_homomorphism():
    rng = random.Random(77)
    vs = VarSet(("a", "b"), (4, 3))
    for _ in range(12):
        f = rand_series(rng, vs, zero_constant=True)
        g = rand_series(rng, vs, zero_constant=True)
        assert mp.exp(f + g) == mp.exp(f) * mp.exp(g)


def _taylor_by_series(out, term, step, ratio):
    """The Taylor sum with one series product and one scale per step: the
    general route of `mpseries._taylor`, the oracle of its one-term one."""
    k = 0
    while True:
        k += 1
        term = term * step
        if not term:
            return out
        term = term.scale(ratio(k))
        out = out + term


#: name -> (out, term, step, ratio) of its Taylor sum of f, one being 1
_TAYLOR_SUMS = {
    "exp": lambda f, one: (one, one, f, lambda k: Fraction(1, k)),
    "sin": lambda f, one: (f, f, f * f, lambda k: Fraction(-1, 2 * k * (2 * k + 1))),
    "cos": lambda f, one: (one, one, f * f, lambda k: Fraction(-1, (2 * k - 1) * 2 * k)),
    "tan": lambda f, one: (f, f, f * f,
                           lambda k: mp._tan_coeff(2 * k + 1) / mp._tan_coeff(2 * k - 1)),
}

_MONOMIAL_CAPS = [(0, 5, 1), (1, 1, 1), (1, 0, 0), (24, 3, 12)]
_MONOMIAL_EXPONENTS = [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 0), (2, 0, 1), (0, 3, 2)]


def _terms_with_types(f):
    return {e: (c, type(c)) for e, c in f.terms()}


@pytest.mark.parametrize("name", sorted(_TAYLOR_SUMS))
@pytest.mark.parametrize("c", [1, Fraction(-2, 3), I, I * Fraction(1, 2), Cyclo(1, -2, 3, Fraction(1, 5)),
                               Cyclo(Fraction(1, 2)), RF_T1],
                         ids=["int", "fraction", "i", "i/2", "cyclo", "rational-cyclo", "ratfun"])
@pytest.mark.parametrize("caps", _MONOMIAL_CAPS, ids=str)
def test_taylor_of_a_monomial_equals_the_series_route(monkeypatch, name, c, caps):
    # c x^e takes the one-term recurrence: the same dict, the same coefficient
    # types and no series product or scale per step
    vs = VarSet(("x", "y", "z"), caps)
    one = Series.constant(vs, 1)
    for e in _MONOMIAL_EXPONENTS:
        f = Series(vs, {e: c})
        if not f:
            continue  # e lies past the caps
        want = _taylor_by_series(*_TAYLOR_SUMS[name](f, one))
        built = []
        for op in ("__mul__", "scale"):
            monkeypatch.setattr(Series, op, lambda *a, op=op, f=getattr(Series, op):
                                built.append(op) or f(*a))
        got = getattr(mp, name)(f)
        monkeypatch.undo()
        assert _terms_with_types(got) == _terms_with_types(want)
        assert got.vs == vs
        # exp takes f as its step; sin, cos and tan square it once, and a
        # square past the caps is a zero step, ended by one series product
        assert built == ([] if name == "exp" else ["__mul__"] * (1 if f * f else 2))


@pytest.mark.parametrize("name", sorted(_TAYLOR_SUMS))
@pytest.mark.parametrize("c", [Fraction(3, 4), I * Fraction(-1, 2)], ids=["fraction", "i/2"])
def test_taylor_of_a_monomial_is_cap_exact(name, c):
    big = VarSet(("x", "y"), (30, 9))
    for caps in ((0, 0), (0, 1), (1, 1), (7, 3), (30, 9)):
        small = VarSet(("x", "y"), caps)
        for e in ((1, 0), (0, 1), (2, 1)):
            f = getattr(mp, name)(Series(big, {e: c}))
            assert f.into(small) == getattr(mp, name)(Series(small, {e: c}))


def test_taylor_of_a_monomial_reaches_the_caps():
    # e^{x/2} to x^30: every coefficient 1/(2^k k!), none past the cap
    vs = VarSet(("x", "y"), (30, 2))
    got = dict(mp.exp(Series(vs, {(1, 0): Fraction(1, 2)})).terms())
    assert got == {(k, 0): Fraction(1, 2**k * math.factorial(k)) for k in range(31)}
    # sin y^2 at cap 5 stops at y^2: y^6 lies past it
    assert dict(mp.sin(Series(VarSet(("y",), (5,)), {(2,): 1})).terms()) == {(2,): 1}


@pytest.mark.parametrize("name", ["exp", "sin", "cos"])
@pytest.mark.parametrize("terms", [{(1, 0): Fraction(1, 2)}, {(0, 1): Fraction(-3, 7)},
                                   {(1, 0): Fraction(1, 2), (1, 1): Fraction(5, 3), (0, 2): 2}],
                         ids=["theta/2", "one-term", "three-term"])
def test_taylor_of_a_rational_cyclo_series_equals_the_fraction_one(name, terms):
    # a rational Cyclo coefficient gives the values of its Fraction, held in
    # Cyclo: every coefficient but exp's and cos's constant 1, which is the int 1
    vs = VarSet(("x", "y"), (12, 5))
    want = getattr(mp, name)(Series(vs, terms))
    got = getattr(mp, name)(Series(vs, {e: Cyclo(c) for e, c in terms.items()}))
    assert {e: c.rational() for e, c in got.terms() if any(e)} == {
        e: c for e, c in want.terms() if any(e)}
    assert got.constant_term() == want.constant_term()
    assert {type(c) for e, c in got.terms() if any(e)} == {Cyclo}


def test_ring_laws_random():
    rng = random.Random(3117)
    vs = VarSet(("a", "b", "c"), (3, 2, 2))
    for _ in range(15):
        f, g, h = (rand_series(rng, vs) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f - f == Series(vs)


def test_truncation_soundness():
    rng = random.Random(505)
    lo = VarSet(("a", "b"), (3, 2))
    hi = VarSet(("a", "b"), (5, 4))
    for _ in range(15):
        f, g = rand_series(rng, hi), rand_series(rng, hi)
        direct = f.into(lo) * g.into(lo)
        assert (f * g).into(lo) == direct


def test_calculus_round_trip():
    rng = random.Random(606)
    vs = VarSet(("z2", "u"), (5, 2))
    z2 = Series.variable(vs, "z2")
    assert integrate(z2, "z2").differentiate("z2") == z2
    for _ in range(10):
        f = rand_series(rng, vs)
        assert integrate(f, "z2").differentiate("z2") == f
    # d/dz1 e^{d z1} = d e^{d z1}
    vz = VarSet(("z1",), (6,))
    e3 = mp.exp(Series.variable(vz, "z1").scale(3))
    lowered = VarSet(("z1",), (5,))
    assert e3.differentiate("z1") == e3.into(lowered).scale(3)


def test_triple_antiderivative_of_half_tan():
    vs = VarSet(("z2",), (8,))
    z2 = Series.variable(vs, "z2")
    g3 = mp.tan(z2.scale(Fraction(1, 2))).scale(Fraction(1, 2))
    g = triple_integral(g3, "z2")
    assert g.coeff((4,)) == rf(Fraction(1, 96))
    for k in range(4):
        assert g.coeff((k,)) == rf(0)
    # g_series writes G from tan's Taylor coefficients; the reference is the
    # triple z2-antiderivative of the tan series, truncated to each order
    for order in range(31):
        ref = VarSet(("z2",), (max(order - 3, 0),))
        half_tan = mp.tan(Series.variable(ref, "z2").scale(Fraction(1, 2))).scale(Fraction(1, 2))
        want = triple_integral(half_tan, "z2")
        assert g_series(order) == want.into(VarSet(("z2",), (order,)))


def test_substitute_addition_formula():
    order = 7
    vs1 = VarSet(("z2", "u"), (order, 0))
    target = VarSet(("z2", "u"), (order, order))
    z2 = Series.variable(vs1, "z2")
    f = mp.sin(z2)
    shifted = f.substitute(
        {"z2": Series.variable(target, "z2") + Series.variable(target, "u")},
        target,
    )
    direct = mp.sin(Series.variable(target, "z2") + Series.variable(target, "u"))
    # exact wherever the substituted total degree fits the source cap
    for e1 in range(order + 1):
        for e2 in range(order + 1 - e1):
            assert shifted.coeff((e1, e2)) == direct.coeff((e1, e2))


def test_substitute_is_a_homomorphism():
    rng = random.Random(808)
    src = VarSet(("a", "b"), (3, 3))
    target = VarSet(("x", "y"), (3, 3))
    x = Series.variable(target, "x")
    y = Series.variable(target, "y")
    images = {"a": x + y, "b": x.scale(2) - y * y}
    for _ in range(10):
        f, g = rand_series(rng, src), rand_series(rng, src)
        lhs = (f * g).substitute(images, target)
        rhs = f.substitute(images, target) * g.substitute(images, target)
        # truncation-safe region: total degree within min cap
        for e1 in range(4):
            for e2 in range(4 - e1):
                assert lhs.coeff((e1, e2)) == rhs.coeff((e1, e2))


@pytest.mark.parametrize("xcap, ycap", [(1, 0), (2, 3), (4, 2)])
def test_substitute_is_cap_exact(xcap, ycap):
    def substituted(xcap, ycap):
        # images of order >= 1 send a source monomial of total degree k to
        # target terms of total degree >= k, so source caps of xcap + ycap
        # are enough for every retained target coefficient
        src = VarSet(("a", "b"), (xcap + ycap, xcap + ycap))
        target = VarSet(("x", "y"), (xcap, ycap))
        a, b = Series.variable(src, "a"), Series.variable(src, "b")
        one = Series.constant(src, 1)
        f = mp.exp(a) + mp.tan(a.scale(Fraction(1, 2))) * b + mp.inverse(one - a * b)
        x, y = Series.variable(target, "x"), Series.variable(target, "y")
        return f.substitute({"a": x + y, "b": x * y + y.scale(Fraction(-1, 3))}, target)

    small = substituted(xcap, ycap)
    big = substituted(xcap + 2, ycap + 1)
    assert small == big.into(VarSet(("x", "y"), (xcap, ycap)))


def test_substitute_validation():
    vs = VarSet(("a",), (2,))
    target = VarSet(("x",), (2,))
    f = Series.variable(vs, "a")
    with pytest.raises(ValueError):
        f.substitute({"a": Series.constant(target, 1)}, target)
    with pytest.raises(ValueError):
        f.substitute({"nope": Series.variable(target, "x")}, target)
    # a variable with no image must exist in the target
    with pytest.raises(ValueError):
        f.substitute({}, target)
    assert f.substitute({"a": Series.variable(target, "x")}, target) == Series.variable(target, "x")


def test_substitute_at_zero():
    vs = VarSet(("x",), (4,))
    f = mp.exp(Series.variable(vs, "x"))
    at0 = f.substitute({"x": Series(vs)}, vs)
    assert at0 == Series.constant(vs, 1)


def test_coeff_checks():
    vs = VarSet(("a",), (2,))
    f = Series.variable(vs, "a")
    assert f.coeff((1,)) == RF_ONE
    assert not Series(vs).coeff((2,))
    with pytest.raises(ValueError):
        f.coeff((3,))


def test_inverse_unit_constant():
    vs = VarSet(("x",), (6,))
    f = Series.constant(vs, 2) + Series.variable(vs, "x")
    assert f * mp.inverse(f) == Series.constant(vs, 1)
    with pytest.raises(ZeroDivisionError):
        mp.inverse(Series.variable(vs, "x"))


def _unit_series(vs, rng, field, density):
    """A series on vs with an invertible constant term, in the given field;
    a `RatFun` constant term is linear in t1, t2, as a denominator must be
    homogeneous."""
    pick = {
        "fraction": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        "cyclo": lambda: Cyclo(*(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(4))),
        "ratfun": lambda: rf(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        + RF_T1 * rng.randint(-2, 2),
    }[field]
    terms = {}
    for exp in itertools.product(*(range(cap + 1) for cap in vs.caps)):
        if rng.random() < density:
            terms[exp] = pick()
    if field == "ratfun":
        pick = lambda: RF_T1 * rng.randint(-2, 2) + RF_T2 * Fraction(rng.randint(-3, 3), 2)
    constant = pick()
    while not constant:
        constant = pick()
    terms[(0,) * len(vs.caps)] = constant
    return Series(vs, terms)


@pytest.mark.parametrize("field", ["fraction", "cyclo", "ratfun"])
@pytest.mark.parametrize("caps", [(0,), (1,), (7,), (0, 0), (3, 2), (4, 4)])
def test_inverse_is_a_two_sided_inverse(field, caps):
    rng = random.Random("inverse:%s:%r" % (field, caps))
    vs = VarSet(("x", "y")[:len(caps)], caps)
    one = Series.constant(vs, 1)
    for density in (0.2, 0.7):
        f = _unit_series(vs, rng, field, density)
        g = mp.inverse(f)
        assert f * g == one


def test_inverse_of_a_sparse_series_stays_on_its_support():
    vs = VarSet(("x", "y", "z"), (5, 4, 6))
    x = Series.variable(vs, "x")
    g = mp.inverse(Series.constant(vs, 1) + x)
    assert dict(g.terms()) == {(k, 0, 0): (-1) ** k for k in range(6)}
    # 2 + x y^2 reaches only the exponents k * (1, 2, 0) within the caps
    f = Series.constant(vs, Cyclo(2)) + Series(vs, {(1, 2, 0): I})
    g = mp.inverse(f)
    assert {e for e, _ in g.terms()} == {(0, 0, 0), (1, 2, 0), (2, 4, 0)}
    assert f * g == Series.constant(vs, 1)


@pytest.mark.parametrize("field", ["fraction", "cyclo", "ratfun"])
def test_inverse_is_cap_exact(field):
    rng = random.Random("inverse-caps:%s" % field)
    big = VarSet(("x", "y"), (6, 5))
    f = _unit_series(big, rng, field, 0.5)
    g = mp.inverse(f)
    for caps in ((0, 0), (3, 5), (6, 2), (1, 1)):
        small = VarSet(("x", "y"), caps)
        assert mp.inverse(f.into(small)) == g.into(small)


@pytest.mark.parametrize("constant", [0, Fraction(0), Cyclo(), rf(0)])
def test_inverse_of_a_zero_constant_term_raises(constant):
    vs = VarSet(("x", "y"), (3, 3))
    f = Series.variable(vs, "x") + Series.constant(vs, constant)
    with pytest.raises(ZeroDivisionError):
        mp.inverse(f)


def test_inverse_of_the_residual_input_is_two_sided():
    # the residual suite's 1 + e^{i theta} at cap 13, on Cyclo coefficients
    vs = VarSet(("theta",), (13,))
    f = Series.constant(vs, 1) + mp.exp(Series.variable(vs, "theta").scale(I))
    g = mp.inverse(f)
    assert f * g == g * f == Series.constant(vs, 1)


def test_json_round_trip_sorted():
    vs = VarSet(("a", "b"), (2, 2))
    f = Series(
        vs,
        {
            (2, 1): rf(3),
            (0, 1): RF_T1,
            (1, 0): RF_T2 * Fraction(1, 2),
        },
    )
    blob = f.to_json()
    assert [t["exp"] for t in blob["terms"]] == [[0, 1], [1, 0], [2, 1]]


def test_into_reorders_and_raises_on_lost_variables():
    vs = VarSet(("a", "b"), (2, 2))
    f = Series.variable(vs, "a") * Series.variable(vs, "b")
    wide = VarSet(("c", "b", "a"), (1, 2, 2))
    g = f.into(wide)
    assert g.coeff((0, 1, 1)) == RF_ONE
    narrow = VarSet(("b",), (2,))
    with pytest.raises(ValueError):
        f.into(narrow)
    assert g.into(vs) == f


def _assert_canonical(s):
    """s is what the checking constructor makes of its own terms."""
    assert Series(s.vs, dict(s.terms())) == s
    for e, c in s.terms():
        assert c
        assert type(e) is tuple and len(e) == len(s.vs.caps)
        assert all(type(k) is int and 0 <= k <= cap for k, cap in zip(e, s.vs.caps))


@pytest.mark.parametrize("caps", [(0, 0), (1, 4), (3, 6), (0, 0, 0), (2, 3, 1), (1, 2, 5), (3, 1, 4)])
def test_built_potentials_are_canonical(caps):
    pot = extended_potential(*caps) if len(caps) == 3 else potential(*caps)
    _assert_canonical(pot.tail)
    _assert_canonical(pot.cubic)
    _assert_canonical(pot.series())


def test_unchecked_results_are_canonical():
    rng = random.Random(13)
    vs = VarSet(("a", "b", "c"), (3, 2, 4))
    target = VarSet(("x", "y"), (3, 2))
    x, y = Series.variable(target, "x"), Series.variable(target, "y")
    images = {"a": x + y, "b": x * y.scale(Fraction(1, 3)) - y, "c": y.scale(I)}
    results = [
        classical_part().into(VarSet(("q", "z2", "z1", "z0"), (1, 1, 2, 3))),
        classical_part().into(VarSet(("z0", "z1", "z2"), (1, 2, 2))),
    ]
    for _ in range(20):
        f, g = rand_series(rng, vs), rand_series(rng, vs)
        results += [f + g, f - f, f - g, -f, f * g, f.scale(Fraction(-2, 3)), f.scale(0)]
        results.append(f.into(VarSet(("c", "b", "a", "d"), (2, 2, 1, 1))))
        results.append(f.substitute(images, target))
        for name in vs.names:
            results.append(f.differentiate(name))
            results.append(integrate(f, name))
    assert any(r for r in results) and not all(r for r in results)
    for r in results:
        _assert_canonical(r)
