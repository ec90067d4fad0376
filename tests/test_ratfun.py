import random
from fractions import Fraction

import pytest

from localp12 import ratfun
from localp12.cyclotomic import Cyclo, I
from localp12.ratfun import (
    P_ONE,
    P_T1,
    P_T2,
    P_ZERO,
    Poly2,
    RF_ONE,
    RF_T1,
    RF_T2,
    RF_ZERO,
    RatFun,
    poly_divexact,
    poly_gcd,
    rf,
)


def rand_poly(rng, deg=2, dens=9):
    terms = {}
    for e1 in range(deg + 1):
        for e2 in range(deg + 1 - e1):
            if rng.random() < 0.6:
                terms[(e1, e2)] = Cyclo(
                    Fraction(rng.randint(-6, 6), rng.randint(1, dens)),
                    rng.randint(-2, 2),
                )
    return Poly2(terms)


def rand_homogeneous(rng, deg=1, dens=9):
    """A random homogeneous polynomial of degree at most deg, possibly zero."""
    k = rng.randint(0, deg)
    return Poly2({
        (e1, k - e1): Cyclo(Fraction(rng.randint(-6, 6), rng.randint(1, dens)), rng.randint(-2, 2))
        for e1 in range(k + 1)
        if rng.random() < 0.6
    })


def rand_den(rng, deg=1):
    while True:
        den = rand_homogeneous(rng, deg)
        if den:
            return den


def rand_ratfun(rng):
    return RatFun(rand_poly(rng), rand_den(rng))


def rand_invertible(rng):
    """A random element with a homogeneous numerator, so inv() applies when nonzero."""
    return RatFun(rand_homogeneous(rng, deg=2), rand_den(rng))


def test_normalization_collapses_common_factors():
    num = P_T1 * P_T1 - P_T2 * P_T2
    den = P_T1 - P_T2
    assert RatFun(num, den) == RF_T1 + RF_T2


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", Fraction(1)])
def test_poly2_exponents_must_be_integers(bad):
    with pytest.raises(TypeError):
        Poly2({(bad, 0): 1})
    with pytest.raises(TypeError):
        Poly2({(0, bad): 1})
    assert Poly2({(True, 0): 1}) == P_T1


@pytest.mark.parametrize("exp", [(1, 0, 5), (1,), ()])
def test_poly2_exponents_must_be_pairs(exp):
    with pytest.raises(ValueError, match="exponent arity %d, expected 2" % len(exp)):
        Poly2({exp: 1})


def test_identities():
    third = RatFun(P_ONE.scale(Fraction(1, 3)), P_T1 * P_T2)
    assert third + RF_ZERO == third
    assert (RF_T1 + RF_T2) * (RF_T1 + RF_T2).inv() == RF_ONE
    assert RF_T1 / RF_T1 == RF_ONE


def test_denominator_is_graded_lex_monic():
    r = RatFun(P_ONE, (P_T2 + P_T1).scale(3))
    assert r.den.leading()[1] == Cyclo(1)
    assert r.num == P_ONE.scale(Fraction(1, 3))
    rng = random.Random(5)
    for _ in range(100):
        r = rand_ratfun(rng)
        if r:
            assert r.den.leading()[1] == Cyclo(1)


def test_eval():
    r = RatFun(P_T1 + P_T2, P_T1 * P_T2)
    assert r.eval(1, 2) == Fraction(3, 2)
    hhh = rf(Fraction(-2, 3)) * (RF_T1 + 2 * RF_T2)
    assert hhh.eval(1, 1) == -2
    assert (RF_T1 * Fraction(-1, 2)).eval(3, 5) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        RatFun(P_ONE, P_T1).eval(0, 1)


def test_canonicalization_idempotent_and_cross_multiplication():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_poly(rng)
        b = rand_den(rng, deg=2)
        c = rand_den(rng)
        r1 = RatFun(a, b)
        r2 = RatFun(a * c, b * c)
        assert r1 == r2
        # canonical equality agrees with cross multiplication
        assert r1.num * r2.den == r2.num * r1.den
        again = RatFun(r1.num, r1.den)
        assert again.num == r1.num and again.den == r1.den


def test_field_laws_random():
    rng = random.Random(23)
    for _ in range(12):
        a, b, c = rand_invertible(rng), rand_invertible(rng), rand_ratfun(rng)
        assert (a + b) * c == a * c + b * c
        assert a - a == RF_ZERO
        if b:
            assert (a / b) * b == a
        if a:
            assert a * a.inv() == RF_ONE


def test_eval_commutes_with_arithmetic():
    rng = random.Random(31)
    pts = [(Fraction(1), Fraction(2)), (Fraction(-3, 2), Fraction(5, 7))]
    for _ in range(40):
        a, b = rand_ratfun(rng), rand_ratfun(rng)
        for t1, t2 in pts:
            try:
                va, vb = a.eval(t1, t2), b.eval(t1, t2)
                vs = (a + b).eval(t1, t2)
                vp = (a * b).eval(t1, t2)
            except ZeroDivisionError:
                continue
            assert vs == va + vb
            assert vp == va * vb


def test_gcd_and_exact_division():
    g = P_T1 + P_T2.scale(2)
    a = g * (P_T1 - P_T2)
    b = g * g
    got = poly_gcd(a, b)
    # gcd is determined up to a unit; compare after monic scaling
    lc = got.leading()[1]
    assert got.scale(lc.inv()) == g
    assert poly_divexact(a, g) == P_T1 - P_T2
    with pytest.raises(ArithmeticError):
        poly_divexact(P_T1, P_T2)


def test_a_leading_one_is_not_inverted(monkeypatch):
    # a monic divisor and a gcd that Euclid leaves monic keep their leading
    # 1; any other leading coefficient is inverted once
    inverted = []
    inv = Cyclo.inv
    monkeypatch.setattr(Cyclo, "inv", lambda c: inverted.append(c) or inv(c))
    g = P_T1 + P_T2.scale(2)
    assert poly_divexact(g * (P_T1 - P_T2), g) == P_T1 - P_T2
    assert poly_gcd(g * (P_T1 - P_T2), g) == g
    assert inverted == []
    assert poly_divexact((g * P_T1).scale(3), g.scale(3)) == P_T1
    assert poly_gcd(g.scale(3) * P_T1, g.scale(3) * P_T2) == g
    assert inverted and all(c != 1 for c in inverted)


def test_cyclo_coefficients_survive():
    r = RatFun(Poly2({(1, 0): I}), P_T2)
    assert r.eval(2, 3) == I * Fraction(2, 3)
    assert (r * r).eval(2, 3) == -Fraction(4, 9)


def test_pow_and_json_roundtrip():
    r = (RF_T1 + RF_T2) ** 3 / (RF_T1 * 18)
    assert r.to_json() == {
        "num": [
            [3, 0, ["1/18", "0", "0", "0"]],
            [2, 1, ["1/6", "0", "0", "0"]],
            [1, 2, ["1/6", "0", "0", "0"]],
            [0, 3, ["1/18", "0", "0", "0"]],
        ],
        "den": [[1, 0, ["1", "0", "0", "0"]]],
    }
    assert r**0 == RF_ONE
    assert r**-2 == (r * r).inv()


def test_str_forms():
    assert str(RF_T1 + RF_T2) == "t1 + t2"
    assert str(RatFun(P_ONE, (P_T1 * P_T2).scale(3))) == "(1/3)/(t1*t2)"


def test_scalar_times_ratfun_skips_canonicalization(monkeypatch):
    rng = random.Random(17)
    cases = [(rand_ratfun(rng), c) for c in (0, 3, Fraction(-2, 7), I, Cyclo(1, 1), Cyclo())]
    want = [RatFun(r.num * Poly2({(0, 0): c}), r.den) for r, c in cases]

    def refuse(self, num, den=None):
        raise AssertionError("scalar product canonicalized")

    monkeypatch.setattr(RatFun, "__init__", refuse)
    for (r, c), w in zip(cases, want):
        for got in (r * c, c * r):
            assert got == w
            assert got.num == w.num and got.den == w.den


def test_a_zero_summand_returns_the_other_operand():
    rng = random.Random(29)
    cases = [rand_ratfun(rng) for _ in range(30)] + [RF_ZERO, RF_ONE, RF_T1 * I]
    zeros = (RF_ZERO, RatFun(P_ZERO, P_T1), 0, Fraction(0), Cyclo())
    for r in cases:
        for z in zeros:
            for got in (r + z, z + r, r - z):
                assert got.num == r.num and got.den == r.den
    for z in zeros[:2]:
        got = z - RF_T1
        assert got.num == -P_T1 and got.den == P_ONE


def test_a_zero_numerator_is_the_canonical_zero_with_no_gcd(monkeypatch):
    # a zero or non-homogeneous denominator is refused as it is under any
    # other numerator
    bad = (P_ZERO, P_ONE + P_T1, P_T2 * P_T2 + P_T1)
    refusals = []
    for den in bad:
        with pytest.raises((ZeroDivisionError, ValueError)) as err:
            RatFun(P_T1, den)
        refusals.append((err.type, str(err.value)))
    assert [kind for kind, _ in refusals] == [ZeroDivisionError, ValueError, ValueError]

    def refuse(*args):
        raise AssertionError("a zero numerator made a gcd or a division")

    monkeypatch.setattr(ratfun, "poly_gcd", refuse)
    monkeypatch.setattr(ratfun, "poly_divexact", refuse)
    for den, (kind, message) in zip(bad, refusals):
        with pytest.raises(kind) as err:
            RatFun(P_ZERO, den)
        assert str(err.value) == message
    for den in (P_ONE, P_T1, P_T2.scale(3), P_T1 * P_T2 - P_T2 * P_T2, (P_T1 - P_T2).scale(I)):
        for num in (P_ZERO, Poly2(), 0, Fraction(0), Cyclo()):
            r = RatFun(num, den)
            assert r.num == P_ZERO and r.den == P_ONE
            assert r == RF_ZERO and not r and str(r) == "0"
            assert hash(r) == hash(RF_ZERO) == hash(0)


def test_a_sum_to_zero_is_the_canonical_zero():
    rng = random.Random(31)
    for r in [rand_ratfun(rng) for _ in range(30)] + [RF_T1 * I, RatFun(P_ONE, P_T1 - P_T2)]:
        for got in (r + (-r), r - r, -r + r):
            assert got.num == P_ZERO and got.den == P_ONE
            assert got == RF_ZERO and str(got) == "0"


def test_sums_are_the_cross_multiplied_ratio():
    rng = random.Random(37)
    for _ in range(60):
        a, b = rand_ratfun(rng), rand_ratfun(rng)
        want = RatFun(a.num * b.den + b.num * a.den, a.den * b.den)
        for got in (a + b, b + a):
            assert got.num == want.num and got.den == want.den


def test_non_homogeneous_denominator_is_refused():
    refused = pytest.raises(ValueError, match="^denominator .* is not homogeneous in t1, t2$")
    with refused:
        RatFun(P_ONE, P_ONE + P_T1)
    with refused:
        (RF_ONE + RF_T1).inv()
    with refused:
        RF_ONE / (RF_ONE + RF_T1)
    with pytest.raises(ZeroDivisionError):
        RatFun(P_ONE, Poly2())
    with pytest.raises(ZeroDivisionError):
        RF_ZERO.inv()


def test_non_homogeneous_numerator_over_homogeneous_denominator():
    general = P_ONE + P_T1 * P_T1
    r = RatFun(general * (P_T1 - P_T2), (P_T1 - P_T2) * P_T2.scale(3))
    assert r.num == general.scale(Fraction(1, 3)) and r.den == P_T2
    rng = random.Random(37)
    for _ in range(40):
        a, b, c = rand_poly(rng, deg=3), rand_den(rng, deg=2), rand_den(rng)
        r = RatFun(a * c, b * c)
        assert r.num * b == a * r.den
        assert poly_gcd(r.num, r.den) == P_ONE
        assert r.den.leading()[1] == Cyclo(1)


def test_inv_is_the_canonical_swap():
    rng = random.Random(41)
    for _ in range(60):
        r = rand_invertible(rng)
        if not r:
            continue
        got, want = r.inv(), RatFun(r.den, r.num)
        assert got.num == want.num and got.den == want.den
