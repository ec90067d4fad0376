import cmath
import math
import random
from fractions import Fraction

import pytest

from localp12 import cyclotomic as cy
from localp12.cyclotomic import Cyclo, zeta_pow
from localp12.ratfun import rf


def rand_cyclo(rng, nonzero=False):
    while True:
        c = Cyclo(
            *(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(4)
            )
        )
        if c or not nonzero:
            return c


def test_named_constants():
    assert cy.I * cy.I == -1
    assert cy.OMEGA == cy.ZETA**4
    assert cy.OMEGA**3 == 1
    assert cy.OMEGA != 1
    assert cy.OMEGA_BAR == cy.OMEGA.conj()
    assert cy.SQRT3 * cy.SQRT3 == 3
    assert cy.SQRT3 == 2 * cy.ZETA - cy.ZETA**3
    assert zeta_pow(10) == 1 - cy.ZETA**2  # e^{-i*pi/3}


def test_reduction_is_canonical():
    # zeta^4 entered two ways lands on the same coordinates
    direct = cy.ZETA * cy.ZETA * cy.ZETA * cy.ZETA
    reduced = Cyclo(-1, 0, 1, 0)
    assert direct == reduced
    assert direct.coords == reduced.coords
    assert zeta_pow(6) == -1
    assert zeta_pow(12) == 1
    for k in range(24):
        assert zeta_pow(k) == cy.ZETA**k


def test_inverses():
    assert Cyclo(1).inv() == 1
    assert cy.I.inv() == -cy.I
    assert cy.OMEGA.inv() == cy.OMEGA_BAR
    with pytest.raises(ZeroDivisionError):
        Cyclo().inv()


def _galois_inverse(x):
    """x^-1 as the product of its other three Galois conjugates over the norm."""
    b = x.galois(5) * x.galois(7) * x.galois(11)
    return b * (1 / (x * b).rational())


@pytest.mark.parametrize("sign", [1, -1])
def test_rational_inverses_are_exact_and_canonical(sign):
    for n in range(1, 13):
        for d in range(1, 13):
            x = Cyclo(Fraction(sign * n, d))
            got = x.inv()
            for want in (_galois_inverse(x), Cyclo(Fraction(d, sign * n))):
                assert (got._n, got._d) == (want._n, want._d)
            assert got.is_rational() and got._d > 0
            assert hash(got) == hash(Fraction(sign * d, n))


def test_rational_operands_give_the_field_product():
    # x * r, r * x and x / r scale x directly; the field product with Cyclo(r)
    # and the inverse of Cyclo(r) are the reference
    rng = random.Random(18)
    big = 10**30 + 1
    elements = [Cyclo(), Cyclo(5), Cyclo(Fraction(-7, 12)), Cyclo(Fraction(big, 3)), cy.I,
                cy.SQRT3 * Fraction(1, 2), Cyclo(Fraction(1, big), 3, 0, Fraction(-2, 10**20 + 7))]
    elements += [rand_cyclo(rng) for _ in range(30)]
    operands = [0, 1, -1, True, 12, -30, big, Fraction(-3, 4), Fraction(-big, 7),
                Fraction(5, 6), Fraction(1, big)]
    for x in elements:
        for r in operands:
            want = x * Cyclo(r)
            for got in (x * r, r * x):
                assert (got._n, got._d, hash(got)) == (want._n, want._d, hash(want))
                assert all(type(n) is int for n in got._n)
            if r:
                got, want = x / r, x * Cyclo(r).inv()
                assert (got._n, got._d, hash(got)) == (want._n, want._d, hash(want))
            else:
                with pytest.raises(ZeroDivisionError):
                    x / r
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            0.5 * x


_BIG = 10**30 + 1
_RATIONALS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(5), Fraction(-7, 12),
              Fraction(7, 12), Fraction(-3, 4), Fraction(_BIG, 3), Fraction(-_BIG, 7),
              Fraction(1, _BIG), Fraction(-2, _BIG), Fraction(_BIG, _BIG - 2)]


def _same(got, want):
    assert (got._n, got._d, hash(got)) == (want._n, want._d, hash(want))
    assert all(type(n) is int for n in got._n)


def test_rational_sums_and_products_are_the_fraction_results():
    # both operands rational take the rational route; the Fraction result,
    # zero included, is the reference for the representative and the hash
    rng = random.Random(29)
    values = _RATIONALS + [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                           for _ in range(20)]
    for a in values:
        for b in values:
            x, y = Cyclo(a), Cyclo(b)
            for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b)):
                _same(got, Cyclo(want))
                assert got.rational() == want and hash(got) == hash(want)


def test_a_rational_with_an_irrational_gives_the_field_result():
    # rational x irrational and rational + irrational, against the product
    # and the sum made coordinate by coordinate in Fraction
    rng = random.Random(30)
    irrational = [cy.I, cy.SQRT3 * Fraction(1, 2), Cyclo(Fraction(1, _BIG), 3, 0, Fraction(-2, 7))]
    irrational += [x for x in (rand_cyclo(rng) for _ in range(20)) if not x.is_rational()]
    for a in _RATIONALS:
        r = Cyclo(a)
        for x in irrational:
            product = Cyclo(*(a * c for c in x.coords))
            total = Cyclo(*(c + a * (k == 0) for k, c in enumerate(x.coords)))
            for got in (r * x, x * r):
                _same(got, product)
            for got in (r + x, x + r):
                _same(got, total)


def _field_product(x, y):
    """x * y by the full multiply on the basis: 16 products and one gcd."""
    a0, a1, a2, a3 = x._n
    b0, b1, b2, b3 = y._n
    r4 = a1 * b3 + a2 * b2 + a3 * b1
    r5 = a2 * b3 + a3 * b2
    r6 = a3 * b3
    return cy._reduced(a0 * b0 - r4 - r6, a0 * b1 + a1 * b0 - r5,
                       a0 * b2 + a1 * b1 + a2 * b0 + r4,
                       a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + r5, x._d * y._d)


def test_one_rational_operand_scales_the_other_to_the_field_product(monkeypatch):
    # a rational Cyclo times an irrational one, in either order, is the other
    # operand scaled: the reduced representative of the 16-product multiply
    rng = random.Random(64)
    rationals = _RATIONALS + [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                              for _ in range(20)]
    irrational = [cy.I, cy.SQRT3, Cyclo(Fraction(1, _BIG), 3, 0, Fraction(-2, 7))]
    irrational += [x for x in (rand_cyclo(rng) for _ in range(30)) if not x.is_rational()]
    scaled = []
    step = Cyclo._scaled
    monkeypatch.setattr(Cyclo, "_scaled", lambda x, n, d: scaled.append(x) or step(x, n, d))
    for a in rationals:
        r = Cyclo(a)
        for x in irrational:
            want = _field_product(r, x)
            for got in (r * x, x * r):
                _same(got, want)
                assert got == want and hash(got) == hash(want)
                n, d = got._n, got._d
                assert d > 0 and math.gcd(*n, d) == 1
                if not a:
                    assert (n, d) == ((0, 0, 0, 0), 1) and hash(got) == hash(0)
            assert len(scaled) == 2 and all(y is x for y in scaled)
            scaled.clear()


def test_constructor_takes_only_ints_and_fractions():
    for bad in (0.1, 1.0, "1/3", 1j, None):
        with pytest.raises(TypeError):
            Cyclo(bad)
        with pytest.raises(TypeError):
            Cyclo(0, 0, 0, bad)
    # repr prints 1/3, which Python reads as a float, not as a Fraction
    with pytest.raises(TypeError):
        eval(repr(Cyclo(Fraction(1, 3))), {"Cyclo": Cyclo})
    x = Cyclo(3, 0, -1, True)
    assert eval(repr(x), {"Cyclo": Cyclo}) == x
    assert all(type(n) is int for n in x._n)


def test_conjugation():
    assert cy.I.conj() == -cy.I
    assert cy.SQRT3.conj() == cy.SQRT3
    assert cy.ZETA.conj() == zeta_pow(11)
    assert Cyclo(Fraction(3, 7)).conj() == Fraction(3, 7)


def test_field_laws_random():
    rng = random.Random(20240)
    for _ in range(1000):
        a = rand_cyclo(rng, nonzero=True)
        assert a * a.inv() == 1
    for _ in range(300):
        a, b, c = (rand_cyclo(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == -(b - a)


def test_conj_is_an_involution_and_a_homomorphism():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_cyclo(rng)
        b = rand_cyclo(rng)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_embed_values():
    assert abs(cy.I.embed() - 1j) < 1e-12
    assert abs(cy.SQRT3.embed() - math.sqrt(3)) < 1e-12
    assert abs(cy.OMEGA.embed() - complex(-0.5, math.sqrt(3) / 2)) < 1e-12
    assert abs(zeta_pow(10).embed() - cmath.exp(-1j * math.pi / 3)) < 1e-12


def test_embed_is_a_homomorphism():
    rng = random.Random(99)
    for _ in range(300):
        a = rand_cyclo(rng)
        b = rand_cyclo(rng)
        assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-12
        assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-12
        assert abs(a.conj().embed() - a.embed().conjugate()) < 1e-12


def test_rational_views():
    assert Cyclo(Fraction(5, 3)).is_rational()
    assert Cyclo(Fraction(5, 3)).rational() == Fraction(5, 3)
    assert not cy.I.is_rational()
    with pytest.raises(ValueError):
        cy.I.rational()


def test_galois_group():
    rng = random.Random(13)
    with pytest.raises(ValueError):
        cy.ZETA.galois(2)
    for k in (1, 5, 7, 11):
        assert cy.ZETA.galois(k) == zeta_pow(k)
        for _ in range(50):
            a, b = rand_cyclo(rng), rand_cyclo(rng)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)


def test_pow_negative_and_strings():
    a = Cyclo(1, Fraction(-1, 2), 0, 3)
    assert a**-2 == (a * a).inv()
    assert str(Cyclo()) == "0"
    assert str(Cyclo(1, 0, -1, 0)) == "1 - z^2"


def test_hash_consistency():
    assert hash(zeta_pow(4)) == hash(cy.OMEGA)
    d = {cy.OMEGA: "w"}
    assert d[zeta_pow(4)] == "w"
    # equal values of int, Fraction, Cyclo and RatFun hash alike
    for x in (0, 3, -1, Fraction(-2, 3), Fraction(5, 7)):
        forms = [x, Fraction(x), Cyclo(x), rf(x), rf(Cyclo(x))]
        for a in forms:
            for b in forms:
                assert a == b and hash(a) == hash(b)
        assert len(set(forms)) == 1
    for c in (Cyclo(0, 1), cy.OMEGA, cy.SQRT3 * Fraction(1, 2)):
        assert rf(c) == c and hash(rf(c)) == hash(c)
        assert len({rf(c), c}) == 1
    # and so do rational values reached by arithmetic
    for x in (
        Cyclo(1, 2) * 0 + Fraction(3, 4),
        cy.I * cy.I * Fraction(-3, 4),
        (cy.SQRT3 + Fraction(3, 4)) - cy.SQRT3,
        cy.OMEGA * cy.OMEGA_BAR * Fraction(3, 4),
    ):
        assert x == Fraction(3, 4) and hash(x) == hash(Fraction(3, 4))
        assert hash(rf(x)) == hash(x)
        assert len({Fraction(3, 4), Cyclo(Fraction(3, 4)), x, rf(x)}) == 1
    assert len({Fraction(3, 4), Cyclo(Fraction(3, 4))}) == 1
    assert hash(Cyclo(1, 2) * 0) == hash(0)


def representative(x):
    return x._n, x._d


def routes(rng, y):
    """The value y reached by several independent routes."""
    x = rand_cyclo(rng, nonzero=True)
    z = rand_cyclo(rng)
    k = rng.choice((5, 7, 11))
    return [
        y,
        Cyclo(*y.coords),
        y + 0,
        (y + z) - z,
        (z + y) + (-z),
        y * 1,
        y * Fraction(7, 3) * Fraction(3, 7),
        x * x.inv() * y,
        (y * x) / x,
        y.galois(k).galois(k),
    ]


def test_representatives_are_canonical():
    rng = random.Random(4711)
    for _ in range(200):
        y = rand_cyclo(rng)
        if rng.random() < 0.2:
            y = y * Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        forms = routes(rng, y)
        want = representative(y)
        for f in forms:
            assert f == y and representative(f) == want and hash(f) == hash(y)
        n, d = want
        assert d > 0 and math.gcd(*n, d) == 1
        if not y:
            assert want == ((0, 0, 0, 0), 1)
        for c, num in zip(y.coords, n):
            assert type(c) is Fraction and c == Fraction(num, d)
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
    for zero in (Cyclo(), cy.ZETA - cy.ZETA, cy.SQRT3 * 0, Cyclo(Fraction(0, 5))):
        assert representative(zero) == ((0, 0, 0, 0), 1)


def fraction_str(coords):
    """str of an element, formatted from its Fraction coordinates."""
    parts = []
    for k, c in enumerate(coords):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mon = "z" if k == 1 else "z^%d" % k
            if c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append("-" + mon)
            else:
                parts.append("%s*%s" % (c, mon))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return out


def test_string_forms_match_fraction_formatting():
    big = Fraction(3**80 + 1, 2**70 * 7)
    rng = random.Random(31337)
    samples = [
        (0, 0, 0, 0),
        (5, 0, 0, 0),
        (-1, 0, 0, 0),
        (0, 1, 0, -1),
        (0, -1, 1, 0),
        (Fraction(-2, 3), 4, 0, Fraction(1, 6)),
        (big, -big, 0, 10**30),
        (Fraction(-1, 10**25), 0, Fraction(10**25 + 1, 3), -7),
    ]
    for _ in range(100):
        pick = lambda: rng.choice(
            (0, 1, -1, rng.randint(-50, 50), Fraction(rng.randint(-50, 50), rng.randint(1, 60)))
        )
        samples.append(tuple(pick() for _ in range(4)))
    for coords in samples:
        coords = tuple(Fraction(c) for c in coords)
        x = Cyclo(*coords)
        assert x.coords == coords
        assert x.to_strings() == [str(c) for c in coords]
        assert repr(x) == "Cyclo(%s, %s, %s, %s)" % coords
        assert str(x) == fraction_str(coords)
        # the same value reached by arithmetic prints the same
        y = (x * cy.SQRT3 + 1) * cy.SQRT3.inv() - cy.SQRT3.inv()
        assert (str(y), repr(y), y.to_strings()) == (str(x), repr(x), x.to_strings())
