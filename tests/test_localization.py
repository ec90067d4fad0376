import itertools
import math
import random
from fractions import Fraction

import pytest

from localp12.cyclotomic import I
from localp12.localization import (
    COVER_INTEGRAL,
    AssemblyInconsistencyError,
    EvenLiteralAssembly,
    SMonomial,
    WeightTable,
    assembly_suite,
    degree0_suite,
    even_literal_assembly,
    node_coefficient,
    odd_assembly,
    odd_weight_families,
    resummation_suite,
    resummed,
)
from localp12.localization import _EVEN_GRID, _ODD_GRID, _odd_edge, _per_degree, _wave
from localp12.mpseries import Series, VarSet, cos, sin
from localp12.potentials import (
    TORUS_WEIGHTS,
    TorusWeights,
    degree0_classes,
    degree0_fixed_point_sum,
    invariant_pair,
    local_invariant,
    quantum_sign,
)
from localp12.ratfun import P_ONE, P_T1, P_T2, RF_ONE, RF_T1, RF_T2, RF_ZERO, RatFun, rf
from localp12.reports import case

#: the ten multisets of three insertion classes, the four with one S included
_CLASS_MULTISETS = list(itertools.combinations_with_replacement("1HS", 3))


def _two_summand_degree0(classes, w):
    """The degree-0 sum as once written: each fixed-point term made by
    canonicalizing `RatFun` arithmetic, then the two terms added."""
    classes = degree0_classes(classes)
    stacky = classes.count("S")
    if stacky % 2:
        raise ValueError("odd stacky insertion counts vanish; not summed here")
    if stacky == 2:
        rest = [c for c in classes if c != "S"][0]
        return (RF_ONE if rest == "1" else w.point_twisted) * w.auto_twisted
    out = RF_ZERO
    for point, fiber, base, auto in ((w.point_0, w.fiber_0, w.base_0, w.auto_0),
                                     (w.point_inf, w.fiber_inf, w.base_inf, w.auto_inf)):
        out = out + point ** classes.count("H") * auto / (fiber * base)
    return out


def _assert_degree0_is_the_two_summand_sum(weights):
    for classes in _CLASS_MULTISETS:
        if classes.count("S") % 2:
            for route in (degree0_fixed_point_sum, _two_summand_degree0):
                with pytest.raises(ValueError, match="^odd stacky insertion counts vanish"):
                    route(classes, weights)
            continue
        got, want = degree0_fixed_point_sum(classes, weights), _two_summand_degree0(classes, weights)
        assert got == want, classes
        assert (got.num, got.den) == (want.num, want.den) and hash(got) == hash(want)


def test_degree0_values():
    assert degree0_fixed_point_sum(("1", "1", "1")) == RatFun(
        P_ONE, (P_T1 * P_T2).scale(3)
    )
    assert degree0_fixed_point_sum(("1", "1", "H")) == RF_ZERO
    assert degree0_fixed_point_sum(("1", "H", "H")) == rf(Fraction(-2, 3))
    assert degree0_fixed_point_sum(("H", "H", "H")) == (RF_T1 + RF_T2 * 2) * Fraction(
        -2, 3
    )
    assert degree0_fixed_point_sum(("1", "S", "S")) == rf(Fraction(1, 2))
    assert degree0_fixed_point_sum(("H", "S", "S")) == RF_T1 * Fraction(-1, 2)


def test_degree0_symmetric_in_classes():
    rng = random.Random(7)
    for _ in range(20):
        classes = [rng.choice(("1", "H", "S")) for _ in range(3)]
        if classes.count("S") % 2:
            continue
        shuffled = classes[:]
        rng.shuffle(shuffled)
        assert degree0_fixed_point_sum(classes) == degree0_fixed_point_sum(shuffled)


def test_degree0_unit_acts_trivially_on_pairings():
    # <1,a,b> agrees with the Poincare-type pairing of a and b at degree zero
    one_h = degree0_fixed_point_sum(("1", "1", "H"))
    h_h = degree0_fixed_point_sum(("1", "H", "H"))
    assert one_h == RF_ZERO
    assert h_h.eval(2, 3) == Fraction(-2, 3)


def test_degree0_sum_at_random_weights_matches_the_unsummed_formula():
    """Random rational weights, one draw in two with proportional base weights
    (as t2 - t1/2 = -(t1 - 2 t2)/2), against the two fixed-point terms
    evaluated separately in plain Fractions."""
    rng = random.Random(19)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

    def form():
        return (rational(), rng.choice((Fraction(0), rational())))

    classes_list = [c for c in itertools.combinations_with_replacement("1HS", 3)
                    if c.count("S") % 2 == 0]
    for draw in range(8):
        forms = {name: form() for name in ("base_0", "fiber_0", "base_inf", "fiber_inf",
                                           "point_0", "point_inf", "point_twisted")}
        if draw % 2 == 0:
            ratio = rational()
            forms["base_inf"] = tuple(ratio * x for x in forms["base_0"])
        autos = {name: rational() for name in ("auto_0", "auto_inf", "auto_twisted")}
        weights = TorusWeights(
            **{name: RF_T1 * a + RF_T2 * b for name, (a, b) in forms.items()}, **autos)
        points = []
        while len(points) < 3:
            t1, t2 = rational(), rational()
            value = {name: a * t1 + b * t2 for name, (a, b) in forms.items()}
            if all(value.values()):
                points.append((t1, t2, value))
        _assert_degree0_is_the_two_summand_sum(weights)
        for classes in classes_list:
            got = degree0_fixed_point_sum(classes, weights=weights)
            for t1, t2, value in points:
                if classes.count("S") == 2:
                    restriction = value["point_twisted"] if "H" in classes else 1
                    want = restriction * autos["auto_twisted"]
                else:
                    want = sum(
                        autos["auto_" + end] * value["point_" + end] ** classes.count("H")
                        / (value["fiber_" + end] * value["base_" + end])
                        for end in ("0", "inf"))
                assert got.eval(t1, t2) == want, (draw, classes, t1, t2)


def _with(weights, **fields):
    """A copy of weights with the given fields replaced."""
    return TorusWeights(**dict({name: getattr(weights, name) for name in weights.__slots__},
                               **fields))


#: the package's weights; fix (a) of the degree-0 sign, both point
#: restrictions negated; and weights of every kind with non-unit denominators
_DEGREE0_WEIGHTS = {
    "torus": TORUS_WEIGHTS,
    "fix-a": _with(TORUS_WEIGHTS, point_0=-TORUS_WEIGHTS.point_0,
                   point_inf=-TORUS_WEIGHTS.point_inf),
    "fractional": _with(TORUS_WEIGHTS, point_0=TORUS_WEIGHTS.point_0 / (RF_T1 + RF_T2),
                        point_inf=TORUS_WEIGHTS.point_inf * I / RF_T1,
                        fiber_0=TORUS_WEIGHTS.fiber_0 / (RF_T1 - RF_T2 * 3),
                        base_inf=TORUS_WEIGHTS.base_inf * RF_T2 / (RF_T1 * RF_T1 + RF_T2 * RF_T2),
                        auto_0=Fraction(-5, 7)),
}


@pytest.mark.parametrize("name", sorted(_DEGREE0_WEIGHTS))
def test_degree0_sum_over_one_denominator_is_the_two_summand_sum(name):
    weights = _DEGREE0_WEIGHTS[name]
    _assert_degree0_is_the_two_summand_sum(weights)
    if name == "fractional":
        assert not weights.point_0.den.is_one() and not weights.fiber_0.den.is_one()


def test_degree0_validation():
    with pytest.raises(ValueError):
        degree0_fixed_point_sum(("1", "1"))
    with pytest.raises(ValueError):
        degree0_fixed_point_sum(("1", "1", "X"))
    with pytest.raises(ValueError):
        degree0_fixed_point_sum(("S", "1", "1"))
    with pytest.raises(ValueError):
        degree0_fixed_point_sum(("S", "S", "S"))
    assert degree0_fixed_point_sum(("1", "1", "1"), TORUS_WEIGHTS) is not None


def test_odd_weight_families_structure():
    for d in (1, 3, 5, 7, 9):
        half, one, tangent = odd_weight_families(d)
        assert len(half) == (d - 1) // 2
        assert len(one) == d - 1
        assert len(tangent) == (3 * d - 1) // 2
        assert all(w < 0 for w in half)
        assert all(w > 0 for w in one)
        assert all(w != 0 for w in tangent)
    with pytest.raises(ValueError):
        odd_weight_families(2)
    with pytest.raises(ValueError):
        odd_weight_families(0)


def test_odd_weight_families_d3_explicit():
    half, one, tangent = odd_weight_families(3)
    assert half == [Fraction(-1, 3)]
    assert one == [Fraction(1, 3), Fraction(2, 3)]
    # zero mode at k = d dropped
    assert tangent == [
        Fraction(1, 3),
        Fraction(-1, 3),
        Fraction(-2, 3),
        Fraction(-1),
    ]


def test_bad_lift_detected():
    # the default lift with the wrong tangent weight at the stacky point
    table = WeightTable((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(0)),
                        (Fraction(1, 3), Fraction(0)))
    with pytest.raises(AssemblyInconsistencyError):
        odd_weight_families(3, table)


def test_node_smoothing_coefficients():
    assert node_coefficient(3, 0, stacky=True) == SMonomial(-2, 1, 0)
    assert node_coefficient(3, 2, stacky=True) == SMonomial(-18, 1, -2)
    # formal continuation below the geometric range
    assert node_coefficient(3, -1, stacky=True) == SMonomial(-2, 3, 1)
    assert node_coefficient(5, 1, stacky=False) == SMonomial(-5, 1, -1)
    assert node_coefficient(5, -2, stacky=False) == SMonomial(-1, 25, 2)
    assert all(type(node_coefficient(3, k, stacky).s_exp) is int
               for k in range(-2, 3) for stacky in (True, False))
    with pytest.raises(ValueError, match="degree must be positive"):
        node_coefficient(0, 1, stacky=True)


# The arithmetic of s-monomials held as (Fraction coefficient, s-exponent),
# kept here as the oracle of the assembly's integer products.


def _fraction(m):
    return Fraction(m.num, m.den), m.s_exp


def _times(a, b):
    return a[0] * b[0], a[1] + b[1]


def _over(a, b):
    return a[0] / b[0], a[1] - b[1]


def _scaled(a, c):
    return a[0] * Fraction(c), a[1]


def test_node_coefficient_is_a_signed_power_of_d():
    for d in range(1, 8):
        for k in range(-3, 4):
            base = Fraction(d) ** k
            for stacky, want in ((True, -2 * base), (False, -base)):
                got = node_coefficient(d, k, stacky)
                assert got == SMonomial(want.numerator, want.denominator, -k)
                assert all(type(f) is int for f in (got.num, got.den, got.s_exp))


def _canonical(m, value, s_exp):
    """m is three ints in lowest terms, den > 0, the record that value * s^s_exp
    makes, so that == between records is equality of values."""
    assert all(type(f) is int for f in (m.num, m.den, m.s_exp))
    assert m.den > 0 and math.gcd(m.num, m.den) == 1
    assert m == SMonomial(*value.as_integer_ratio(), s_exp)


def test_every_factor_is_one_canonical_smonomial():
    for d in range(1, 12):
        for k in range(-4, 5):
            for stacky in (True, False):
                # at even d and k < 0 the stacky node is -2/d^-k, e.g. -1/4, not -2/8, at d = 2
                value = (-2 if stacky else -1) * Fraction(d) ** k
                _canonical(node_coefficient(d, k, stacky), value, -k)
    assert node_coefficient(2, -3, stacky=True) == SMonomial(-1, 4, 3)
    for d in range(1, 22, 2):
        # the tangent weights' product is negative; its sign moves to the numerator
        half, one, tangent = odd_weight_families(d)
        edge = math.prod(half + one, start=Fraction(1)) / math.prod(tangent, start=Fraction(1))
        for g in range(7):
            a = odd_assembly(d, g)
            factors = [(a.edge, edge, len(half) + len(one) - len(tangent)),
                       (a.vertex, Fraction((-1) ** g, 4**g), 2 * g),
                       (a.node, -2 * Fraction(d) ** (2 * g - 1), 1 - 2 * g),
                       (a.automorphisms, Fraction(1, d), 0),
                       (a.cover_integral, Fraction(1, 2), 0)]
            for m, value, s_exp in factors:
                _canonical(m, value, s_exp)
            total = math.prod([value for _, value, _ in factors])
            _canonical(a.total, total, sum([s_exp for _, _, s_exp in factors]))
            assert a.value == total == local_invariant(d, 2 * g + 1)


@pytest.mark.parametrize("grid", [_ODD_GRID, [(d, g) for d in range(1, 16, 2) for g in range(7)]],
                         ids=["suite", "wide"])
def test_odd_total_is_the_product_of_its_factors(grid):
    for d, g in grid:
        a = odd_assembly(d, g)
        want = _times(_times(_times(_fraction(a.edge), _fraction(a.vertex)), _fraction(a.node)),
                      _times(_fraction(a.automorphisms), _fraction(a.cover_integral)))
        assert _fraction(a.total) == want
        assert all(type(f) is int for f in (a.total.num, a.total.den, a.total.s_exp))


def test_odd_assembly_oracles():
    assert odd_assembly(1, 0).value == 1
    assert odd_assembly(3, 0).value == Fraction(-1, 9)
    assert odd_assembly(5, 0).value == Fraction(1, 25)
    assert odd_assembly(7, 0).value == Fraction(-1, 49)
    assert odd_assembly(1, 1).value == Fraction(-1, 4)
    assert odd_assembly(1, 2).value == Fraction(1, 16)
    assert odd_assembly(3, 1).value == Fraction(1, 4)


def test_odd_assembly_structure():
    for d in (1, 3, 5, 7):
        for g in (0, 1, 2):
            report = odd_assembly(d, g)
            assert report.edge.s_exp == -1
            assert (report.edge.num, report.edge.den) == ((-1) ** ((d + 1) // 2), 1)
            assert report.vertex.s_exp == 2 * g
            assert report.node.s_exp == 1 - 2 * g
            assert report.total.s_exp == 0
            # every factor's power of s is an int, and so is their sum
            for m in (report.edge, report.vertex, report.node, report.total):
                assert type(m.s_exp) is int
            assert report.automorphisms == SMonomial(1, d, 0)
            assert report.cover_integral == COVER_INTEGRAL == SMonomial(1, 2, 0)
    with pytest.raises(ValueError):
        odd_assembly(3, -1)


def test_edge_from_integer_products_equals_the_factor_by_factor_product():
    one_s = (Fraction(1), 1)
    for d in range(1, 22, 2):
        half, one, tangent = odd_weight_families(d)
        edge = (Fraction(1), 0)
        for w in half + one:
            edge = _times(edge, _scaled(one_s, w))
        for w in tangent:
            edge = _over(edge, _scaled(one_s, w))
        assert _fraction(_odd_edge(d)) == edge
        assert _fraction(odd_assembly(d, 2).edge) == edge


@pytest.mark.parametrize("grid, shift", [(_ODD_GRID, 1), (_EVEN_GRID, 2)], ids=["odd", "even"])
def test_one_series_per_degree_equals_a_build_at_each_cap(grid, shift):
    series = _per_degree(grid, shift)
    assert sorted(series) == sorted({d for d, _ in grid})
    for d, g in grid:
        n = 2 * g + shift
        at_n = resummed(d, n)
        assert series[d].coeff((n,)) == at_n.coeff((n,))
        assert series[d].into(VarSet(("z2",), (n,))) == at_n


def test_odd_assembly_matches_resummation():
    rng = random.Random(91)
    for _ in range(12):
        d = rng.choice((1, 3, 5, 7, 9))
        g = rng.randrange(0, 5)
        n = 2 * g + 1
        series = resummed(d, n)
        extracted = math.factorial(n) * series.coeff((n,))
        assert odd_assembly(d, g).value == extracted


def test_local_invariant_closed_form():
    assert local_invariant(1, 1) == 1
    assert local_invariant(1, 3) == Fraction(-1, 4)
    assert local_invariant(3, 1) == Fraction(-1, 9)
    assert local_invariant(5, 1) == Fraction(1, 25)
    assert local_invariant(2, 0) == Fraction(-1, 4)
    assert local_invariant(2, 2) == Fraction(1, 4)
    assert local_invariant(4, 0) == Fraction(1, 32)
    assert local_invariant(6, 0) == Fraction(-1, 108)
    with pytest.raises(ValueError):
        local_invariant(2, 1)
    with pytest.raises(ValueError):
        local_invariant(3, 2)
    with pytest.raises(ValueError):
        local_invariant(0, 0)
    with pytest.raises(ValueError):
        local_invariant(1, -1)


def _two_branch_local_invariant(d, n):
    """The invariant as once written, one sign rule per parity of d."""
    if d % 2:
        g = (n - 1) // 2
        sign = (-1) ** (g + (d - 1) // 2)
    else:
        g = n // 2 - 1
        sign = (-1) ** (g + 1 + d // 2)
    return sign * Fraction(2, d**3) * Fraction(d, 2) ** n


def test_local_invariant_equals_the_two_branch_formula():
    for d in range(1, 30):
        for n in range(d % 2, 40, 2):
            v = local_invariant(d, n)
            assert type(v) is Fraction
            assert v == _two_branch_local_invariant(d, n)


def test_invariant_pair_is_the_local_invariant_in_lowest_terms():
    for d in range(1, 21):
        for n in range(d % 2, 31, 2):
            pair = invariant_pair(d, n)
            assert type(pair) is tuple and all(type(x) is int for x in pair)
            assert pair == local_invariant(d, n).as_integer_ratio()
            assert pair[1] > 0 and math.gcd(*pair) == 1


@pytest.mark.parametrize("d, n", [(2, 1), (3, 2), (0, 0), (-1, 1), (1, -1), (2, -2)])
def test_invariant_pair_refuses_what_local_invariant_refuses(d, n):
    with pytest.raises(ValueError) as pair_err:
        invariant_pair(d, n)
    with pytest.raises(ValueError) as value_err:
        local_invariant(d, n)
    assert str(pair_err.value) == str(value_err.value)


def test_local_invariant_magnitude_and_sign():
    rng = random.Random(404)
    for _ in range(25):
        d = rng.randrange(1, 12)
        g = rng.randrange(-1 if d % 2 == 0 else 0, 5)
        n = 2 * g + (1 if d % 2 else 2)
        v = local_invariant(d, n)
        assert abs(v) == Fraction(2, d**3) * Fraction(d, 2) ** n
        # four-periodicity of the sign in d at fixed insertion count
        if d + 4 < 12:
            w = local_invariant(d + 4, n)
            assert (v > 0) == (w > 0)


def _direct_resummed(d, order):
    """The degree's own Taylor build, (sin|cos)(z2 d/2) times 2 quantum_sign(d)/d^3."""
    arg = Series.variable(VarSet(("z2",), (order,)), "z2").scale(Fraction(d, 2))
    return (sin if d % 2 else cos)(arg).scale(Fraction(2 * quantum_sign(d), d**3))


def _two_multiply_resummed(d, order):
    """The wave dilated by two Fraction multiplies per coefficient."""
    wave = _wave(d % 2 == 1, order)
    scale = Fraction(2 * quantum_sign(d), d**3)
    return Series._of(wave.vs, {(n,): c * scale * d**n for (n,), c in wave.terms()})


@pytest.mark.parametrize("d", range(1, 13))
def test_resummed_is_the_two_multiply_dilation(d):
    for order in range(15):
        got, want = resummed(d, order), _two_multiply_resummed(d, order)
        assert got == want
        assert [type(c) for _, c in got.terms()] == [type(c) for _, c in want.terms()]


@pytest.mark.parametrize("d", range(1, 13))
def test_resummed_is_the_direct_build(d):
    for order in range(15):
        got, want = resummed(d, order), _direct_resummed(d, order)
        assert got == want
        assert [type(c) for _, c in got.terms()] == [type(c) for _, c in want.terms()]


@pytest.mark.parametrize("orders", [range(15), range(14, -1, -1)], ids=["small-first", "large-first"])
def test_resummed_is_cap_exact_whichever_cap_fills_the_wave_cache_first(orders):
    _wave.cache_clear()
    built = {(d, n): resummed(d, n) for n in orders for d in range(1, 13)}
    for (d, n), series in built.items():
        assert built[(d, 14)].into(VarSet(("z2",), (n,))) == series
        assert series == _direct_resummed(d, n)


def test_resummed_at_odd_degree():
    s = resummed(1, 7)
    # 2 sin(z/2) = z - z^3/24 + z^5/1920 - ...
    assert s.coeff((1,)) == 1
    assert s.coeff((3,)) == Fraction(-1, 24)
    assert s.coeff((5,)) == Fraction(1, 1920)
    assert s.coeff((2,)) == 0
    s3 = resummed(3, 3)
    assert s3.coeff((1,)) == Fraction(-1, 9)
    assert math.factorial(3) * s3.coeff((3,)) == local_invariant(3, 3)
    with pytest.raises(ValueError):
        resummed(0, 4)


def test_resummed_at_even_degree():
    s = resummed(2, 6)
    # -cos(z)/4 resummed: constant -1/4, then +z^2/8, ...
    assert s.coeff((0,)) == Fraction(-1, 4)
    assert math.factorial(2) * s.coeff((2,)) == local_invariant(2, 2)
    assert math.factorial(4) * s.coeff((4,)) == local_invariant(2, 4)
    assert s.coeff((1,)) == 0


def test_assemble_even_oracles():
    # n! times the z2^n coefficient of the resummed series, n = 2g + 2
    for d, g, want in ((2, -1, Fraction(-1, 4)), (2, 0, Fraction(1, 4)),
                       (4, -1, Fraction(1, 32)), (4, 0, Fraction(-1, 8))):
        n = 2 * g + 2
        assert math.factorial(n) * resummed(d, n).coeff((n,)) == want


def test_even_literal_bookkeeping():
    rep = even_literal_assembly(2, -1)
    assert rep == EvenLiteralAssembly(
        d=2,
        g=-1,
        rational=(-1, 16),
        s_exponent=(-1, 2),
        root2d_exponent=(1, 2),
        rootd_exponent=(1, 1),
        closed_form=(-1, 4),
    )
    assert not rep.matches
    for d in (2, 4, 6, 8, 10):
        for g in (-1, 0, 1, 2):
            r = even_literal_assembly(d, g)
            assert r.s_exponent == (-1, 2)
            assert r.root2d_exponent == (1, 2)
            assert r.rootd_exponent == (1, 1)
            assert not r.matches
            assert r.closed_form == local_invariant(d, 2 * g + 2).as_integer_ratio()
    with pytest.raises(ValueError):
        even_literal_assembly(3, 0)


def _even_literal_by_fractions(d, g):
    """The even literal product as the Fraction route recorded it, built here
    factor by factor: (rational, s-exponent, root2d and rootd exponents,
    closed form), each a Fraction.  Each factor is (coefficient, powers of
    s, of 2d and of d)."""
    half = Fraction(1, 2)
    factors = [
        # first edge bundle: (d-1)!! s^((d-1)/2) / (2d)^((d-1)/2)
        (math.prod(range(d - 1, 0, -2)), half * (d - 1), -half * (d - 1), 0),
        # second edge bundle: (d-1)! (s/d)^(d-1)
        (math.factorial(d - 1), d - 1, 0, 1 - d),
        # over the tangent factor 2 d! d!! s^(3d/2) / ((2d)^(d/2) d^d)
        (Fraction(1, 2 * math.factorial(d) * math.prod(range(d, 0, -2))), -3 * half * d,
         half * d, d),
        # flag factor s/2, vertex (s/2)^(2g)
        (half, 1, 0, 0),
        (Fraction(1, 4) ** g, 2 * g, 0, 0),
        # untwisted node smoothing, psi^(2g) coefficient -(d/s)^(2g)
        (-Fraction(d) ** (2 * g), -2 * g, 0, 0),
        # gluing factor 2 and the cover integral 1/2
        (2 * Fraction(COVER_INTEGRAL.num, COVER_INTEGRAL.den), 0, 0, 0),
    ]
    rational = math.prod([Fraction(f[0]) for f in factors])
    s_exp, root2d, rootd = (sum([Fraction(f[i]) for f in factors]) for i in (1, 2, 3))
    return rational, s_exp, root2d, rootd, local_invariant(d, 2 * g + 2)


def _matches_by_fractions(d, rational, s_exponent, root2d_exponent, rootd_exponent, closed_form):
    """`EvenLiteralAssembly.matches` as the Fraction route decided it."""
    if s_exponent != 0:
        return False
    if root2d_exponent.denominator != 1 or rootd_exponent.denominator != 1:
        return False
    value = (rational * Fraction(2 * d) ** root2d_exponent.numerator
             * Fraction(d) ** rootd_exponent.numerator)
    return value == closed_form


@pytest.mark.parametrize("d", range(2, 21, 2))
def test_even_literal_record_is_the_fraction_route_in_reduced_pairs(d):
    for g in range(-1, 9):
        record = even_literal_assembly(d, g)
        want = _even_literal_by_fractions(d, g)
        pairs = (record.rational, record.s_exponent, record.root2d_exponent,
                 record.rootd_exponent, record.closed_form)
        for pair, value in zip(pairs, want):
            assert type(pair) is tuple and all(type(x) is int for x in pair)
            assert pair[1] > 0 and math.gcd(*pair) == 1
            assert pair == value.as_integer_ratio()
        assert record.matches is _matches_by_fractions(d, *want) is False


def test_a_warm_assembly_suite_makes_no_fraction(monkeypatch):
    assert assembly_suite().passed  # fills the odd edge factors' cache
    true_new = Fraction.__new__
    made = [0]

    def counting(*args, **kwargs):
        made[0] += 1
        return true_new(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    report = assembly_suite()
    monkeypatch.undo()
    assert report.passed and len(report.cases) == len(_ODD_GRID) + len(_EVEN_GRID)
    assert made == [0]


def test_a_failing_even_case_names_both_exponents_as_text(monkeypatch):
    import localp12.localization as loc

    monkeypatch.setattr(loc, "_EVEN_IMBALANCE", (1, 2))
    cases = assembly_suite().cases
    failed = [c for c in cases if not c["pass"]]
    assert [c["key"] for c in failed] == ["even-literal d=%d g=%d" % c for c in _EVEN_GRID]
    for c, (d, g) in zip(failed, _EVEN_GRID):
        assert c["first_mismatch"] == [2 * g + 2]
        assert (c["info"]["got"], c["info"]["want"]) == ("-1/2", "1/2") == (
            str(Fraction(-1, 2)), str(Fraction(1, 2)))
        assert c["info"]["s_exponent"] == "-1/2" and c["info"]["matches"] is False


def test_smonomial_arithmetic():
    a, b = (Fraction(3), Fraction(1, 2)), (Fraction(2), Fraction(-1, 2))
    assert _times(a, b) == (6, 0)
    assert _over(a, b)[1] == 1
    assert SMonomial(6, 1, 0).value() == 6 and type(SMonomial(6, 1, 0).value()) is Fraction
    assert SMonomial(-1, 4, 0).value() == Fraction(-1, 4)
    with pytest.raises(AssemblyInconsistencyError):
        SMonomial(3, 1, 1).value()


def test_suites_pass():
    for report in (degree0_suite(), resummation_suite(), assembly_suite()):
        assert report.passed
        assert report.cases
        blob = report.to_json()
        assert blob["suite"] == report.suite
        assert all(c["pass"] for c in blob["cases"])
    assert len(degree0_suite().cases) == 6


@pytest.mark.parametrize("run", [resummation_suite, assembly_suite])
def test_failing_case_names_both_sides(monkeypatch, run):
    import localp12.localization as loc

    # the suites compare with the closed form's integer pair
    true_pair = loc.invariant_pair

    def shifted(d, n):
        num, den = true_pair(d, n)
        return (num + den, den) if (d, n) == (3, 3) else (num, den)

    monkeypatch.setattr(loc, "invariant_pair", shifted)
    report = run()
    failed = [c for c in report.cases if not c["pass"]]
    assert [c["key"] for c in failed] == ["odd d=3 g=1"]
    record = failed[0]
    assert record["first_mismatch"] == [3]
    assert record["info"]["got"] == str(local_invariant(3, 3)) == "1/4"
    assert record["info"]["want"] == str(local_invariant(3, 3) + 1) == "5/4"
    passing = [c for c in report.cases if c["pass"]]
    assert all("got" not in c["info"] and c["first_mismatch"] is None for c in passing)


#: wider than the suites' grids: d <= 12, g <= 6
_WIDE_ODD = [(d, g) for d in range(1, 13, 2) for g in range(0, 7)]
_WIDE_EVEN = [(d, g) for d in range(2, 13, 2) for g in range(-1, 7)]


def _resummation_by_fractions(closed_form):
    """The resummation cases as the suite made them with Fractions, before it
    compared integer pairs: the oracle of the pair route."""
    cases = []
    for label, grid, shift in (("odd", _WIDE_ODD, 1), ("even", _WIDE_EVEN, 2)):
        for d, g in grid:
            n = 2 * g + shift
            got = math.factorial(n) * resummed(d, n).coeff((n,))
            want = closed_form(d, n)
            cases.append(case("%s d=%d g=%d" % (label, d, g), got == want,
                              {"value": str(want)}, got, want, (n,)))
    return cases


def _odd_assembly_by_fractions(closed_form):
    """The odd assembly cases as the suite made them with Fractions."""
    cases = []
    for d, g in _WIDE_ODD:
        n = 2 * g + 1
        total = odd_assembly(d, g).total
        coeff = Fraction(total.num, total.den)
        want = closed_form(d, n)
        ok = total.is_constant and coeff == want
        cases.append(case("odd d=%d g=%d" % (d, g), ok,
                          {"s_exponent": str(total.s_exp), "value": str(coeff)},
                          coeff, want, (n,)))
    return cases


#: (d, n) -> what is added to the closed form there, so that some cases fail
_SHIFTS = {
    "as built": {},
    "shifted": {(3, 3): Fraction(1), (5, 9): Fraction(-1, 3), (2, 4): Fraction(7, 5),
                (12, 14): Fraction(1, 10**30 + 1), (1, 1): -2 * local_invariant(1, 1)},
}


@pytest.mark.parametrize("shift", _SHIFTS, ids=list(_SHIFTS))
@pytest.mark.parametrize("node", ["as built", "off by s"])
def test_pair_routes_make_the_cases_of_the_fraction_routes(monkeypatch, shift, node):
    """On grids wider than the suites', with a closed form shifted at some
    (d, n) and with a node factor whose power of s does not cancel, the
    integer-pair routes make exactly the cases the Fraction routes made:
    the same pass, texts, got, want and first mismatch."""
    import localp12.localization as loc

    added = _SHIFTS[shift]

    def closed_form(d, n):
        return local_invariant(d, n) + added.get((d, n), 0)

    def pair(d, n):
        value = closed_form(d, n)
        return value.numerator, value.denominator

    monkeypatch.setattr(loc, "_ODD_GRID", _WIDE_ODD)
    monkeypatch.setattr(loc, "_EVEN_GRID", _WIDE_EVEN)
    monkeypatch.setattr(loc, "invariant_pair", pair)
    if node == "off by s":
        true_node = loc.node_coefficient

        def off_by_s(d, k, stacky):
            node = true_node(d, k, stacky)
            return SMonomial(node.num, node.den, 1 - k if d == 5 else -k)

        monkeypatch.setattr(loc, "node_coefficient", off_by_s)
    resummation = _resummation_by_fractions(closed_form)
    assert resummation_suite().cases == resummation
    odd = _odd_assembly_by_fractions(closed_form)
    assert assembly_suite().cases[:len(odd)] == odd
    shifted = {"%s d=%d g=%d" % ("odd" if d % 2 else "even", d, (n - 2 + d % 2) // 2)
               for d, n in added}
    assert {c["key"] for c in resummation if not c["pass"]} == shifted
    assert {c["key"] for c in odd if not c["pass"]} == {k for k in shifted if "odd" in k} | (
        {"odd d=5 g=%d" % g for g in range(7)} if node == "off by s" else set())


def test_failing_degree0_case_names_both_sides(monkeypatch):
    import localp12.localization as loc

    true_sum = loc.degree0_fixed_point_sum
    monkeypatch.setattr(
        loc, "degree0_fixed_point_sum",
        lambda classes: true_sum(classes) + (1 if tuple(classes) == ("1", "H", "H") else 0),
    )
    failed = [c for c in degree0_suite().cases if not c["pass"]]
    assert [c["key"] for c in failed] == ["<1,H,H>"]
    assert failed[0]["info"] == {"value": "1/3", "got": "1/3", "want": "-2/3"}


def _record(rational, s_exponent, root2d_exponent, rootd_exponent, closed_form, d=2):
    return EvenLiteralAssembly(d=d, g=0, rational=rational, s_exponent=s_exponent,
                               root2d_exponent=root2d_exponent, rootd_exponent=rootd_exponent,
                               closed_form=closed_form)


def test_a_product_that_closes_up_is_matched_on_its_value():
    # at d = 2: 1/16 * 4^1 * 2^-1 = 1/8
    assert _record((1, 16), (0, 1), (1, 1), (-1, 1), (1, 8)).matches
    assert not _record((1, 16), (0, 1), (1, 1), (-1, 1), (1, 4)).matches
    # a half-integer root exponent is no rational value, whatever the rest
    assert not _record((1, 16), (0, 1), (1, 2), (-1, 1), (1, 8)).matches
    assert not _record((1, 16), (0, 1), (1, 1), (-1, 2), (1, 8)).matches


def test_matches_on_pairs_is_the_fraction_rule_where_the_exponents_vanish():
    """Synthetic records, every s-exponent and root exponent drawn from
    -5/2..5/2 at even d, the rational chosen to close up on the closed form
    or to miss it by a factor: the integer rule agrees with the Fraction rule
    on each, and matches exactly where s^0 and both roots are whole."""
    halves = [Fraction(k, 2) for k in range(-5, 6)]
    closed = 0
    for d in (2, 4, 6):
        for g in (-1, 0, 3):
            want = local_invariant(d, 2 * g + 2)
            for s_exp, a, b in itertools.product((Fraction(0), Fraction(-1, 2), Fraction(1)),
                                                 halves, halves):
                whole = (Fraction(2 * d) ** a.numerator * Fraction(d) ** b.numerator
                         if a.denominator == b.denominator == 1 else Fraction(1))
                for miss in (1, 2, Fraction(-1, 3)):
                    fields = (want / whole * miss, s_exp, a, b, want)
                    record = _record(*[f.as_integer_ratio() for f in fields], d=d)
                    assert record.matches is _matches_by_fractions(d, *fields)
                    closes = s_exp == 0 and a.denominator == b.denominator == 1 and miss == 1
                    assert record.matches is closes
                    closed += closes
    assert closed == 3 * 3 * 5 * 5  # d, g, and the whole exponents -2..2 of each root
