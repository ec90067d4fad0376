import itertools
import math
import random
from fractions import Fraction

import pytest

from localp12.localization import (
    COVER_INTEGRAL,
    TORUS_WEIGHTS,
    AssemblyInconsistencyError,
    EvenLiteralAssembly,
    NodeSmoothing,
    SMonomial,
    TorusWeights,
    WeightTable,
    assemble_even,
    assemble_odd,
    assembly_suite,
    degree0_fixed_point_sum,
    degree0_suite,
    even_literal_assembly,
    local_invariant,
    odd_assembly,
    odd_weight_families,
    resummation_suite,
    resummed_even,
    resummed_odd,
)
from localp12.ratfun import P_ONE, P_T1, P_T2, RF_T1, RF_T2, RF_ZERO, RatFun, rf


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
    table = WeightTable(tangent=(Fraction(1, 3), Fraction(0)))
    with pytest.raises(AssemblyInconsistencyError):
        odd_weight_families(3, table)


def test_node_smoothing_coefficients():
    node = NodeSmoothing(3, stacky=True)
    assert node.psi_coefficient(0) == SMonomial(Fraction(-2), Fraction(0))
    assert node.psi_coefficient(2) == SMonomial(Fraction(-18), Fraction(-2))
    # formal continuation below the geometric range
    assert node.psi_coefficient(-1) == SMonomial(Fraction(-2, 3), Fraction(1))
    plain = NodeSmoothing(5, stacky=False)
    assert plain.psi_coefficient(1) == SMonomial(Fraction(-5), Fraction(-1))
    assert plain.psi_coefficient(-2) == SMonomial(Fraction(-1, 25), Fraction(2))
    with pytest.raises(ValueError):
        NodeSmoothing(0)


def test_odd_assembly_oracles():
    assert assemble_odd(1, 0) == 1
    assert assemble_odd(3, 0) == Fraction(-1, 9)
    assert assemble_odd(5, 0) == Fraction(1, 25)
    assert assemble_odd(7, 0) == Fraction(-1, 49)
    assert assemble_odd(1, 1) == Fraction(-1, 4)
    assert assemble_odd(1, 2) == Fraction(1, 16)
    assert assemble_odd(3, 1) == Fraction(1, 4)


def test_odd_assembly_structure():
    for d in (1, 3, 5, 7):
        for g in (0, 1, 2):
            report = odd_assembly(d, g)
            assert report.edge.s_exp == -1
            assert report.edge.coeff == (-1) ** ((d + 1) // 2)
            assert report.vertex.s_exp == 2 * g
            assert report.node.s_exp == 1 - 2 * g
            assert report.total.s_exp == 0
            assert report.automorphisms == Fraction(1, d)
            assert report.cover_integral == COVER_INTEGRAL
    with pytest.raises(ValueError):
        odd_assembly(3, -1)


def test_odd_assembly_matches_resummation():
    rng = random.Random(91)
    for _ in range(12):
        d = rng.choice((1, 3, 5, 7, 9))
        g = rng.randrange(0, 5)
        n = 2 * g + 1
        series = resummed_odd(d, n)
        extracted = math.factorial(n) * series.coeff((n,))
        assert assemble_odd(d, g) == extracted


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


def test_resummed_odd_series():
    s = resummed_odd(1, 7)
    # 2 sin(z/2) = z - z^3/24 + z^5/1920 - ...
    assert s.coeff((1,)) == 1
    assert s.coeff((3,)) == Fraction(-1, 24)
    assert s.coeff((5,)) == Fraction(1, 1920)
    assert s.coeff((2,)) == 0
    s3 = resummed_odd(3, 3)
    assert s3.coeff((1,)) == Fraction(-1, 9)
    assert math.factorial(3) * s3.coeff((3,)) == local_invariant(3, 3)
    with pytest.raises(ValueError):
        resummed_odd(2, 4)


def test_resummed_even_series():
    s = resummed_even(2, 6)
    # -cos(z)/4 resummed: constant -1/4, then +z^2/8, ...
    assert s.coeff((0,)) == Fraction(-1, 4)
    assert math.factorial(2) * s.coeff((2,)) == local_invariant(2, 2)
    assert math.factorial(4) * s.coeff((4,)) == local_invariant(2, 4)
    assert s.coeff((1,)) == 0
    with pytest.raises(ValueError):
        resummed_even(3, 4)


def test_assemble_even_oracles():
    assert assemble_even(2, -1) == Fraction(-1, 4)
    assert assemble_even(2, 0) == Fraction(1, 4)
    assert assemble_even(4, -1) == Fraction(1, 32)
    assert assemble_even(4, 0) == Fraction(-1, 8)
    with pytest.raises(ValueError):
        assemble_even(2, -2)


def test_even_literal_bookkeeping():
    rep = even_literal_assembly(2, -1)
    assert rep == EvenLiteralAssembly(
        d=2,
        g=-1,
        rational=Fraction(-1, 16),
        s_exponent=Fraction(-1, 2),
        root2d_exponent=Fraction(1, 2),
        rootd_exponent=Fraction(1),
        closed_form=Fraction(-1, 4),
    )
    assert not rep.matches
    for d in (2, 4, 6, 8, 10):
        for g in (-1, 0, 1, 2):
            r = even_literal_assembly(d, g)
            assert r.s_exponent == Fraction(-1, 2)
            assert r.root2d_exponent == Fraction(1, 2)
            assert r.rootd_exponent == 1
            assert not r.matches
            assert r.closed_form == local_invariant(d, 2 * g + 2)
    with pytest.raises(ValueError):
        even_literal_assembly(3, 0)


def test_smonomial_arithmetic():
    a = SMonomial(Fraction(3), Fraction(1, 2))
    b = SMonomial(Fraction(2), Fraction(-1, 2))
    assert a * b == SMonomial(Fraction(6), Fraction(0))
    assert (a * b).value() == 6
    assert (a / b).s_exp == 1
    with pytest.raises(AssemblyInconsistencyError):
        a.value()


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

    true_value = loc.local_invariant

    def shifted(d, n):
        value = true_value(d, n)
        return value + 1 if (d, n) == (3, 3) else value

    monkeypatch.setattr(loc, "local_invariant", shifted)
    report = run()
    failed = [c for c in report.cases if not c.passed]
    assert [c.key for c in failed] == ["odd d=3 g=1"]
    record = failed[0].to_json()
    assert record["first_mismatch"] == [3]
    assert record["info"]["got"] == str(true_value(3, 3)) == "1/4"
    assert record["info"]["want"] == str(true_value(3, 3) + 1) == "5/4"
    passing = [c.to_json() for c in report.cases if c.passed]
    assert all("got" not in c["info"] and c["first_mismatch"] is None for c in passing)


def test_failing_degree0_case_names_both_sides(monkeypatch):
    import localp12.localization as loc

    true_sum = loc.degree0_fixed_point_sum
    monkeypatch.setattr(
        loc, "degree0_fixed_point_sum",
        lambda classes: true_sum(classes) + (1 if tuple(classes) == ("1", "H", "H") else 0),
    )
    failed = [c.to_json() for c in degree0_suite().cases if not c.passed]
    assert [c["key"] for c in failed] == ["<1,H,H>"]
    assert failed[0]["info"] == {"value": "1/3", "got": "1/3", "want": "-2/3"}
