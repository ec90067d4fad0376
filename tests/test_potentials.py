import itertools
import math
import random
from fractions import Fraction

import pytest

from localp12 import localization, potentials
from localp12.localization import resummed
from localp12.mpseries import Series, VarSet, exp
from localp12.potentials import (
    classical_part,
    degree0_fixed_point_sum,
    degree0_triple,
    extended_potential,
    g_series,
    gw_invariant,
    local_invariant,
    potential,
    quantum_sign,
)
from localp12.ratfun import RF_T1, RF_T2, RF_ZERO, RatFun, rf

_LEVEL = RF_T1 + RF_T2


def test_classical_explicit_terms():
    c = classical_part()
    got = {e: v for e, v in c.terms()}
    assert got == {
        (3, 0, 0): rf(1) / ((RF_T1 * RF_T2) * 18),
        (1, 2, 0): rf(Fraction(-1, 3)),
        (1, 0, 2): rf(Fraction(1, 4)),
        (0, 1, 2): RF_T1 * Fraction(-1, 4),
        (0, 3, 0): (RF_T1 + RF_T2 * 2) * Fraction(-1, 9),
    }


def test_classical_coefficients_are_weighted_triples():
    c = classical_part()
    names = ("1", "H", "S")
    seen = set()
    for picks in itertools.combinations_with_replacement(range(3), 3):
        counts = (picks.count(0), picks.count(1), picks.count(2))
        seen.add(counts)
        want = degree0_triple(names[i] for i in picks) * Fraction(
            1, math.prod(math.factorial(m) for m in counts)
        )
        assert c.coeff(counts) == want
    assert len(seen) == 10


def test_degree0_triple_selection_rule():
    assert degree0_triple(("S", "S", "S")) == RF_ZERO
    assert degree0_triple(("1", "1", "S")) == RF_ZERO
    assert degree0_triple(("1", "H", "S")) == RF_ZERO
    assert degree0_triple(("H", "H", "S")) == RF_ZERO
    assert degree0_triple(("1", "S", "S")) == rf(Fraction(1, 2))


def test_degree0_values_come_from_the_cache_unchanged():
    for classes in itertools.product(("1", "H", "S"), repeat=3):
        want = RF_ZERO if classes.count("S") % 2 else degree0_fixed_point_sum(classes)
        got = degree0_triple(classes)
        assert got == want
        # one value per class multiset, whatever the order
        assert got == degree0_triple(reversed(classes))
        assert got == degree0_triple(sorted(classes))
    assert classical_part() is classical_part()
    assert classical_part() == classical_part.__wrapped__()


def test_warm_degree0_cache_leaves_the_suite_independent(monkeypatch):
    for classes in itertools.combinations_with_replacement(("1", "H", "S"), 3):
        degree0_triple(classes)
    calls = []
    original = localization.degree0_fixed_point_sum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(localization, "degree0_fixed_point_sum", counting)
    monkeypatch.setattr(potentials, "degree0_fixed_point_sum", counting)
    degree0_triple(("S", "1", "S"))
    assert calls == []
    report = localization.degree0_suite()
    assert report.passed
    assert len(calls) == 6


@pytest.mark.parametrize("classes", [("1", "H", "X"), ("1", "H"), ("S",) * 5, (1, "H", "S")])
def test_degree0_triple_still_refuses_bad_classes(classes):
    with pytest.raises(ValueError):
        degree0_triple(classes)


def test_g_series_coefficients():
    g = g_series(10)
    for n in range(4):
        assert g.coeff((n,)) == 0
    assert g.coeff((4,)) == Fraction(1, 96)
    assert g.coeff((5,)) == 0
    assert g.coeff((6,)) == Fraction(1, 5760)
    assert g.coeff((8,)) == Fraction(1, 161280)
    assert g.coeff((10,)) == Fraction(17, 58060800)
    assert not g_series(3)


def test_g_series_is_odd_free():
    g = g_series(21)
    for e, _ in g.terms():
        assert e[0] % 2 == 0
        assert e[0] >= 4


def test_stacky_part_weight():
    s = potential(0, 6).series()
    assert s.coeff((0, 0, 4, 0)) == _LEVEL * Fraction(-1, 96)
    assert s.coeff((0, 0, 6, 0)) == _LEVEL * Fraction(-1, 5760)


def test_degree0_triple_reads_the_fixed_point_sum_off_the_cubic():
    ordered = list(itertools.product(("1", "H", "S"), repeat=3))
    even = [c for c in ordered if c.count("S") % 2 == 0]
    assert len(even) == 14
    for classes in ordered:
        if classes in even:
            assert degree0_triple(classes) == degree0_fixed_point_sum(classes)
        else:
            assert degree0_triple(classes) is RF_ZERO


def test_quantum_sign_period_four():
    assert [quantum_sign(d) for d in range(1, 9)] == [1, -1, -1, 1, 1, -1, -1, 1]
    assert quantum_sign(9) == quantum_sign(1)
    assert quantum_sign(10) == quantum_sign(2)


def test_potential_small_caps():
    p = potential(1, 1).series()
    assert {e: v for e, v in p.terms()} == {
        (0, 0, 1, 1): _LEVEL,
        (0, 1, 1, 1): _LEVEL,
    }
    cubic = potential(0, 3).series()
    assert len(list(cubic.terms())) == 5
    assert cubic.coeff((1, 0, 2, 0)) == rf(Fraction(1, 4))


def test_potential_coefficients_match_invariants():
    p = potential(4, 6).series()
    rng = random.Random(2061)
    for _ in range(30):
        d = rng.randrange(1, 5)
        a = rng.randrange(0, 7)
        b = rng.randrange(0, 7)
        got = p.coeff((0, a, b, d))
        if (b - d) % 2:
            assert got == RF_ZERO
            continue
        want = gw_invariant(a, b, d) * Fraction(
            1, math.factorial(a) * math.factorial(b)
        )
        assert got == want


def test_divisor_property():
    # d/dz1 multiplies the degree-d layer by d
    full = potential(5, 5).series()
    p = Series(full.vs, {e: v for e, v in full.terms() if e[3]})
    dp = p.differentiate("z1")
    for e, v in p.terms():
        if e[1] == 0:
            continue
        down = (e[0], e[1] - 1, e[2], e[3])
        assert dp.coeff(down) == v * e[1]
    for e, v in dp.terms():
        d = e[3]
        if e[1] + 1 > 5:
            continue
        up = (e[0], e[1] + 1, e[2], e[3])
        assert p.coeff(up) * (e[1] + 1) == v
        assert p.coeff(e) * d == v


def test_extended_potential_binomial_reconstruction():
    zorder, uorder = 4, 3
    ext = extended_potential(2, zorder, uorder).series()
    base = potential(2, zorder + uorder).series()
    rng = random.Random(515)
    for _ in range(40):
        e0 = rng.randrange(0, 2)
        a = rng.randrange(0, zorder + 1)
        b = rng.randrange(0, uorder + 1)
        e1 = rng.randrange(0, 3)
        d = rng.randrange(0, 3)
        want = base.coeff((e0, e1, a + b, d)) * math.comb(a + b, b)
        assert ext.coeff((e0, e1, a, d, b)) == want


def test_extended_potential_caps_and_validation():
    ext = extended_potential(1, 2, 2).series()
    assert ext.vs.names == ("z0", "z1", "z2", "q", "u")
    assert ext.vs.caps == (2, 2, 2, 1, 2)
    assert ext.coeff((0, 0, 0, 1, 1)) == _LEVEL
    with pytest.raises(ValueError):
        extended_potential(1, 2, -1)
    with pytest.raises(ValueError):
        potential(-1, 2)


@pytest.mark.parametrize("qmax, zorder", [(0, 2), (1, 4), (3, 5)])
def test_potential_is_cap_exact(qmax, zorder):
    small = potential(qmax, zorder).series()
    big = potential(qmax + 2, zorder + 2).series()
    assert small == big.into(VarSet(("z0", "z1", "z2", "q"), (zorder, zorder, zorder, qmax)))


@pytest.mark.parametrize("qmax, zorder, uorder", [(0, 1, 2), (1, 3, 1), (2, 4, 3)])
def test_extended_potential_is_cap_exact(qmax, zorder, uorder):
    small = extended_potential(qmax, zorder, uorder).series()
    big = extended_potential(qmax + 1, zorder + 1, uorder + 1).series()
    caps = (zorder, zorder, zorder, qmax, uorder)
    assert small == big.into(VarSet(("z0", "z1", "z2", "q", "u"), caps))


def test_gw_invariant_values():
    assert gw_invariant(0, 1, 1) == _LEVEL
    assert gw_invariant(0, 3, 1) == _LEVEL * Fraction(-1, 4)
    assert gw_invariant(0, 1, 3) == _LEVEL * Fraction(-1, 9)
    assert gw_invariant(0, 1, 5) == _LEVEL * Fraction(1, 25)
    assert gw_invariant(0, 0, 2) == _LEVEL * Fraction(-1, 4)
    assert gw_invariant(0, 2, 2) == _LEVEL * Fraction(1, 4)
    assert gw_invariant(0, 0, 4) == _LEVEL * Fraction(1, 32)
    assert gw_invariant(2, 1, 3) == _LEVEL * Fraction(-1, 1)
    assert gw_invariant(1, 0, 2) == _LEVEL * Fraction(-1, 2)


def test_gw_invariant_divisor_factors():
    rng = random.Random(88)
    for _ in range(20):
        d = rng.randrange(1, 8)
        n2 = 2 * rng.randrange(0, 4) + (1 if d % 2 else 0)
        n1 = rng.randrange(0, 5)
        assert gw_invariant(n1, n2, d) == gw_invariant(0, n2, d) * Fraction(d) ** n1
        assert gw_invariant(0, n2, d) == _LEVEL * local_invariant(d, n2)


def test_gw_invariant_validation():
    with pytest.raises(ValueError):
        gw_invariant(0, 0, 1)
    with pytest.raises(ValueError):
        gw_invariant(0, 1, 2)
    with pytest.raises(ValueError):
        gw_invariant(0, 0, 0)
    with pytest.raises(ValueError):
        gw_invariant(-1, 1, 1)


@pytest.mark.parametrize("caps", [
    (0, 0), (0, 2), (0, 3), (0, 4), (3, 5), (2, 3, 0), (0, 4, 1), (3, 4, 2),
])
def test_cubic_and_tail_supports_are_disjoint(caps):
    pot = extended_potential(*caps) if len(caps) == 3 else potential(*caps)
    assert pot.cubic.vs == pot.tail.vs == pot.vs
    cubic = {e for e, _ in pot.cubic.terms()}
    tail = {e for e, _ in pot.tail.terms()}
    assert not cubic & tail
    # the cubic: q-degree 0, total degree at most 3; the tail: rational
    q = pot.vs.index("q")
    assert all(e[q] == 0 and sum(e) <= 3 for e in cubic)
    assert all(isinstance(r, (int, Fraction)) for _, r in pot.tail.terms())


def _resummed_tail(qmax, zorder, uorder=None):
    """The tail from the resummed route: -G, and exp(d z1) * sin or cos(d z2/2).

    In the extended case every cap is raised to zorder + uorder before the
    shift z2 -> z2 + u, which then truncates to the target caps.
    """
    work = zorder if uorder is None else zorder + uorder
    out = {(0, 0, b, 0): -c for (b,), c in g_series(work).terms()}
    z1 = Series.variable(VarSet(("z1",), (work,)), "z1")
    for d in range(1, qmax + 1):
        wave = resummed(d, work).terms()
        for (a,), ca in exp(z1.scale(d)).terms():
            for (b,), cb in wave:
                out[(0, a, b, d)] = ca * cb
    tail = Series(VarSet(("z0", "z1", "z2", "q"), (work, work, work, qmax)), out)
    if uorder is None:
        return tail
    target = VarSet(("z0", "z1", "z2", "q", "u"), (zorder, zorder, zorder, qmax, uorder))
    shift = {"z2": Series.variable(target, "z2") + Series.variable(target, "u")}
    return tail.substitute(shift, target)


@pytest.mark.parametrize("caps", [
    (0, 6), (1, 1), (4, 0), (3, 5), (6, 9), (2, 3, 0), (3, 4, 2), (1, 2, 5),
    (2, 0, 5), (3, 1, 6),
])
def test_tail_equals_the_resummed_route_term_by_term(caps):
    pot = extended_potential(*caps) if len(caps) == 3 else potential(*caps)
    want = _resummed_tail(*caps)
    assert pot.tail.vs == want.vs
    assert dict(pot.tail.terms()) == dict(want.terms())


def _divisor_times_weight_tail(vs):
    """The tail with each z1 column as the `Fraction` product d^a/a! * weight."""
    z1_cap, z2_cap, qmax = vs.caps[1:4]
    u_cap = sum(vs.caps[4:])
    top = z2_cap + u_cap
    out = {}
    for d in range(qmax + 1):
        if d:
            row = [(n, local_invariant(d, n)) for n in range(d % 2, top + 1, 2)]
        else:
            row = [(n, -c * math.factorial(n)) for (n,), c in g_series(top).terms()]
        row = [((b, d, n - b)[:len(vs.caps) - 2],
                v / (math.factorial(b) * math.factorial(n - b)))
               for n, v in row for b in range(max(0, n - u_cap), min(n, z2_cap) + 1)]
        out.update(((0, 0) + e, w) for e, w in row)
        for a in range(1, z1_cap + 1 if d else 1):
            divisor = Fraction(d**a, math.factorial(a))
            for e, w in row:
                out[(0, a) + e] = divisor * w
    return Series(vs, out)


#: the caps of the benchmark's tables, plain and extended, and two with a
#: small z cap and a large u cap
_TABLE_CAPS = [(8, 17), (9, 16), (12, 14), (13, 13), (14, 13), (16, 12), (18, 11),
               (5, 7, 5), (6, 7, 4), (5, 8, 4), (6, 8, 3), (6, 6, 5), (4, 7, 6),
               (2, 0, 5), (3, 1, 6)]


def _table_vs(caps):
    q, z, *u = caps
    return VarSet(("z0", "z1", "z2", "q", "u")[:4 + len(u)], (z, z, z, q, *u))


@pytest.mark.parametrize("caps", _TABLE_CAPS)
def test_tail_from_integer_products_equals_the_fraction_products(caps):
    vs = _table_vs(caps)
    got = potentials._tail_pairs(vs)
    want = dict(_divisor_times_weight_tail(vs).terms())
    assert got.keys() == want.keys()
    for e, (n, m) in got.items():
        assert type(n) is int and type(m) is int
        assert n and m > 0 and math.gcd(n, m) == 1
        assert (n, m) == (want[e].numerator, want[e].denominator)


@pytest.mark.parametrize("caps", _TABLE_CAPS + [(0, 0), (0, 4), (1, 1), (4, 0), (0, 0, 2)])
def test_tail_pairs_come_in_table_order(caps):
    """The table writer sorts no tail term: the pairs are built by total
    degree and then by exponent, as `Series.sorted_terms` orders them."""
    pairs = potentials._tail_pairs(_table_vs(caps))
    assert list(pairs) == sorted(pairs, key=lambda e: (sum(e), e))


def test_extended_potential_shifts_only_the_cubic(monkeypatch):
    """The tail is written on the target caps; `substitute` sees the cubic alone."""
    tails, shifted = [], []
    build, substitute = potentials._tail_pairs, Series.substitute
    monkeypatch.setattr(potentials, "_tail_pairs", lambda vs: tails.append(vs) or build(vs))
    monkeypatch.setattr(
        Series, "substitute", lambda self, *a: shifted.append(self.vs) or substitute(self, *a)
    )
    pot = extended_potential(2, 4, 3)
    assert tails == [VarSet(("z0", "z1", "z2", "q", "u"), (4, 4, 4, 2, 3))] == [pot.vs]
    assert shifted == [classical_part().vs]
