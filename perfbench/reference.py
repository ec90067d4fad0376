"""Reference values for the benchmark, computed apart from localp12.

Plain `Fraction` arithmetic and closed forms only; nothing here imports the
package under test.  A coefficient of the potential is a rational function
of the torus weights and is kept as a pair (num, den) of polynomials, each a
dict {(e1, e2): Fraction} for t1^e1 t2^e2 without zero entries.  The pair
is in the package's canonical form (the only denominators are 1 and t1*t2,
both monic), so equality of pairs is equality of rational functions.

    python3 perfbench/reference.py      # runs `self_check`, prints "ok"
"""

import math
from fractions import Fraction

ONE = {(0, 0): Fraction(1)}
T1_T2 = {(1, 1): Fraction(1)}


def _poly(**coeffs):
    """Polynomial from keyword monomials c, t1, t2 (zeros dropped)."""
    spots = {"c": (0, 0), "t1": (1, 0), "t2": (0, 1)}
    return {spots[k]: Fraction(v) for k, v in coeffs.items() if v}


def _level(c):
    """(t1 + t2) * c over 1."""
    c = Fraction(c)
    return (_poly(t1=c, t2=c), ONE)


def scale(coeff, c):
    num, den = coeff
    return ({e: v * c for e, v in num.items()}, den)


#: The six degree-0 three-point values of the paper, by sorted class triple.
#: Triples with an odd number of S vanish, and so does <1,1,H>.
DEGREE0 = {
    ("1", "1", "1"): (_poly(c=Fraction(1, 3)), T1_T2),
    ("1", "H", "H"): (_poly(c=Fraction(-2, 3)), ONE),
    ("H", "H", "H"): (_poly(t1=Fraction(-2, 3), t2=Fraction(-4, 3)), ONE),
    ("1", "S", "S"): (_poly(c=Fraction(1, 2)), ONE),
    ("H", "S", "S"): (_poly(t1=Fraction(-1, 2)), ONE),
}
ZERO = ({}, ONE)
CLASSES = ("1", "H", "S")


def degree0(classes):
    key = tuple(sorted(classes, key=CLASSES.index))
    return DEGREE0.get(key, ZERO)


# -- degree zero tail ---------------------------------------------------


def zigzag_numbers(n):
    """Euler zigzag numbers E_0..E_n by the Seidel boustrophedon.

    E_k for odd k are the tangent numbers: tan x = sum E_k x^k / k!.
    """
    row = [1]
    out = [1]
    for k in range(1, n + 1):
        new = [0]
        for j in range(1, k + 1):
            new.append(new[-1] + row[k - j])
        row = new
        out.append(row[-1])
    return out


def g_coefficients(order):
    """{k: coefficient of z2^k} of G, the triple antiderivative of tan(z2/2)/2.

    The z2^(m+3) coefficient is E_m / (2^(m+1) (m+3)!) for odd m.
    """
    zig = zigzag_numbers(max(order - 3, 0))
    return {
        m + 3: Fraction(zig[m], 2 ** (m + 1) * math.factorial(m + 3))
        for m in range(1, order - 2, 2)
    }


# -- positive degree ----------------------------------------------------


def quantum_sign(d):
    return (-1) ** ((d - 1) // 2) if d % 2 else (-1) ** (d // 2)


def trig_coefficient(d, k):
    """z2^k coefficient of sin(d z2/2) for odd d, of cos(d z2/2) for even d."""
    if (k - d) % 2:
        return Fraction(0)
    return (-1) ** (k // 2) * Fraction(d, 2) ** k / math.factorial(k)


def closed_form(d, n):
    """Degree-d local invariant with n stacky insertions, without (t1 + t2):
    n! times the z2^n coefficient of sign(d) 2/d^3 sin or cos of d z2/2."""
    return quantum_sign(d) * Fraction(2, d**3) * math.factorial(n) * trig_coefficient(d, n)


def invariant(d, n1, n2):
    """Degree-d invariant with n1 divisor and n2 stacky insertions: each
    divisor insertion is a factor d."""
    return _level(Fraction(d) ** n1 * closed_form(d, n2))


# -- tables ---------------------------------------------------------------


def potential_table(qmax, zorder):
    """{(z0, z1, z2, q): coeff} of the potential truncated to the caps."""
    table = {}
    for c0 in range(4):
        for c1 in range(4 - c0):
            c2 = 3 - c0 - c1
            if max(c0, c1, c2) > zorder:
                continue
            value = degree0(("1",) * c0 + ("H",) * c1 + ("S",) * c2)
            if value[0]:
                weight = Fraction(1, math.factorial(c0) * math.factorial(c1) * math.factorial(c2))
                table[(c0, c1, c2, 0)] = scale(value, weight)
    for k, g in g_coefficients(zorder).items():
        table[(0, 0, k, 0)] = _level(-g)
    for d in range(1, qmax + 1):
        lead = quantum_sign(d) * Fraction(2, d**3)
        for a in range(zorder + 1):
            da = lead * Fraction(d**a, math.factorial(a))
            for k in range(d % 2, zorder + 1, 2):
                table[(0, a, k, d)] = _level(da * trig_coefficient(d, k))
    return table


def extended_table(qmax, zorder, uorder):
    """{(z0, z1, z2, q, u): coeff}: z2 -> z2 + u in the potential at z-cap
    zorder + uorder, truncated to the caps."""
    table = {}
    for (a, b, k, d), coeff in potential_table(qmax, zorder + uorder).items():
        if a > zorder or b > zorder:
            continue
        for j in range(min(k, uorder) + 1):
            if k - j <= zorder:
                table[(a, b, k - j, d, j)] = scale(coeff, math.comb(k, j))
    return table


def poly_value(poly, t1, t2):
    return sum((c * t1**e1 * t2**e2 for (e1, e2), c in poly.items()), Fraction(0))


def evaluate(table, names, point):
    """Exact value of a table at a rational point; unset variables are 0."""
    t1, t2 = point["t1"], point["t2"]
    total = Fraction(0)
    for exp, (num, den) in table.items():
        term = poly_value(num, t1, t2) / poly_value(den, t1, t2)
        for name, e in zip(names, exp):
            if e:
                term *= point.get(name, Fraction(0)) ** e
        total += term
    return total


def self_check():
    """Pin the two values every other reference value hangs on."""
    g = g_coefficients(8)
    if min(g) != 4 or g[4] != Fraction(1, 96):
        raise AssertionError("G must start at z2^4 with 1/96, got %r" % (g,))
    if invariant(3, 0, 3) != _level(Fraction(1, 4)):
        raise AssertionError("invariants --d 3 --n2 3 must be t1/4 + t2/4")
    if zigzag_numbers(7)[1::2] != [1, 2, 16, 272]:
        raise AssertionError("tangent numbers are off")


if __name__ == "__main__":
    self_check()
    print("ok")
