"""Exact genus-0 Gromov-Witten potential of local P(1,2).

Everything is exact: scalars live in the cyclotomic field Q(zeta12),
coefficients of the potential are rational functions in the torus weights
t1, t2, and potentials are truncated multivariate power series with a
declared cap per variable.

The package builds the equivariant genus-0 potential of the total space of
O(-3) over the weighted projective line P(1,2) in closed form,
re-derives its localization building blocks (edge, vertex and node factors
in an auxiliary torus weight), and verifies the change-of-variable
identities tying the potential to the neighbouring geometries of its
crepant resolution chain, coefficient by coefficient.
"""

from .cyclotomic import Cyclo, zeta_pow
from .ratfun import Poly2, RatFun
from .mpseries import Series, VarSet

__version__ = "0.1.0"

__all__ = [
    "Cyclo",
    "Poly2",
    "RatFun",
    "Series",
    "VarSet",
    "zeta_pow",
    "__version__",
]
