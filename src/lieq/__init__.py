"""Exact computational algebra for Lie brackets, their deformations, and
q-deformed ladder-operator calculus.

Everything runs over the Gaussian rationals Q(i) (module ``exactnum``), so
all verification results are exact yes/no answers, never floating-point
residuals.  The only floating-point corner is the orthonormal matrix mode
of module ``fock``, which is kept strictly separate from the exact paths.
"""

from .exactnum import GaussRat
from .liealg import LieAlgebra, Subspace

__version__ = "0.1.0"

__all__ = ["GaussRat", "LaurentPoly", "LieAlgebra", "Subspace", "__version__"]


def __getattr__(name: str):
    # lieq.LaurentPoly, read from lieq.laurent when first asked for, so that
    # importing the package does not load the q-calculus
    if name == "LaurentPoly":
        from .laurent import LaurentPoly

        return LaurentPoly
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
