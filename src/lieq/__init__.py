"""Exact computational algebra for Lie brackets, their deformations, and
q-deformed ladder-operator calculus.

Everything runs over the Gaussian rationals Q(i) (module ``exactnum``), so
all verification results are exact yes/no answers, never floating-point
residuals.  The only floating-point corner is the orthonormal matrix mode
of module ``fock``, which is kept strictly separate from the exact paths.
"""

from .exactnum import GaussRat

__version__ = "0.1.0"

__all__ = ["GaussRat", "LaurentPoly", "LieAlgebra", "Subspace", "__version__"]


def __getattr__(name: str):
    # lieq.LaurentPoly, lieq.LieAlgebra and lieq.Subspace, read from their
    # modules when first asked for, so that importing the package (and
    # lieq.cli) loads neither the q-calculus nor the Lie-algebra layers
    if name == "LaurentPoly":
        from .laurent import LaurentPoly

        return LaurentPoly
    if name in ("LieAlgebra", "Subspace"):
        from . import liealg

        return getattr(liealg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
