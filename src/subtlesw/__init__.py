"""Symbolic calculator for subtle Stiefel-Whitney classes.

Bigraded polynomial rings over F2 with a weight generator tau, Steenrod
squares via the Wu and Cartan rules, Groebner bases with exact bigraded
Hilbert series, regular-sequence certification, and the classifying-space
presentations and tables built on top of them.
"""

__version__ = "0.1.0"

from .poly import (
    INHOMOGENEOUS,
    MAX_EXPONENT,
    ZERO_DEGREE,
    Bidegree,
    ExponentOverflow,
    ParseError,
    Poly,
    Ring,
    RingError,
    RingMap,
    bo_ring,
    bo_top_ring,
    bso_ring,
    bso_top_ring,
    parse_poly,
)
from .grobner import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    GroebnerBasis,
    HilbertSeries,
    InhomogeneousError,
    RegularSequenceChecker,
    groebner_basis,
    hilbert_series,
    ideal_member,
    is_regular_sequence,
    krull_dimension,
    normal_form,
)
from .steenrod import (
    SteenrodContext,
    ThomModuleElement,
    binom_mod2,
    bo_context,
    bo_top_context,
    bso_context,
    bso_top_context,
    cartan,
    sq,
    theta,
    thom_sq,
)
from .formsf2 import (
    BilinearFormF2,
    Field2e,
    Subspace,
    field_modulus,
    form_ring,
    frobenius_stable,
    h_expected,
    h_of,
    quillen_form,
    right_radical,
    twisted_sequence,
)
from .spaces import (
    FAMILIES,
    Presentation,
    TorsorRow,
    g2_gysin_check,
    h_row,
    h_map,
    i_map,
    j_lower_bound,
    k_computed,
    k_expected,
    k_row,
    poincare,
    present,
    t_map,
    torsor_relations,
    verify_theta,
)
# Only perfbench/ reads these two; they go with its next change (ROADMAP.md, "Delete numpy").
# No computation uses numpy, so its body runs only at the first read of one of
# its attributes; without numpy, nothing is registered.


def _register_lazily(name):
    import importlib.util
    import sys

    spec = None if name in sys.modules else importlib.util.find_spec(name)
    if spec is None:
        return
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


_register_lazily("numpy")
from . import backend

__all__ = [name for name in dir() if not name.startswith("_")]
