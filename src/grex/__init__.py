"""grex: exceptional collections on Grassmannians, verified at desk scale.

Box-diagram combinatorics, Littlewood-Richardson products, Bott-Borel-Weil
cohomology of twisted Schur bundles, Kapranov/Fonarev Lefschetz collections,
the K-theory of mutations and residual classes, and staircase resolutions,
with a CLI that emits machine-readable verification reports.
"""

from .bott import BottOutcome, ExtTable, TwistedSchur, euler_char, ext_table
from .diagrams import (
    Box,
    BoxedDiagram,
    Orbit,
    cyclic_step,
    enumerate_diagrams,
    is_minimal_upper_triangular,
    is_strictly_upper_triangular,
    is_upper_triangular,
    non_minimal_upper,
    orbit_of,
    orbits,
    residual_rank,
    theta,
)
from .ktheory import (
    KClass,
    ResidualReport,
    basis,
    class_of,
    euler_pairing,
    fullness_determinant,
    is_zero_combination,
    kapranov_gram,
    mutate_left,
    residual_report,
    twist_class,
)
from .lefschetz import (
    CollectionObject,
    GramResult,
    LefschetzCollection,
    Violation,
    fenced_block,
    fonarev,
    gram,
    kapranov,
    primitive_block,
)
from .schur import dimension, dualize, lr_product, twist
from .staircase import (
    G48Report,
    MembershipLedger,
    StaircaseComplex,
    StaircaseTerm,
    appendix_table_check,
    build_staircase,
    build_theta_staircase,
    g48_sequence_check,
    is_k_exact,
    membership_ledger,
)

__version__ = "0.1.0"
