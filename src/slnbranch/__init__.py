"""Level-1 affine sl(n) branching functions and Jantzen-Seitz combinatorics.

Four independent evaluation routes for the same branching coefficients
(the path configuration sum, chain-congruence enumeration, crystal
eps-profiles, and a quadratic-form lattice sum) plus n-core classification
of the partitions whose restriction stays irreducible.
"""

from .branching import (
    branching_series,
    fow_index,
    in_fow,
    in_path_set,
    verify_fow_theorem,
)
from .cores import (
    abacus_display,
    block_series,
    is_n_core,
    is_rectangle_le_n,
    n_core,
    n_cores,
    n_weight,
)
from .crystal import (
    CrystalGraph,
    build_component,
    e_tilde,
    eps_phi,
    epsilon_vector,
    f_tilde,
)
from .jantzen_seitz import (
    chi_by_branching,
    chi_direct,
    is_js,
    is_js_by_crystal,
    js_set,
    verify_rectangle_cores,
)
from .partitions import (
    Partition,
    as_partition,
    exponent_form,
    format_partition,
    is_n_regular,
    parse_partition,
    partitions_of,
    partitions_up_to,
    residue_counts,
)
from .qseries import (
    QuadraticFormData,
    TruncatedSeries,
    canonical_pair,
    fermionic_series,
    inv_pochhammer,
    lattice_points,
    lattice_sum,
)
from .report import VerificationReport
from .verify import run_suites, verify_cores, verify_crystal, verify_js, verify_methods
from .weights import format_weight, weight_of

__all__ = [
    "CrystalGraph",
    "Partition",
    "QuadraticFormData",
    "TruncatedSeries",
    "VerificationReport",
    "abacus_display",
    "as_partition",
    "block_series",
    "branching_series",
    "build_component",
    "canonical_pair",
    "chi_by_branching",
    "chi_direct",
    "e_tilde",
    "eps_phi",
    "epsilon_vector",
    "exponent_form",
    "f_tilde",
    "fermionic_series",
    "format_partition",
    "format_weight",
    "fow_index",
    "in_fow",
    "in_path_set",
    "inv_pochhammer",
    "is_js",
    "is_js_by_crystal",
    "is_n_core",
    "is_n_regular",
    "is_rectangle_le_n",
    "js_set",
    "lattice_points",
    "lattice_sum",
    "n_core",
    "n_cores",
    "n_weight",
    "parse_partition",
    "partitions_of",
    "partitions_up_to",
    "residue_counts",
    "run_suites",
    "verify_cores",
    "verify_crystal",
    "verify_fow_theorem",
    "verify_js",
    "verify_methods",
    "verify_rectangle_cores",
    "weight_of",
]
