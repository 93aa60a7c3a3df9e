"""Exact Frobenius-Schur indicators for the bismash product k^{S_{n-1}} # kC_n.

The symmetric group factorizes as S_n = C_n * S_{n-1}, and the induced
matched-pair actions of the cyclic group and the point stabilizer on
each other assemble into a semisimple Hopf algebra.  This package
computes the Frobenius-Schur indicators of its irreducible modules
exactly, pairing a congruence-arithmetic fast path with brute-force
oracles, and provides the counting tower (stabilizer censuses,
involution counts, orbit classifications, indicator censuses) together
with stabilizer-constrained enumeration that sidesteps (n-1)!-sized
scans.
"""

from .perm import (
    Permutation,
    compose,
    inverse,
    from_cycles,
    to_cycles,
    fixed_points,
    is_involution,
    parse_permutation,
)
from .matched_pair import (
    StabilizerInfo,
    Orbit,
    InversionData,
    act_left,
    act_right,
    factorize,
    stabilizer,
    orbit,
    inversion_data,
    inv_transporter_set,
    divisors,
)
from .hopf import (
    BasisElement,
    TensorSum,
    multiply,
    antipode,
    comultiply,
    counit,
)
from .cyclotomic import CyclotomicAccumulator, cyclotomic_polynomial
from .indicator import (
    IrrepDescriptor,
    indicator_reduced,
    indicator_bruteforce,
    group_indicator_cn,
    indicator_table,
    tally_indicators,
)
from .counting import (
    CountContext,
    count_M,
    count_T,
    count_R,
    count_C,
    count_X,
    count_O,
    count_O_j,
    count_I_odd,
    count_I_t2,
    euler_phi,
    omega,
    involution_count,
    ratio_report,
)
from .construct import (
    RemainderSeed,
    WorkloadExceeded,
    build_from_seed,
    extract_seed,
    enumerate_stabilized,
    enumerate_exact_stabilizer,
    enumerate_involutions,
    enumerate_involutions_fixed,
    enumerate_orbit_reps,
    default_max_work,
)

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "compose",
    "inverse",
    "from_cycles",
    "to_cycles",
    "fixed_points",
    "is_involution",
    "parse_permutation",
    "StabilizerInfo",
    "Orbit",
    "InversionData",
    "act_left",
    "act_right",
    "factorize",
    "stabilizer",
    "orbit",
    "inversion_data",
    "inv_transporter_set",
    "divisors",
    "BasisElement",
    "TensorSum",
    "multiply",
    "antipode",
    "comultiply",
    "counit",
    "CyclotomicAccumulator",
    "cyclotomic_polynomial",
    "IrrepDescriptor",
    "indicator_reduced",
    "indicator_bruteforce",
    "group_indicator_cn",
    "indicator_table",
    "tally_indicators",
    "CountContext",
    "count_M",
    "count_T",
    "count_R",
    "count_C",
    "count_X",
    "count_O",
    "count_O_j",
    "count_I_odd",
    "count_I_t2",
    "euler_phi",
    "omega",
    "involution_count",
    "ratio_report",
    "RemainderSeed",
    "WorkloadExceeded",
    "build_from_seed",
    "extract_seed",
    "enumerate_stabilized",
    "enumerate_exact_stabilizer",
    "enumerate_involutions",
    "enumerate_involutions_fixed",
    "enumerate_orbit_reps",
    "default_max_work",
]
