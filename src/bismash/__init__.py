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

Importing the package loads only the counting tower and the workload
guard, both pure Python.  Every other layer loads when one of its names
is first read: the permutation, matched-pair and cyclotomic layers
(pure Python) and the array engine (``bulk``) with the layers built on
it (``hopf``, ``indicator``, ``construct``).  So ``bismash count``
(ratios included) imports neither numpy nor the scalar layers, while
``bismash indicators`` and ``bismash verify`` import them when their
work starts.
"""

from importlib import import_module

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
    divisors,
    euler_phi,
    omega,
    involution_count,
    ratio_report,
)
from .guard import WorkloadExceeded, default_max_work

# The names below come from the other modules; each module is imported
# when one of its names is first read, and the name is then bound here,
# so later reads are plain attribute lookups.
_LAZY = {
    "perm": (
        "Permutation",
        "compose",
        "inverse",
        "from_cycles",
        "to_cycles",
        "fixed_points",
        "is_involution",
        "parse_permutation",
    ),
    "matched_pair": (
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
    ),
    "cyclotomic": ("CyclotomicAccumulator", "cyclotomic_polynomial"),
    "hopf": ("BasisElement", "TensorSum", "multiply", "antipode", "comultiply", "counit"),
    "indicator": (
        "IrrepDescriptor",
        "indicator_reduced",
        "indicator_bruteforce",
        "group_indicator_cn",
        "indicator_table",
        "tally_indicators",
    ),
    "construct": (
        "RemainderSeed",
        "build_from_seed",
        "extract_seed",
        "enumerate_stabilized",
        "enumerate_exact_stabilizer",
        "enumerate_involutions",
        "enumerate_involutions_fixed",
        "enumerate_orbit_reps",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
# The lazily loaded submodules; importing one binds it here.
_SUBMODULES = (*_LAZY, "bulk")


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
