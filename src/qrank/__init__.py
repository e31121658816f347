"""Exact q-series kernel for overpartition rank statistics.

Layers, bottom up: cyclotomic field arithmetic, truncated Laurent/Puiseux
series, theta blocks j(z;q), Appell-Lerch machinery, overpartition
combinatorics and rank deviations, and a verification catalog with a CLI.
"""

from .appell import (
    appell_m,
    delta,
    lam,
    o_d_at_minus_one,
    o_d_direct,
    o_d_original,
    psi,
    s_bar_d,
    s_d_direct,
)
from .catalog import CATALOG, run_suite, theta_shift_check, verify
from .cyclotomic import Cyclotomic, cyclo_polynomial, get_field, root_of_unity, totient
from .errors import (
    FractionalExponents,
    InverseOfZero,
    NonGenericParameter,
    QRankError,
    UnknownName,
    UnsupportedCase,
)
from .named import build_named_series, named_series_names
from .overpartitions import (
    Overpartition,
    RankTables,
    deviation_by_definition,
    deviation_by_root_average,
    deviation_pair_by_formula,
    enumerate_overpartitions,
    p_bar,
    p_bar_series,
    rank_tables,
    single_deviation,
)
from .reports import IdentityReport
from .series import Monomial, QSeries, computed_to, eta_J, eta_quotient
from .theta import theta_j, theta_triple_product

__all__ = [
    "Cyclotomic", "cyclo_polynomial", "get_field", "root_of_unity", "totient",
    "Monomial", "QSeries", "computed_to", "eta_J", "eta_quotient",
    "theta_j", "theta_shift_check", "theta_triple_product",
    "appell_m", "delta", "psi", "lam",
    "o_d_direct", "o_d_original", "o_d_at_minus_one", "s_bar_d", "s_d_direct",
    "Overpartition", "RankTables", "enumerate_overpartitions",
    "p_bar", "p_bar_series", "rank_tables",
    "deviation_by_definition", "deviation_by_root_average",
    "deviation_pair_by_formula", "single_deviation",
    "build_named_series", "named_series_names",
    "CATALOG", "verify", "run_suite", "IdentityReport",
    "QRankError", "InverseOfZero", "NonGenericParameter",
    "FractionalExponents", "UnsupportedCase", "UnknownName",
]
