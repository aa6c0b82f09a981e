"""Bigraded Hilbert functions of schemes of equal-multiplicity fat points on
the product of two projective lines, with closed forms where they are known
and an exact finite-field rank oracle everywhere.
"""

from .core import (
    BiDegree,
    HFValue,
    Source,
    UniformFatPoints,
    binom,
    critical_counts,
    hf_value,
    virtual_dim_bi,
)
from .formulas import (
    defective_family,
    hf_m_ge_b,
    hf_uniform,
    table_region,
)
from .horace import (
    CastelnuovoResult,
    ChainReport,
    HoraceReport,
    castelnuovo_check,
    chain_params,
    diff_slice,
    differential_residue,
    horace_verify,
    residue_corner,
    residue_line,
    specialize_triple,
    trace_line,
    verify_chain,
)
from .oracle import (
    ALT_PRIME,
    DEFAULT_PRIME,
    OracleConfig,
    OracleConfigError,
    check_reduction,
    hf_biproj,
    hf_plane,
    hf_trace_line,
    rank_mod_p,
)
from .schemes import PlaneScheme, SliceProfile, reduce_to_plane

__version__ = "0.1.0"
