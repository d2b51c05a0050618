"""Self-orthogonal and self-dual codes over finite commutative chain rings.

The package is organised bottom-up:

- galois: Galois rings GR(2^s, m), their residue fields, Teichmueller lifts
- chain: chain rings built on top of a Galois ring, u-adic digit expansions
- fieldcodes: linear codes over the residue field (RREF, double evenness,
  the subspace walks)
- ringcodes: codes over the chain ring in standard form, torsion codes,
  truncation, duality, and the deep orthogonality test
- lifting: nested residue-field chains and the stage-by-stage construction
  of self-orthogonal codes, with per-stage counting formulas
- enumeration: closed-form counts by type and totals over all types
- oracle: exhaustive brute-force counters used to cross-check every formula
- tables: frozen reference counts for the four preset rings, and the one
  closed-form-versus-recount comparison (CountReport, compare_count,
  reproduce_table)
- cli: the ``chaincodes`` command-line interface
"""

from .chain import (
    ChainRingSpec,
    format_ring_spec,
    make_ring,
    parse_ring_spec,
    preset,
    to_u_adic,
    u_valuation,
)
from .enumeration import count_sd_type, count_so_type, total_counts
from .lifting import (
    SOChain,
    construct_self_orthogonal,
    enumerate_so_chains,
    extract_chain,
    lift_once,
    stage_count_formula,
    stage_plan,
    validate_chain,
)
from .oracle import BudgetError, OracleBudget, brute_force_code_count
from .ringcodes import (
    RingCode,
    dual_code_ring,
    is_self_dual_ring,
    is_self_orthogonal_ring,
    make_code,
    satisfies_deep_orthogonality,
    torsion_code,
    truncate_code,
)
from .tables import GOLDEN_TABLES, CountReport, reproduce_table

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ChainRingSpec",
    "CountReport",
    "GOLDEN_TABLES",
    "OracleBudget",
    "RingCode",
    "SOChain",
    "brute_force_code_count",
    "construct_self_orthogonal",
    "count_sd_type",
    "count_so_type",
    "dual_code_ring",
    "enumerate_so_chains",
    "extract_chain",
    "format_ring_spec",
    "is_self_dual_ring",
    "is_self_orthogonal_ring",
    "lift_once",
    "make_code",
    "make_ring",
    "parse_ring_spec",
    "preset",
    "reproduce_table",
    "satisfies_deep_orthogonality",
    "stage_count_formula",
    "stage_plan",
    "to_u_adic",
    "torsion_code",
    "total_counts",
    "truncate_code",
    "u_valuation",
    "validate_chain",
]
