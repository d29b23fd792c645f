"""seqrel: exact linear recurrence relations of multidimensional sequences.

Two algorithm families (sequence-driven shift-register synthesis and
multi-Hankel linear algebra), a rank-based hybrid, cross-checks, and a
query/operation benchmark harness, all over exact coefficient fields.
"""

from __future__ import annotations

from .bms import (
    run_bms,
    run_bms_linalg,
    run_bms_tweaked,
    stopping_bound,
)
from .compare import (
    ComparisonReport,
    FamilySpec,
    bench,
    bench_point,
    compare_algorithms,
    gorenstein_test,
    is_zero_dimensional,
    make_family,
    monomials_up_to_degree,
    verify_result,
    verify_shift,
)
from .errors import BoundExceededError, NotGroebnerError, PositiveDimensionError, SeqrelError
from .field import QQ, Field, FpField
from .monomials import (
    MonomialOrder,
    enumerate_up_to,
    format_monomial,
    parse_monomial,
    parse_order,
)
from .poly import Poly, format_poly, inter_reduce, parse_poly, staircase_of
from .ranksolver import run_rank_solver
from .result import Relation, Result
from .sequences import (
    GENERATOR_NAMES,
    IdealSequences,
    SequenceOracle,
    make_generator,
    random_from_lms,
    table_oracle,
)
from .sfglm import run_sfglm, run_sfglm_tweaked

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError",
    "ComparisonReport",
    "FamilySpec",
    "Field",
    "FpField",
    "GENERATOR_NAMES",
    "IdealSequences",
    "MonomialOrder",
    "NotGroebnerError",
    "Poly",
    "PositiveDimensionError",
    "QQ",
    "Relation",
    "Result",
    "SeqrelError",
    "SequenceOracle",
    "bench",
    "bench_point",
    "compare_algorithms",
    "enumerate_up_to",
    "format_monomial",
    "format_poly",
    "gorenstein_test",
    "inter_reduce",
    "is_zero_dimensional",
    "make_family",
    "make_generator",
    "monomials_up_to_degree",
    "parse_monomial",
    "parse_order",
    "parse_poly",
    "random_from_lms",
    "run_bms",
    "run_bms_linalg",
    "run_bms_tweaked",
    "run_rank_solver",
    "run_sfglm",
    "run_sfglm_tweaked",
    "stopping_bound",
    "staircase_of",
    "table_oracle",
    "verify_result",
    "verify_shift",
]
