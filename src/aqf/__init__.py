"""Adaptive quotient filters with a reverse map, plus yes/no list pairs.

The slot array answers membership from fingerprint prefixes; the reverse
map remembers which key owns each fingerprint so false positives can be
corrected in place by extending the offender.  On top of that sit
mergeable set operations, a static yes/no filter construction with
provable adaptivity budgets, and a workload workbench.
"""

from .core import FrozenIndex, SlotArray, pack_minirun_id
from .errors import (
    AdaptationExhaustedError,
    ConfigMismatchError,
    ConstructionFailedError,
    FilterError,
    FilterFullError,
    FormatError,
    InvalidConfigError,
    NotFoundError,
    StateCorruptionError,
    UnsortedInputError,
)
from .filter import AdaptiveFilter, LookupResult, Policy
from .hashing import (
    FilterConfig,
    HashStream,
    extension_chunk,
    split,
    split_batch,
)
from .revmap import ReverseMap
from .setops import bulk_load, merge, rebuild
from .workbench import (
    LatencyModel,
    WorkloadSpec,
    fill_to_load,
    gen_workload,
    make_probe_sets,
    measure_fpr,
    parse_csv,
    report_csv,
    run_adaptation_trace,
    run_adversary,
    run_churn,
)
from .yesno import (
    NO,
    YES,
    YesNoFilter,
    YesNoParams,
    adaptivity_budget,
    build_static,
    expected_adaptivity_bits,
    lower_bound_bits,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationExhaustedError",
    "AdaptiveFilter",
    "ConfigMismatchError",
    "ConstructionFailedError",
    "FilterConfig",
    "FilterError",
    "FilterFullError",
    "FormatError",
    "FrozenIndex",
    "HashStream",
    "InvalidConfigError",
    "LatencyModel",
    "LookupResult",
    "NO",
    "NotFoundError",
    "Policy",
    "ReverseMap",
    "SlotArray",
    "StateCorruptionError",
    "UnsortedInputError",
    "WorkloadSpec",
    "YES",
    "YesNoFilter",
    "YesNoParams",
    "adaptivity_budget",
    "build_static",
    "bulk_load",
    "expected_adaptivity_bits",
    "extension_chunk",
    "fill_to_load",
    "gen_workload",
    "lower_bound_bits",
    "make_probe_sets",
    "measure_fpr",
    "merge",
    "pack_minirun_id",
    "parse_csv",
    "rebuild",
    "report_csv",
    "run_adaptation_trace",
    "run_adversary",
    "run_churn",
    "split",
    "split_batch",
]
