"""Two-group multiple-endpoint hypothesis tests for clinical-trial data.

Procedures: O'Brien rank-sum global test, the hierarchical pairwise
sum-of-scores test (generalized Gehan-Wilcoxon), the win ratio, a
multivariate-rank quadratic-form test and a weighted global U-statistic
framework, all with seeded permutation inference, plus a correlated-endpoint
trial simulator and a CLI (``multiendpoint analyze | summarize | simulate``).
"""

from .errors import (
    ConfigError,
    CsvParseError,
    EmptyAfterExclusionError,
    EmptyGroupError,
    ExactTooLargeError,
    InvalidContrastError,
    InvalidCorrelationError,
    InvalidDataError,
    MissingColumnError,
    MultiEndpointError,
    SchemaMismatchError,
)
from .global_u import endpoint_weights, global_u_test
from .methods import METHOD_NAMES, run_method
from .pairwise_tests import fs_test, win_ratio_test
from .rank_tests import RankMatrix, multirank_test, obrien_test, rank_matrix
from .resampling import PermutationPlan, derive_replicate_seed
from .results import InferenceMode, TestResult
from .simgen import (
    BinaryModel,
    ContinuousModel,
    RejectionReport,
    SimConfig,
    SurvivalModel,
    error_rate_study,
    simulate_trial,
)
from .trial_data import (
    DEFAULT_CONTRAST,
    ColumnMapping,
    Contrast,
    DerivationConfig,
    Direction,
    EndpointKind,
    EndpointSpec,
    SummaryTable,
    TrialDataset,
    baseline_summary,
    derive_endpoints,
    load_trial_csv,
    parse_contrast,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
