"""Nearest-neighbor Z^2 subshifts of finite type: admissibility,
single-site fillability, shell-by-shell configuration repair,
penalty-potential perturbations, a quantitative verification harness,
and strip transfer-matrix entropy."""

from .entropy import (
    ConvergenceError,
    EmptySubshiftError,
    StripEntropyResult,
    StripTransfer,
    strip_entropy,
)
from .harness import (
    DEFAULT_CAP,
    DEFAULT_EPSILON,
    ExperimentResult,
    TrialConfig,
    TrialReport,
    check_average_bounds,
    check_shell_gaps,
    check_total_gap,
    corrupt,
    run_experiment,
    run_trial,
    sample_admissible,
)
from .lattice import (
    MetricResult,
    Rect,
    Site,
    SparsePatch,
    Window,
    metric_exact,
    parse_window,
    render_window,
)
from .potentials import (
    PerturbedPotential,
    RangeOnePerturbation,
    birkhoff_sum,
    certify_norm_gap,
    check_levelset_lipschitz,
    lipschitz_norm_exact,
    lipschitz_seminorm_exact,
    sample_perturbation,
)
from .repair import (
    RepairResult,
    Run,
    ShellDecomposition,
    changed_sites,
    fill_segment,
    repair,
)
from .sft import (
    BadSites,
    NnSft,
    SftParseError,
    Violation,
    bad_sites,
    check_ssf,
    checkerboard,
    find_safe_symbols,
    full_shift,
    hard_square,
    load_sft,
    local_implies_global,
    parse_sft,
    render_sft,
    violations,
)

__version__ = "0.1.0"
