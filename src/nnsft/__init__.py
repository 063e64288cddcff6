"""Nearest-neighbor Z^2 subshifts of finite type: admissibility,
single-site fillability, shell-by-shell configuration repair,
penalty-potential perturbations, a quantitative verification harness,
and strip transfer-matrix entropy.

Importing nnsft starts numpy's BLAS with one thread, whatever
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS say: the only
BLAS call, the strip matvec's tensordot, has an inner dimension of q,
too small for a second thread to pay, and an idle worker still spins
and burns CPU. The pin acts only when nnsft is imported before numpy;
a thread pool that numpy has already started keeps its size. The three
variables stay set, so processes started later inherit them."""

import os

# before the first submodule import, which loads numpy and its BLAS
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

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
)

__version__ = "0.1.0"
