"""Nearest-neighbor Z^2 subshifts of finite type: admissibility,
single-site fillability, shell-by-shell configuration repair,
penalty-potential perturbations, a quantitative verification harness,
and strip transfer-matrix entropy.

Importing nnsft starts numpy's BLAS with one thread, whatever
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS say: the only
BLAS call, the strip matvec's np.dot, has an inner dimension of q,
too small for a second thread to pay, and an idle worker still spins
and burns CPU. The pin acts whenever nnsft, or any of its modules, is
imported before numpy; a thread pool that numpy has already started
keeps its size. Every CLI command runs this file first, through
`nnsft.cli`, though each imports its other modules only when it runs.
The three variables stay set, so processes started later inherit them.

Each public name is imported from its module, e.g.
`from nnsft.repair import repair`; importing the package alone loads
nothing else."""

import os

# importing any nnsft module runs this file first, before that module
# loads numpy and its BLAS
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
