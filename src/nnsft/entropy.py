"""Per-site entropy of width-m strips via the column transfer operator.

A strip state is a vertically admissible column of m symbols; two
columns may sit side by side when all m horizontal pairs are allowed.
The number of admissible m x L patches grows like lambda_max**L for the
dominant eigenvalue of the 0/1 transition matrix, giving per-site
entropy log(lambda_max) / m. Natural logarithm throughout.

The transition matrix is never materialized. The matrix-vector product
contracts the horizontal compatibility table against one symbol
position at a time, bottom first, and only admissible states are
touched: after j contractions the partial product is a 2-D array whose
rows are the vertically admissible prefixes of length j (new symbols)
and whose columns are the admissible suffixes of length m - j (old
symbols), both in lexicographic order. Every step runs the same
`np.tensordot` the full q**m tensor would, on the same nonzero terms in
the same order, so the result is identical to the bit. Power iteration
runs on I + T so periodic transition structure cannot stall
convergence; lambda_max(T) is recovered by subtracting one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log

import numpy as np

from .sft import NnSft

MAX_STRIP_WIDTH = 64
TOL_FLOOR = 2.0**-52  # machine epsilon: the relative rounding floor of the residual
STATE_ENUM_GUARD = 2_000_000


class EmptySubshiftError(ValueError):
    """The strip admits no biinfinite configuration."""


class ConvergenceError(RuntimeError):
    """Power iteration could not certify convergence."""


@dataclass(frozen=True)
class StripTransfer:
    """Index tables of the width-m column transition relation.

    `codes` holds each admissible column as its base-q number, bottom
    symbol most significant, so sorted codes are lexicographic order.
    `steps[j]` contracts position j: `cols` (q, suffixes' + 1) maps
    (b, suffix') to a column of stage j, an inadmissible pair and the
    trailing slot to stage j's zero column; `rows` picks the admissible
    (prefix, a) rows of the contracted block, in lexicographic order.
    """

    sft: NnSft
    m: int
    codes: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]
    h_ok: np.ndarray

    @property
    def state_count(self) -> int:
        return len(self.codes)

    @classmethod
    def build(cls, sft: NnSft, m: int) -> "StripTransfer":
        q = sft.q
        if m < 1:
            raise ValueError("strip width must be >= 1")
        if m > MAX_STRIP_WIDTH:
            raise ValueError(f"strip width must be <= {MAX_STRIP_WIDTH}")
        size = q ** max(m, 2)  # at m = 1 the q x q pair tables are larger
        if size > STATE_ENUM_GUARD:
            raise ValueError(
                f"q**max(m, 2) = {size} exceeds the state enumeration guard ({STATE_ENUM_GUARD})"
            )
        v_ok = ~sft.v_table
        # words[k]: codes of the admissible columns of height k, sorted;
        # a prefix and a suffix of height k range over the same words
        words = [np.zeros(1, dtype=np.int64)]
        extensions = []  # (word index, appended symbol) per height
        for k in range(1, m + 1):
            prev = words[-1]
            ext = np.ones((1, q), dtype=bool) if k == 1 else v_ok[prev % q]
            i, a = np.nonzero(ext)
            extensions.append((i, a))
            words.append(prev[i] * q + a)
        steps = []
        for j in range(m if len(words[m]) else 0):
            top, rest = words[m - j], words[m - j - 1]
            cand = np.arange(q)[:, None] * q ** (m - j - 1) + rest[None, :]
            pos = np.minimum(np.searchsorted(top, cand), len(top) - 1)
            cols = np.where(top[pos] == cand, pos, len(top))
            if m > 1:
                # the trailing slot becomes the next stage's zero column and
                # keeps every product matrix-matrix, as on the q**m tensor;
                # at m = 1 both are matrix-vector, which numpy sums in
                # another order
                cols = np.concatenate([cols, np.full((q, 1), len(top))], axis=1)
            i, a = extensions[j]
            steps.append((cols, a * len(words[j]) + i))
        h_ok = (~sft.h_table).astype(float)
        return cls(sft, m, words[m], tuple(steps), h_ok)

    def states(self) -> list[tuple[int, ...]]:
        """Admissible columns, bottom symbol first, lexicographic order."""
        digits = self.codes[:, None] // self.sft.q ** np.arange(self.m - 1, -1, -1) % self.sft.q
        return [tuple(int(s) for s in row) for row in digits]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T @ v for a vector over the states in lexicographic order."""
        stage = np.append(v, 0.0)[None, :]
        for cols, rows in self.steps:
            block = np.tensordot(self.h_ok, stage[:, cols], axes=([1], [1]))
            stage = block.reshape(-1, block.shape[2])[rows]
        return stage[:, 0]


@dataclass(frozen=True)
class StripEntropyResult:
    value: float
    strip_width: int
    states: int
    iterations: int


def strip_entropy(
    sft: NnSft, m: int, tol: float = 1e-10, max_iter: int = 100_000
) -> StripEntropyResult:
    """(1/m) * log(lambda_max) for the width-m strip of the SFT.

    Convergence is residual-certified: iteration stops once the L1
    residual of the shifted operator against the eigenvalue estimate is
    within tol, relatively. Degenerate transition structure with a
    defective dominant eigenvalue (possible for non-mixing shifts)
    cannot certify and raises ConvergenceError rather than returning an
    uncertified value.

    The sums run over a zero-filled array of all q**m columns, so numpy's
    pairwise summation groups them exactly as it would on the full
    tensor.

    Raises EmptySubshiftError when no column is admissible or no column
    can be followed forever (T is nilpotent: lambda_max = 0, entropy
    -infinity). The first step shows whether some column has no
    successor; only then are such columns dropped, one matvec a round,
    until none is left (raise) or none is dropped. A tol
    below TOL_FLOOR is refused before iterating: rounding in the
    residual alone can keep it above tol * s forever. The floor is
    machine epsilon, not a bound derived for each strip: the hard square
    at m = 20 and checkerboard:5 at m = 8 certify at it, but the L1
    residual over many states can carry more rounding than that, so a
    tol at or just above the floor may still end in ConvergenceError.
    """
    if not TOL_FLOOR <= tol < inf:
        raise ValueError(
            f"tol must be finite and at least {TOL_FLOOR!r}, the residual's rounding floor"
        )
    transfer = StripTransfer.build(sft, m)
    if transfer.state_count == 0:
        raise EmptySubshiftError("empty subshift: no vertically admissible column")
    codes = transfer.codes
    scratch = np.zeros(sft.q**m)
    v = np.ones(transfer.state_count)
    v /= transfer.state_count
    for iterations in range(1, max_iter + 1):
        w = transfer.matvec(v) + v  # iterate I + T; keeps periodic T convergent
        # v starts uniform, so w > v exactly at the columns with a successor
        if iterations == 1 and not (w > v).all():
            _require_cycle(transfer, w > v, max_iter)
        scratch[codes] = w
        s = float(scratch.sum())  # = L1 norm: w is nonnegative and v is normalized
        scratch[codes] = np.abs(w - s * v)
        residual = float(scratch.sum())
        v = w / s
        if residual <= tol * s:
            lam = s - 1.0
            if lam <= 0.0:
                raise EmptySubshiftError("empty subshift: no column can follow any other")
            return StripEntropyResult(log(lam) / m, m, transfer.state_count, iterations)
    raise ConvergenceError(f"power iteration did not certify convergence in {max_iter} steps")


def _require_cycle(transfer: StripTransfer, alive: np.ndarray, rounds: int) -> None:
    """Raise EmptySubshiftError when the columns marked alive (those with
    a successor) lead to no cycle: drop the columns with no successor
    among the rest until none is dropped; T is nilpotent exactly when
    none are left. Gives up silently after the given number of rounds."""
    for _ in range(rounds):
        if not alive.any():
            raise EmptySubshiftError("empty subshift: no column can be followed forever")
        kept = alive & (transfer.matvec(alive.astype(float)) > 0)
        if (kept == alive).all():
            return
        alive = kept
