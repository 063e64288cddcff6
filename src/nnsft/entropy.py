"""Per-site entropy of width-m strips via the column transfer operator.

A strip state is a vertically admissible column of m symbols; two
columns may sit side by side when all m horizontal pairs are allowed.
The number of admissible m x L patches grows like lambda_max**L for the
dominant eigenvalue of the 0/1 transition matrix, giving per-site
entropy log(lambda_max) / m. Natural logarithm throughout.

The transition matrix is never materialized: states live inside the
full q**m tensor (masked to the vertically admissible ones) and the
matrix-vector product contracts the horizontal compatibility table
along each of the m axes. Power iteration runs on I + T so periodic
transition structure cannot stall convergence; lambda_max(T) is
recovered by subtracting one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log

import numpy as np

from .sft import NnSft

STATE_ENUM_GUARD = 2_000_000


class EmptySubshiftError(ValueError):
    """The strip admits no biinfinite configuration."""


@dataclass(frozen=True)
class StripTransfer:
    """Masked-tensor form of the width-m column transition relation."""

    sft: NnSft
    m: int
    vmask: np.ndarray  # bool, shape (q,)*m; True on vertically admissible columns
    state_count: int

    @classmethod
    def build(cls, sft: NnSft, m: int) -> "StripTransfer":
        q = sft.q
        if m < 1:
            raise ValueError("strip width must be >= 1")
        if q**m > STATE_ENUM_GUARD:
            raise ValueError(
                f"q**m = {q**m} exceeds the state enumeration guard ({STATE_ENUM_GUARD})"
            )
        v_ok = ~sft.v_table
        mask = np.ones((q,) * m, dtype=bool)
        for j in range(m - 1):
            # columns are indexed bottom symbol first; axis j sits below axis j+1
            shape = (1,) * j + (q, q) + (1,) * (m - j - 2)
            mask &= v_ok.reshape(shape)
        mask.flags.writeable = False
        return cls(sft, m, mask, int(mask.sum()))

    def states(self) -> list[tuple[int, ...]]:
        """Admissible columns, bottom symbol first, lexicographic order."""
        return [tuple(int(s) for s in idx) for idx in np.argwhere(self.vmask)]

    def transition_allowed(self, left: tuple[int, ...], right: tuple[int, ...]) -> bool:
        return all((a, b) not in self.sft.hforbid for a, b in zip(left, right))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T @ v on the masked tensor."""
        h_ok = (~self.sft.h_table).astype(float)
        w = np.where(self.vmask, v, 0.0)
        for ax in range(self.m):
            w = np.moveaxis(np.tensordot(h_ok, w, axes=([1], [ax])), 0, ax)
        return np.where(self.vmask, w, 0.0)


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
    cannot certify and raises RuntimeError rather than returning an
    uncertified value.

    Raises EmptySubshiftError when no column is admissible or no column
    can follow any other (lambda_max = 0, entropy -infinity).
    """
    if not 0.0 < tol < inf:
        raise ValueError("tol must be positive and finite")
    transfer = StripTransfer.build(sft, m)
    if transfer.state_count == 0:
        raise EmptySubshiftError("empty subshift: no vertically admissible column")
    h_ok = (~sft.h_table).astype(float)
    mask = transfer.vmask
    v = mask.astype(float)
    v /= v.sum()
    for iterations in range(1, max_iter + 1):
        w = v.copy()
        for ax in range(m):
            w = np.moveaxis(np.tensordot(h_ok, w, axes=([1], [ax])), 0, ax)
        w = np.where(mask, w, 0.0) + v  # iterate I + T; keeps periodic T convergent
        s = float(w.sum())  # = L1 norm: w is nonnegative and v is normalized
        residual = float(np.abs(w - s * v).sum())
        v = w / s
        if residual <= tol * s:
            lam = s - 1.0
            if lam <= 0.0:
                raise EmptySubshiftError("empty subshift: no column can follow any other")
            return StripEntropyResult(log(lam) / m, m, transfer.state_count, iterations)
    raise RuntimeError(f"power iteration did not certify convergence in {max_iter} steps")
