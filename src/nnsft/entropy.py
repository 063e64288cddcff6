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
symbols), both in lexicographic order. Every step is one `np.dot` of
the q x q compatibility table with a (q, prefixes x suffixes) operand.
Two buffers the transfer reuses swap roles at each position: the
operand is gathered from the stage in one buffer into the other, the
product overwrites the stage, and the next stage is picked from it into
the other buffer. So after its first call a matvec into a given array
allocates only numpy's transient intp copies of the int32 index
tables. The dot is kept whole: BLAS can sum a column in another order
when the matrix around it has another width, and a broadcast
`np.matmul` or a dot over column chunks moves the last bit of some
strips with q in the tens or hundreds (full:300 at m = 2 is
one). The full q**m tensor's dots have other widths too; they agree to
the bit at the alphabets the tests compare with it, but not at every q.
Power iteration runs on I + T so periodic transition structure cannot
stall convergence; lambda_max(T) is recovered by subtracting one.

Each iteration's two sums are the ones numpy gives over a zero-filled
array of all q**m columns, grouped as on the full tensor, but no such
array is held: PaddedSum follows numpy's pairwise summation tree and
sums only its nodes that hold states, so memory is bounded by the
states, not by q**m.
"""

from __future__ import annotations

from functools import cached_property
from math import inf, log

import numpy as np

from .sft import STATE_ENUM_GUARD, NnSft, _Frozen

MAX_STRIP_WIDTH = 64
CHUNK = 2**14  # sites of the largest node PaddedSum sums in its buffer; >= numpy's 128-value leaf
TOL_FLOOR = 2.0**-52  # machine epsilon: the relative rounding floor of the residual


class EmptySubshiftError(ValueError):
    """The strip admits no biinfinite configuration."""


class ConvergenceError(RuntimeError):
    """Power iteration could not certify convergence."""


class StripTransfer(_Frozen):
    """Index tables of the width-m column transition relation.

    `codes` holds each admissible column as its base-q number, bottom
    symbol most significant, so sorted codes are lexicographic order.
    `steps[j]` contracts position j: `cols` (q, suffixes' + 1) maps
    (b, suffix') to a column of stage j, an inadmissible pair and the
    trailing slot to stage j's zero column; `rows` picks the admissible
    (prefix, a) rows of the contracted block, in lexicographic order.
    Every table entry is below q**max(m, 2) <= STATE_ENUM_GUARD < 2**31,
    so the tables are int32; `build` forms them in int32 as it goes and
    frees each temporary once used (only `searchsorted` gives intp).
    Compared and hashed by identity: arrays give no one truth value.
    """

    sft: NnSft
    m: int
    codes: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]
    h_ok: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__

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
        words = [np.zeros(1, dtype=np.int32)]
        rows = []  # the admissible (prefix, a) rows of each height's block
        for k in range(1, m + 1):
            prev = words[-1]
            ext = np.ones((1, q), dtype=bool) if k == 1 else v_ok[prev % q]
            i, a = (x.astype(np.int32) for x in np.nonzero(ext))
            words.append(prev[i] * np.int32(q) + a)
            rows.append(a * np.int32(len(prev)) + i)
            del ext, i, a
        steps = []
        for j in range(m if len(words[m]) else 0):
            top, rest = words[m - j], words[m - j - 1]
            cand = np.arange(q, dtype=np.int32)[:, None] * np.int32(q ** (m - j - 1)) + rest
            pos = np.searchsorted(top, cand)
            np.minimum(pos, len(top) - 1, out=pos)
            hit = top[pos] == cand
            del cand
            # the trailing slot becomes the next stage's zero column and
            # keeps every product matrix-matrix, as on the q**m tensor; at
            # m = 1 both are matrix-vector, which numpy sums in another order
            cols = np.full((q, len(rest) + (m > 1)), len(top), dtype=np.int32)
            np.copyto(cols[:, : len(rest)], pos, where=hit)
            del pos, hit
            steps.append((cols, rows[j]))
        h_ok = (~sft.h_table).astype(float)
        return cls(sft, m, words[m], tuple(steps), h_ok)

    @cached_property
    def _buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Two flat buffers, each sized for the largest block or stage."""
        q = self.sft.q
        size, prefixes = self.state_count + 1, 1
        for cols, rows in self.steps:
            size = max(size, q * prefixes * cols.shape[1])
            prefixes = len(rows)
            size = max(size, prefixes * cols.shape[1])
        return np.empty(size), np.empty(size)

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """T @ v for a vector over the states in lexicographic order.

        Works in buffers reused from call to call, so one transfer must
        not run two matvecs at once; the result is written to out, or to
        a fresh array when out is None."""
        a, b = self._buffers
        q = self.sft.q
        a[: len(v)] = v
        a[len(v)] = 0.0
        prefixes, width = 1, len(v) + 1
        for cols, rows in self.steps:
            stage = a[: prefixes * width].reshape(prefixes, width)
            n = prefixes * cols.shape[1]
            gathered = b[: q * n].reshape(q, n)
            for s in range(q):
                # every index is in range; mode="clip" lets take write
                # straight into out, where "raise" would buffer it
                np.take(stage, cols[s], axis=1, out=gathered[s].reshape(prefixes, -1), mode="clip")
            # the gather has read the stage, so the product may overwrite it
            block = a[: q * n].reshape(q, n)
            np.dot(self.h_ok, gathered, out=block)
            prefixes, width = len(rows), cols.shape[1]
            np.take(block.reshape(-1, width), rows, axis=0,
                    out=b[: prefixes * width].reshape(prefixes, width), mode="clip")
            a, b = b, a
        result = a[: prefixes * width : width]
        if out is None:
            return result.copy()
        out[...] = result
        return out


class PaddedSum:
    """np.sum of n float64 zeros with values written at sorted codes,
    without the n zeros.

    numpy's pairwise summation splits n > 128 contiguous values at
    h = n//2 - (n//2) % 8 and adds the two halves' sums, recursively;
    every node of that tree sums to np.sum of its slice. The nodes of at
    most CHUNK sites whose parent is larger are the leaves here: each is
    summed with np.sum in one zeroed buffer, and the leaf sums are added
    up the tree. Empty subtrees are dropped, so every summand must be
    >= 0: then adding their +0.0 changes nothing.
    """

    def __init__(self, codes: np.ndarray, n: int):
        self._codes = codes
        self._buffer = np.zeros(min(n, CHUNK))
        self._tree = self._node(0, n, 0, len(codes))

    def _node(self, lo: int, n: int, start: int, stop: int):
        """The subtree over sites lo..lo+n-1, whose codes are
        codes[start:stop]: None when empty, (start, stop, lo, n) for a
        leaf, else the pair of its nonempty children, or the only one."""
        if start == stop:
            return None
        if n <= CHUNK:
            return start, stop, lo, n
        h = n // 2 - n // 2 % 8
        mid = start + int(np.searchsorted(self._codes[start:stop], lo + h))
        left = self._node(lo, h, start, mid)
        right = self._node(lo + h, n - h, mid, stop)
        return left if right is None else right if left is None else (left, right)

    def __call__(self, values: np.ndarray) -> float:
        """The sum for values[i] at codes[i]."""
        return 0.0 if self._tree is None else self._sum(self._tree, values)

    def _sum(self, node, values: np.ndarray) -> float:
        if len(node) == 2:
            return self._sum(node[0], values) + self._sum(node[1], values)
        start, stop, lo, n = node
        at = np.subtract(self._codes[start:stop], lo, dtype=np.intp)  # positions in the leaf
        self._buffer[at] = values[start:stop]
        total = float(self._buffer[:n].sum())
        self._buffer[at] = 0.0
        return total


class StripEntropyResult(_Frozen):
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

    Each sum is numpy's sum over a zero-filled array of all q**m
    columns, grouped exactly as on the full tensor, taken by PaddedSum
    without that array; after the first iteration only transient index
    arrays are allocated.

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
    total = PaddedSum(transfer.codes, sft.q**m)
    v = np.ones(transfer.state_count)
    v /= transfer.state_count
    w = np.empty_like(v)
    for iterations in range(1, max_iter + 1):
        transfer.matvec(v, out=w)
        w += v  # iterate I + T; keeps periodic T convergent
        # v starts uniform, so w > v exactly at the columns with a successor
        if iterations == 1 and not (w > v).all():
            _require_cycle(transfer, w > v, max_iter)
        s = total(w)  # = L1 norm: w is nonnegative and v is normalized
        v *= s
        np.subtract(w, v, out=v)
        residual = total(np.abs(v, out=v))
        np.divide(w, s, out=v)
        if residual <= tol * s:
            lam = s - 1.0
            if lam <= 0.0:
                raise EmptySubshiftError("empty subshift: no column can follow any other")
            # the first step ruled a nilpotent T out, so lambda_max(T) >= 1
            # and an estimate below 1 is rounding, not a negative entropy
            return StripEntropyResult(log(max(lam, 1.0)) / m, m, transfer.state_count, iterations)
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
