"""Process-matrix reconstruction by linear inversion.

A tomography run pairs an informationally complete set of N >= d**2 input
states (Bloch vectors as the columns of a d**2 x N matrix) with the
measured output states at one or more evolution times.  Overcompleteness
is handled by symmetrization -- multiplying both state matrices by the
transposed input matrix -- after which the process matrix follows from one
linear solve against the input Gram matrix.  Every reconstruction, the
per-time ones and the per-interval stepwise ones alike, goes through one
kernel that checks a whole stack of input matrices from one batched SVD
and solves all their Gram systems at once.  The reconstruction is purely
linear-algebraic: it is exact for any full-rank input set, pure or mixed,
and does not project onto the physical set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .basis import DensityMatrix, _frozen_array
from .dynamics import ProcessMatrix, _log_stack, _stacked, principal_log
from .exceptions import CompletenessError, DimensionError, IllConditionedError
from .superop import Superoperator

__all__ = [
    "TomographySet",
    "canonical_input_states",
    "reconstruct_process",
    "reconstruct_processes",
    "mean_log_liouvillian",
    "direct_liouvillian",
    "stepwise_processes",
]

MAX_CONDITION = 1e8


def canonical_input_states() -> list[DensityMatrix]:
    """The 15-state informationally complete qutrit input set.

    Three basis-state projectors plus the twelve equal-weight superpositions
    (|i> + e^{i phi} |j>)/sqrt(2) over the level pairs (1,2), (2,3), (1,3)
    with phases phi in {0, pi/2, pi, 3pi/2}.  Levels are ordered
    |+1>, |0>, |-1>.  The stacked Bloch matrix has rank 9.
    """
    kets = np.eye(3, dtype=complex)
    states = [np.outer(kets[:, i], kets[:, i].conj()) for i in range(3)]
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
            psi = (kets[:, i] + np.exp(1j * phi) * kets[:, j]) / np.sqrt(2.0)
            states.append(np.outer(psi, psi.conj()))
    return [DensityMatrix.from_matrix(s) for s in states]


@dataclass(frozen=True)
class TomographySet:
    """Input/output Bloch-vector matrices of one tomography run.

    Attributes:
        dim: Hilbert-space dimension d.
        inputs: d**2 x N matrix of input Bloch vectors (columns).
        outputs: mapping from evolution time (seconds) to the d**2 x N
            matrix of measured output Bloch vectors at that time, in time
            order whatever the order it was given in.
        states: read-only (T+1, d**2, N) stack of the inputs followed by
            the outputs in time order; ``inputs`` and every ``outputs[t]``
            are views of it.
        times: read-only (T,) array of the output times, increasing;
            ``states[k + 1]`` was measured at ``times[k]``.
    """

    dim: int
    inputs: NDArray[np.float64]
    outputs: dict
    states: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    times: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n2 = self.dim * self.dim
        m = np.asarray(self.inputs, dtype=float)
        if m.ndim != 2 or m.shape[0] != n2:
            raise DimensionError(f"inputs must be {n2} x N, got shape {m.shape}")
        if m.shape[1] < n2:
            raise CompletenessError(
                f"need at least {n2} input states for dim {self.dim}, got {m.shape[1]}"
            )
        times = sorted(self.outputs, key=float)
        names = ["inputs"] + [f"outputs[{t}]" for t in times]
        mats = [m] + [np.asarray(self.outputs[t], dtype=float) for t in times]
        # matrix by matrix in time order, the shape is checked before the
        # pinned trace row; the rows of all matrices before the first of
        # another shape are checked on one stack
        bad = next((j for j, mat in enumerate(mats) if mat.shape != m.shape), len(mats))
        stack = np.stack(mats[:bad])
        _check_pinned(stack, self.dim, names.__getitem__)
        if bad < len(mats):
            raise DimensionError(
                f"{names[bad]} shape {mats[bad].shape} != inputs shape {m.shape}"
            )
        stack = _frozen_array(stack)
        object.__setattr__(self, "states", stack)
        object.__setattr__(self, "times", _frozen_array(np.array(times, dtype=float)))
        object.__setattr__(self, "inputs", stack[0])
        object.__setattr__(self, "outputs", dict(zip(self.times.tolist(), stack[1:])))

    @property
    def n_states(self) -> int:
        return self.inputs.shape[1]

    @property
    def input_rank(self) -> int:
        return int(self._input_health[0][0])

    @property
    def input_condition(self) -> float:
        """Condition number of the symmetrized input matrix."""
        return float(self._input_health[1][0])

    @functools.cached_property
    def _input_health(self) -> tuple[np.ndarray, np.ndarray]:
        """``_gram_health`` of the inputs, a stack of one.

        The inputs are shared by every time, so their SVD runs once per set.
        """
        return _gram_health(self.inputs[None])

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "times_s": self.times.tolist(),
            "inputs": self.inputs.T.tolist(),
            "outputs": {repr(t): o.T.tolist() for t, o in zip(self.times.tolist(), self.states[1:])},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TomographySet":
        """Read a set written by ``to_json``.

        Raises:
            ValueError: if there are no outputs, or ``inputs`` or an
                ``outputs[t]`` matrix holds a NaN or an infinity (checked
                here, where data enters, rather than for every set built in
                memory).
        """
        inputs = np.asarray(obj["inputs"], dtype=float).T
        outputs = {
            float(t): np.asarray(cols, dtype=float).T for t, cols in obj["outputs"].items()
        }
        if not outputs:
            raise ValueError("dataset has no outputs")
        for name, mat in [("inputs", inputs)] + [
            (f"outputs[{t}]", o) for t, o in outputs.items()
        ]:
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} has a non-finite entry")
        return cls(dim=int(obj["dim"]), inputs=inputs, outputs=outputs)


def _check_pinned(stack: np.ndarray, dim: int, label: Callable[[int], str]):
    """Raise ValueError, naming matrix k by ``label(k)``, for the first matrix of a
    (K, d**2, N) stack whose trace row is not sqrt(1 / (2 d)) within 1e-9."""
    pinned = np.sqrt(1.0 / (2.0 * dim))
    unpinned = np.flatnonzero(np.abs(stack[:, -1] - pinned).max(axis=1) > 1e-9)
    if unpinned.size:
        raise ValueError(f"{label(unpinned[0])} has unpinned trace components")


def _gram_health(mi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each matrix M_k of a (K, d**2, N) stack and cond(M_k M_k^T).

    Both come from one batched SVD without vectors: the rank counts the
    singular values above numpy's ``matrix_rank`` tolerance
    sigma_max * max(d**2, N) * eps, and the Gram condition is
    (sigma_max / sigma_min)**2 (infinite for sigma_min = 0).
    """
    sv = np.linalg.svd(mi, compute_uv=False)
    tol = sv[:, :1] * max(mi.shape[1:]) * np.finfo(sv.dtype).eps
    rank = np.count_nonzero(sv > tol, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = (sv[:, 0] / sv[:, -1]) ** 2
    return rank, cond


def _checked_gram_solve(
    mi: np.ndarray,
    rhs: np.ndarray,
    label: Callable[[int], str],
    health: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Solutions X_k of (M_k M_k^T) X_k = rhs_k for a (K, d**2, N) stack M.

    ``health`` is ``_gram_health(mi)``, computed here when not given.  The
    first matrix that is rank-deficient or whose Gram condition exceeds
    MAX_CONDITION raises, named by ``label(k)``.  All K systems then go
    through one batched solve; no inverse is formed.

    Raises:
        CompletenessError: rank below d**2 (``rank`` attribute set).
        IllConditionedError: Gram condition above MAX_CONDITION (``cond``
            attribute set).
    """
    rank, cond = _gram_health(mi) if health is None else health
    n2 = mi.shape[1]
    bad = np.flatnonzero((rank < n2) | (cond > MAX_CONDITION))
    if bad.size:
        k = bad[0]
        if rank[k] < n2:
            raise CompletenessError(
                f"{label(k)}: input states span only rank {rank[k]} < {n2}",
                rank=int(rank[k]),
            )
        raise IllConditionedError(
            f"{label(k)}: symmetrized input matrix condition {cond[k]:.3e} exceeds "
            f"{MAX_CONDITION:.0e}; refusing inversion",
            cond=float(cond[k]),
        )
    return np.linalg.solve(mi @ mi.transpose(0, 2, 1), rhs)


def _process_stack(inputs: np.ndarray, mo: np.ndarray, health=None) -> np.ndarray:
    """(T, d**2, d**2) process matrices of a (T, d**2, N) output stack ``mo`` from one
    Gram solve of the (d**2, N) ``inputs``; ``health`` as in ``_checked_gram_solve``."""
    # column block k of the right-hand side is (mo_k inputs^T)^T
    rhs = inputs @ mo.transpose(2, 0, 1).reshape(inputs.shape[1], -1)
    sol = _checked_gram_solve(inputs[None], rhs[None], lambda k: "inputs", health)[0]
    return sol.reshape(len(inputs), len(mo), -1).transpose(1, 2, 0)


def _reconstruct(ts: TomographySet, picked: slice = slice(None)) -> list[ProcessMatrix]:
    """Process matrices at ``ts.times[picked]`` from one Gram solve of the set's inputs."""
    mats = _process_stack(ts.inputs, ts.states[1:][picked], ts._input_health)
    return [
        ProcessMatrix(dim=ts.dim, matrix=m, duration_s=t)
        for m, t in zip(mats, ts.times[picked].tolist())
    ]


def reconstruct_process(ts: TomographySet, t: float) -> ProcessMatrix:
    """Linear-inversion estimate of the process matrix at time t.

    Solves the symmetrized system by a linear solve (never by forming an
    explicit inverse), with the input rank and Gram condition checked
    from one SVD per TomographySet.  The outputs at ``t`` are the slice
    of ``ts.states`` at the index of ``t`` in ``ts.times``, which must
    hold ``t`` exactly.  Exact on noiseless data for any full-rank input
    set.

    Raises:
        CompletenessError: if the input states are rank-deficient.
        IllConditionedError: if the symmetrized matrix condition exceeds
            MAX_CONDITION.
        KeyError: if no outputs were measured at ``t``.
    """
    at = np.flatnonzero(ts.times == float(t))
    if not at.size:
        raise KeyError(f"no outputs measured at t = {t}; available times: {list(ts.times)}")
    return _reconstruct(ts, slice(at[0], at[0] + 1))[0]


def reconstruct_processes(ts: TomographySet) -> list[ProcessMatrix]:
    """:func:`reconstruct_process` at every measured time, in time order.

    All times share one solve, whose right-hand sides are the symmetrized
    outputs side by side; a set without outputs gives ``[]``.

    Raises:
        CompletenessError, IllConditionedError: as reconstruct_process.
    """
    return _reconstruct(ts) if ts.times.size else []


def mean_log_liouvillian(processes: Sequence[ProcessMatrix]) -> Superoperator:
    """Averaged direct generator estimate, the mean of log(P_t) / t.

    Each process matrix contributes its principal log divided by its
    ``duration_s``, averaged over the stacked logs; branch-cut, singularity
    and mixed-dimension errors propagate.
    """
    mats, durations = _stacked(processes)  # raises first for no or mixed dimensions
    return Superoperator(dim=processes[0].dim, matrix=_mean_log(mats, durations))


def _mean_log(mats: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """The mean of log(P_t) / t over a (T, n, n) stack and its (T,) durations."""
    return np.mean(_log_stack(mats, durations) / durations[:, None, None], axis=0)


def direct_liouvillian(ts: TomographySet, t: float) -> Superoperator:
    """Single-time generator estimate L = log(P(t)) / t.

    Propagates branch-ambiguity and singularity errors from the logarithm.
    """
    pm = reconstruct_process(ts, t)
    return Superoperator(dim=ts.dim, matrix=principal_log(pm).matrix / pm.duration_s)


def stepwise_processes(ts: TomographySet) -> list[ProcessMatrix]:
    """Per-interval process matrices of a time-resolved run.

    With the input matrix playing the role of the state matrix at time 0,
    consecutive state matrices are related by M_{n+1} = P_n M_n; each P_n is
    recovered by the same symmetrized inversion, always using the measured
    matrix at the earlier time (evolution can degrade completeness, so each
    step is rank- and condition-checked individually).  All steps are
    checked and solved as one stack.

    Returns one process matrix per grid interval; ``duration_s`` is the
    interval length.

    Raises:
        CompletenessError, IllConditionedError: for the first failing step,
            named in the message as ``step n (t = a -> b)``.
    """
    if not ts.times.size:
        return []
    boundaries = np.concatenate([[0.0], ts.times])
    earlier, later = ts.states[:-1], ts.states[1:]  # (T, d**2, N) each
    # (M_n M_n^T) P_n^T = M_n M_{n+1}^T
    sol = _checked_gram_solve(
        earlier,
        earlier @ later.transpose(0, 2, 1),
        lambda n: (
            f"stepwise reconstruction failed at step {n} "
            f"(t = {boundaries[n]} -> {boundaries[n + 1]})"
        ),
    )
    return [
        ProcessMatrix(dim=ts.dim, matrix=p.T, duration_s=float(dt))
        for p, dt in zip(sol, np.diff(boundaries))
    ]
