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
and does not project onto the physical set.  Every direct generator
estimate, here and in ``estimation``, reads one loop-free kernel
(``_direct_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .basis import DensityMatrix, _frozen_array
from .dynamics import ProcessMatrix, _checked_times, _principal_logs, _process_dim, principal_log
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


@dataclass(frozen=True, eq=False)
class TomographySet:
    """Input/output Bloch-vector matrices of one tomography run.

    Attributes:
        states: read-only (T+1, d**2, N) stack of the N input Bloch vectors
            (as columns), then of their measured outputs at each time, in
            time order; ``inputs`` is a view of ``states[0]``.
        times: read-only (T,) array of the output times (seconds), by the
            rule of ``TimeGrid``: finite, positive and strictly increasing;
            ``states[k + 1]`` was measured at ``times[k]``.

    The constructor freezes a copy of both and checks them (``_check_stack``).
    """

    states: NDArray[np.float64]
    times: NDArray[np.float64]

    def __post_init__(self):
        states = _frozen_array(np.asarray(self.states, dtype=float))
        times = _frozen_array(np.asarray(self.times, dtype=float))
        _check_stack(states, times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)

    @property
    def dim(self) -> int:
        return math.isqrt(self.states.shape[1])

    @property
    def inputs(self) -> NDArray[np.float64]:
        return self.states[0]

    @property
    def input_rank(self) -> int:
        return int(_gram_health(self.inputs[None])[0][0])

    @property
    def input_condition(self) -> float:
        """Condition number of the symmetrized input matrix."""
        return float(_gram_health(self.inputs[None])[1][0])

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "times_s": self.times.tolist(),
            "inputs": self.inputs.T.tolist(),
            "outputs": {repr(t): o.T.tolist() for t, o in zip(self.times.tolist(), self.states[1:])},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TomographySet":
        """Read a set written by ``to_json``, its outputs sorted into time order.

        Raises DimensionError if ``inputs`` is not d**2 x N for the ``dim``
        given or an ``outputs[t]`` matrix has another shape (after the checks
        of the earlier matrices), otherwise as the constructor, and then
        ValueError if ``times_s``, when present, is not exactly the sorted
        ``outputs`` times.
        """
        keys = sorted(obj["outputs"], key=float)
        times = [float(t) for t in keys]
        raw = [obj["inputs"]] + [obj["outputs"][k] for k in keys]
        mats = [np.asarray(m, dtype=float).T for m in raw]
        n2 = int(obj["dim"]) ** 2
        if mats[0].ndim != 2 or mats[0].shape[0] != n2:
            raise DimensionError(f"inputs must be {n2} x N, got shape {mats[0].shape}")
        bad = next((k for k, m in enumerate(mats) if m.shape != mats[0].shape), None)
        if bad is not None:
            _check_entries(np.stack(mats[:bad]), times)
            raise DimensionError(
                f"outputs[{times[bad - 1]}] shape {mats[bad].shape} != inputs shape {mats[0].shape}"
            )
        ts = cls(states=np.stack(mats), times=np.array(times))
        if "times_s" in obj and obj["times_s"] != times:
            raise ValueError("times_s is not the sorted times of the outputs keys")
        return ts


def _check_stack(states: np.ndarray, times: np.ndarray):
    """Raise unless ``states`` is a (T+1, d**2, N) stack, or an (m, T+1, d**2, N) batch
    of them, with N >= d**2 input states (else DimensionError, CompletenessError)
    whose T ``times`` follow the rule of ``TimeGrid`` and whose entries
    ``_check_entries`` accepts (else ValueError, for the first faulty draw)."""
    n2 = states.shape[-2] if states.ndim in (3, 4) else 0
    if n2 < 4 or math.isqrt(n2) ** 2 != n2:
        raise DimensionError(f"states must be a (T+1, d**2, N) stack, got shape {states.shape}")
    if states.shape[-1] < n2:
        raise CompletenessError(
            f"need at least {n2} input states for dim {math.isqrt(n2)}, got {states.shape[-1]}"
        )
    _checked_times(times)
    if (n_mats := states.shape[-3]) != len(times) + 1:
        raise DimensionError(
            f"{n_mats} state matrices for {len(times)} times; need the inputs and one per time"
        )
    _check_entries(states.reshape(-1, *states.shape[-2:]), times)


def _check_entries(stack: np.ndarray, times):
    """Raise ValueError for the first matrix of a (K, d**2, N) state stack, or of
    the draws of a batch put end to end, named ``inputs`` or ``outputs[t]`` for
    its output ``times``, with a NaN or infinite entry or a trace row that is not
    sqrt(1 / (2 d)) within 1e-9."""
    pinned = np.sqrt(1.0 / (2.0 * math.isqrt(stack.shape[1])))
    finite = np.isfinite(stack).all(axis=(1, 2))
    bad = np.flatnonzero(~finite | ~(np.abs(stack[:, -1] - pinned).max(axis=1) <= 1e-9))
    if bad.size:
        k = bad[0] % (len(times) + 1)
        fault = "unpinned trace components" if finite[bad[0]] else "a non-finite entry"
        name = f"outputs[{times[k - 1]}]" if k else "inputs"
        raise ValueError(f"{name} has {fault}")


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
) -> np.ndarray:
    """Solutions X_k of (M_k M_k^T) X_k = rhs_k for a (K, d**2, N) stack M.

    The first matrix that is rank-deficient or whose Gram condition
    exceeds MAX_CONDITION (by ``_gram_health``) raises, named by
    ``label(k)``.  All K systems then go through one batched solve; no
    inverse is formed.

    Raises:
        CompletenessError: rank below d**2 (``rank`` attribute set).
        IllConditionedError: Gram condition above MAX_CONDITION (``cond``
            attribute set).
    """
    rank, cond = _gram_health(mi)
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


def _processes(states: np.ndarray) -> np.ndarray:
    """The (m, T, d**2, d**2) process matrices of each draw of an (m, T+1, d**2, N)
    batch of state stacks, at its T output times.

    One checked Gram solve of the m input matrices ``states[:, 0]``, whose
    right-hand sides are each draw's symmetrized outputs side by side.
    """
    inputs, mo = states[:, 0], states[:, 1:]
    m, n_times, n2, n = mo.shape
    # column block k of draw j's right-hand side is (mo_jk inputs_j^T)^T
    rhs = inputs @ mo.transpose(0, 3, 1, 2).reshape(m, n, n_times * n2)
    sol = _checked_gram_solve(inputs, rhs, lambda j: "inputs")
    return np.ascontiguousarray(sol.reshape(m, n2, n_times, n2).transpose(0, 2, 3, 1))


def reconstruct_process(ts: TomographySet, t: float) -> ProcessMatrix:
    """Linear-inversion estimate of the process matrix at time t.

    Solves the symmetrized system by a linear solve (never by forming an
    explicit inverse), with the input rank and Gram condition checked
    from one SVD of the inputs.  The outputs at ``t`` are the slice
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
    k = at[0]
    mats = _processes(ts.states[None, [0, k + 1]])
    return ProcessMatrix(dim=ts.dim, matrix=mats[0, 0], duration_s=float(ts.times[k]))


def reconstruct_processes(ts: TomographySet) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reconstruct_process` at every measured time, in time order.

    Returns the pair (mats, durations): the (T, d**2, d**2) process
    matrices and ``ts.times``.  All times share one solve, whose
    right-hand sides are the symmetrized outputs side by side.

    Raises:
        CompletenessError, IllConditionedError: as reconstruct_process.
    """
    return _processes(ts.states[None])[0], ts.times


def mean_log_liouvillian(processes: tuple[np.ndarray, np.ndarray]) -> Superoperator:
    """Averaged direct generator estimate, the mean of log(P_t) / t.

    ``processes`` is a (mats, durations) pair, as ``reconstruct_processes``
    returns.  Each process matrix contributes its principal log divided by
    its duration, averaged over the stacked logs (``_direct_rows``); the
    first branch-cut or singularity error is raised.
    """
    dim = _process_dim(*processes)
    rows, errors = _direct_rows(processes[0][None], processes[1])
    if errors:
        raise next(iter(errors.values()))
    return Superoperator(dim=dim, matrix=rows.reshape(dim * dim, dim * dim))


def _direct_rows(mats: np.ndarray, ts: np.ndarray, shift=None, projection=None):
    """Direct rows of an (m, T, n, n) batch of processes at ``ts`` ((T,) or (m, T)), and
    the ``_principal_logs`` errors, whose rule each caller applies.  Row j is the
    mean of log(P_jk) / t_k + ``shift`` over draw j's admissible times k (``np.mean``
    bit for bit; NaN if none), flattened, times ``projection`` (a ``_projection``)
    per row (None: no shift, no projection).  An inadmissible log is NaN, which
    masks it.  A batch of one time per draw, (m T, 1, n, n), keeps each log alone."""
    logs, errors = _principal_logs(mats, ts)
    per_time = logs / np.asarray(ts)[..., None, None] + (0.0 if shift is None else shift)
    keep = ~np.isnan(per_time).any(axis=(-2, -1))
    with np.errstate(invalid="ignore"):
        sums = per_time.sum(axis=1, where=keep[..., None, None])
        rows = (sums / keep.sum(axis=1)[:, None, None]).reshape(len(mats), -1)
    return (rows if projection is None else (rows[:, None] @ projection)[:, 0]), errors


def direct_liouvillian(ts: TomographySet, t: float) -> Superoperator:
    """Single-time generator estimate L = log(P(t)) / t.

    Propagates branch-ambiguity and singularity errors from the logarithm.
    """
    pm = reconstruct_process(ts, t)
    return Superoperator(dim=ts.dim, matrix=principal_log(pm).matrix / pm.duration_s)


def stepwise_processes(ts: TomographySet) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval process matrices of a time-resolved run.

    With the input matrix playing the role of the state matrix at time 0,
    consecutive state matrices are related by M_{n+1} = P_n M_n; each P_n is
    recovered by the same symmetrized inversion, always using the measured
    matrix at the earlier time (evolution can degrade completeness, so each
    step is rank- and condition-checked individually).  All steps are
    checked and solved as one stack.

    Returns the pair (mats, durations): one process matrix per grid
    interval and the interval lengths.

    Raises:
        CompletenessError, IllConditionedError: for the first failing step,
            named in the message as ``step n (t = a -> b)``.
    """
    mats, durations = _steps(ts.states[None], ts.times)
    return mats[0], durations


def _steps(states: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``stepwise_processes`` of each draw of an (m, T+1, d**2, N) batch of state
    stacks and their (T,) output times: the (m, T, d**2, d**2) steps, from one
    checked Gram solve of all m T intervals, and the (T,) durations."""
    boundaries = np.concatenate([[0.0], times])
    m, _, n2, n_states = states.shape
    earlier, later = states[:, :-1], states[:, 1:]  # (m, T, d**2, N) each

    def label(k: int) -> str:
        n = k % len(times)  # the step of draw k // T
        return (f"stepwise reconstruction failed at step {n} "
                f"(t = {boundaries[n]} -> {boundaries[n + 1]})")

    # (M_n M_n^T) P_n^T = M_n M_{n+1}^T
    sol = _checked_gram_solve(
        earlier.reshape(-1, n2, n_states),
        (earlier @ later.transpose(0, 1, 3, 2)).reshape(-1, n2, n2),
        label,
    )
    steps = sol.reshape(m, len(times), n2, n2).transpose(0, 1, 3, 2)
    return np.ascontiguousarray(steps), np.diff(boundaries)
