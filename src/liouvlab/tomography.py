"""Process-matrix reconstruction by linear inversion.

A tomography run pairs an informationally complete set of N >= d**2 input
states (Bloch vectors as the columns of a d**2 x N matrix) with the
measured output states at one or more evolution times.  Overcompleteness
is handled by symmetrization -- multiplying both state matrices by the
transposed input matrix -- after which the process matrix follows from a
single positive-definite solve.  The reconstruction is purely
linear-algebraic: it is exact for any full-rank input set, pure or mixed,
and does not project onto the physical set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve

from .basis import DensityMatrix, OperatorBasis, build_basis, coords_of, _frozen_array
from .dynamics import ProcessMatrix, principal_log
from .exceptions import CompletenessError, DimensionError, IllConditionedError
from .superop import Superoperator

__all__ = [
    "TomographySet",
    "canonical_input_states",
    "symmetrize",
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
            matrix of measured output Bloch vectors at that time.
    """

    dim: int
    inputs: NDArray[np.float64]
    outputs: dict

    def __post_init__(self):
        n2 = self.dim * self.dim
        m = np.asarray(self.inputs, dtype=float)
        if m.ndim != 2 or m.shape[0] != n2:
            raise DimensionError(f"inputs must be {n2} x N, got shape {m.shape}")
        if m.shape[1] < n2:
            raise CompletenessError(
                f"need at least {n2} input states for dim {self.dim}, got {m.shape[1]}"
            )
        pinned = np.sqrt(1.0 / (2.0 * self.dim))
        for name, mat in [("inputs", m)] + [
            (f"outputs[{t}]", np.asarray(o, dtype=float)) for t, o in self.outputs.items()
        ]:
            if mat.shape != m.shape:
                raise DimensionError(f"{name} shape {mat.shape} != inputs shape {m.shape}")
            if np.abs(mat[-1] - pinned).max() > 1e-9:
                raise ValueError(f"{name} has unpinned trace components")
        object.__setattr__(self, "inputs", _frozen_array(m))
        object.__setattr__(
            self,
            "outputs",
            {float(t): _frozen_array(np.asarray(o, dtype=float)) for t, o in self.outputs.items()},
        )

    @property
    def n_states(self) -> int:
        return self.inputs.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.array(sorted(self.outputs))

    @property
    def input_rank(self) -> int:
        return int(np.linalg.matrix_rank(self.inputs))

    @property
    def input_condition(self) -> float:
        """Condition number of the symmetrized input matrix."""
        return float(np.linalg.cond(self.inputs @ self.inputs.T))

    @functools.cached_property
    def _gram_factor(self):
        """Checked Cholesky factor of the symmetrized input matrix.

        The inputs are shared by every time, so the rank check, the
        condition check and the factorization run once per set.
        """
        return _checked_gram_factor(self.inputs, self.dim, "inputs")

    @classmethod
    def from_states(
        cls,
        input_states: list[DensityMatrix],
        outputs: dict,
        basis: OperatorBasis | None = None,
    ) -> "TomographySet":
        """Build from lists of density matrices (outputs keyed by time)."""
        dim = input_states[0].dim
        basis = basis or build_basis(dim)
        cols_in = np.column_stack([coords_of(s.entries, basis) for s in input_states])
        cols_out = {
            float(t): np.column_stack([coords_of(s.entries, basis) for s in states])
            for t, states in outputs.items()
        }
        return cls(dim=dim, inputs=cols_in, outputs=cols_out)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "times_s": [float(t) for t in self.times],
            "inputs": self.inputs.T.tolist(),
            "outputs": {repr(float(t)): self.outputs[t].T.tolist() for t in self.times},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TomographySet":
        """Read a set written by ``to_json``.

        Raises:
            ValueError: if ``inputs`` or an ``outputs[t]`` matrix holds a
                NaN or an infinity (checked here, where data enters, rather
                than for every set built in memory).
        """
        inputs = np.asarray(obj["inputs"], dtype=float).T
        outputs = {
            float(t): np.asarray(cols, dtype=float).T for t, cols in obj["outputs"].items()
        }
        for name, mat in [("inputs", inputs)] + [
            (f"outputs[{t}]", o) for t, o in outputs.items()
        ]:
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} has a non-finite entry")
        return cls(dim=int(obj["dim"]), inputs=inputs, outputs=outputs)


def _output_at(ts: TomographySet, t: float) -> np.ndarray:
    try:
        return ts.outputs[float(t)]
    except KeyError:
        raise KeyError(
            f"no outputs measured at t = {t}; available times: {list(ts.times)}"
        ) from None


def symmetrize(ts: TomographySet, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized input/output matrices at time t.

    Both state matrices are multiplied by the transposed input matrix,
    turning the overdetermined d**2 x N system into a square one; the
    symmetrized input matrix is symmetric positive semi-definite.
    """
    mo = _output_at(ts, t)
    mi_sym = ts.inputs @ ts.inputs.T
    mo_sym = mo @ ts.inputs.T
    return mi_sym, mo_sym


def _checked_gram_factor(mi: np.ndarray, dim: int, label: str):
    """Cholesky factor of mi mi^T after the rank and condition checks."""
    mi_sym = mi @ mi.T
    rank = int(np.linalg.matrix_rank(mi))
    if rank < dim * dim:
        raise CompletenessError(
            f"{label}: input states span only rank {rank} < {dim * dim}", rank=rank
        )
    cond = float(np.linalg.cond(mi_sym))
    if cond > MAX_CONDITION:
        raise IllConditionedError(
            f"{label}: symmetrized input matrix condition {cond:.3e} exceeds "
            f"{MAX_CONDITION:.0e}; refusing inversion",
            cond=cond,
        )
    return cho_factor(mi_sym)


def _solve_process(mi: np.ndarray, mo: np.ndarray, dim: int, label: str) -> np.ndarray:
    """P from  mo_sym = P mi_sym  via Cholesky on the Gram matrix."""
    return cho_solve(_checked_gram_factor(mi, dim, label), (mo @ mi.T).T).T


def reconstruct_process(ts: TomographySet, t: float) -> ProcessMatrix:
    """Linear-inversion estimate of the process matrix at time t.

    Solves the symmetrized system as a positive-definite linear solve
    (never by forming an explicit inverse), with the input Gram matrix
    checked and factored once per TomographySet.  Exact on noiseless data
    for any full-rank input set.

    Raises:
        CompletenessError: if the input states are rank-deficient.
        IllConditionedError: if the symmetrized matrix condition exceeds
            MAX_CONDITION.
        KeyError: if no outputs were measured at ``t``.
    """
    mo = _output_at(ts, t)
    p = cho_solve(ts._gram_factor, (mo @ ts.inputs.T).T).T
    return ProcessMatrix(dim=ts.dim, matrix=p, duration_s=float(t))


def reconstruct_processes(ts: TomographySet) -> list[ProcessMatrix]:
    """:func:`reconstruct_process` at every measured time, in time order.

    All times share one Gram factor and one Cholesky solve, whose
    right-hand sides are the symmetrized outputs side by side.

    Raises:
        CompletenessError, IllConditionedError: as reconstruct_process.
    """
    times = ts.times
    if not times.size:
        return []
    n2 = ts.dim * ts.dim
    mo = np.stack([ts.outputs[t] for t in times])  # (T, d**2, N)
    # column block k of the right-hand side is (mo_k inputs^T)^T
    rhs = ts.inputs @ mo.transpose(2, 0, 1).reshape(ts.n_states, -1)
    sol = cho_solve(ts._gram_factor, rhs).reshape(n2, len(times), n2)
    return [
        ProcessMatrix(dim=ts.dim, matrix=sol[:, k, :].T, duration_s=float(t))
        for k, t in enumerate(times)
    ]


def mean_log_liouvillian(processes: Sequence[ProcessMatrix]) -> Superoperator:
    """Averaged direct generator estimate, the mean of log(P_t) / t.

    Each process matrix contributes its principal log divided by its
    ``duration_s``; branch-cut and singularity errors propagate.
    """
    logs = principal_log(processes)
    mean = np.mean([log.matrix / p.duration_s for log, p in zip(logs, processes)], axis=0)
    return Superoperator(dim=processes[0].dim, matrix=mean)


def direct_liouvillian(ts: TomographySet, t: float) -> Superoperator:
    """Single-time generator estimate L = log(P(t)) / t.

    Propagates branch-ambiguity and singularity errors from the logarithm.
    """
    return mean_log_liouvillian([reconstruct_process(ts, t)])


def stepwise_processes(ts: TomographySet) -> list[ProcessMatrix]:
    """Per-interval process matrices of a time-resolved run.

    With the input matrix playing the role of the state matrix at time 0,
    consecutive state matrices are related by M_{n+1} = P_n M_n; each P_n is
    recovered by the same symmetrized inversion, always using the measured
    matrix at the earlier time (evolution can degrade completeness, so each
    step is rank-checked individually).

    Returns one process matrix per grid interval; ``duration_s`` is the
    interval length.
    """
    times = ts.times
    matrices = [ts.inputs] + [ts.outputs[t] for t in times]
    boundaries = np.concatenate([[0.0], times])
    steps = []
    for n in range(len(times)):
        label = f"step {n} (t = {boundaries[n]} -> {boundaries[n + 1]})"
        try:
            p = _solve_process(matrices[n], matrices[n + 1], ts.dim, label)
        except (CompletenessError, IllConditionedError) as err:
            raise type(err)(
                f"stepwise reconstruction failed at {label}: {err}",
                **(
                    {"rank": err.rank}
                    if isinstance(err, CompletenessError)
                    else {"cond": err.cond}
                ),
            ) from err
        steps.append(
            ProcessMatrix(
                dim=ts.dim,
                matrix=p,
                duration_s=float(boundaries[n + 1] - boundaries[n]),
            )
        )
    return steps
