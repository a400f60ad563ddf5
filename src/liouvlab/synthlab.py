"""Synthetic-experiment generator.

Stands in for the vapor-cell apparatus: ground-truth scenarios (free
relaxation, static linear/quadratic Zeeman fields, three-axis time-varying
fields), each exactly its recorded kind and params and all relaxing by
``DEFAULT_RELAXATION``, are forward-evolved exactly and dressed with a
minimal noise model:

* preparation imperfection -- each input state is mixed with the maximally
  mixed state, ``rho -> p rho + (1 - p) I/d``;
* measurement noise -- i.i.d. Gaussian perturbations of the traceless
  Bloch coordinates of every reported state, with the trace coordinate
  re-pinned exactly afterwards.

Generation is deterministic: a dataset's noise is drawn by one
``default_rng(seed)``, so its bits are a function of the seed alone, in any
batch and any evaluation order.  The forward model is batch-first:
``noisy_state_batch`` builds the stacks of many seeds at once.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .basis import DensityMatrix, _frozen_array, build_basis, coords_of
from .dynamics import TimeGrid, _expm, _time_ordered
from .estimation import RelaxationModel, df_per_time
from .exceptions import DimensionError
from .superop import Superoperator, _field_design, hamiltonian_superop, zeeman_hamiltonian
from .tomography import (
    TomographySet,
    canonical_input_states,
    mean_log_liouvillian,
    reconstruct_processes,
)

__all__ = [
    "NoiseSpec",
    "Scenario",
    "SCENARIO_DEFAULTS",
    "DEFAULT_RELAXATION",
    "make_scenario",
    "noisy_state_batch",
    "noisy_states",
    "generate_dataset",
    "state_fidelity",
    "calibrate_bloch_sigma",
]

# Vapor-cell relaxation parameters used as scenario defaults: residual
# Larmor frequencies (rad/s), per-axis dephasing rates and isotropic rate
# (1/s) of a warm paraffin-coated cell.
DEFAULT_RELAXATION = RelaxationModel(
    omega_residual=2.0 * np.pi * np.array([-0.397, 0.3071, 2.511]),
    gamma_dephase=np.array([7.0, 7.9, 6.6]),
    gamma_iso=13.3,
)

# Max relative process error of the direct reconstruction that the noise
# calibration targets; reproduces the error level of the reference
# relaxation measurement.
CALIBRATION_TARGET_DF = 0.04929
# noise seeds whose mean error the calibration matches to the target
CALIBRATION_SEEDS = (101, 102, 103)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model of the synthetic lab.

    Attributes:
        bloch_sigma: Gaussian sigma applied to each traceless Bloch
            coordinate of every reported state (finite, non-negative).
        prep_fidelity: weight of the intended state in the prepared
            mixture (1.0 = perfect preparation).
        seed: anchor for all derived randomness (a non-negative integer).
    """

    bloch_sigma: float = 0.0
    prep_fidelity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.bloch_sigma < math.inf:
            raise ValueError(f"bloch_sigma must be finite and non-negative, got {self.bloch_sigma}")
        if not 0.0 < self.prep_fidelity <= 1.0:
            raise ValueError("prep_fidelity must lie in (0, 1]")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseSpec":
        """A spec from the fields of ``to_json``, resolved against ``NoiseSpec().to_json()``
        by ``_resolved``, as the scenario params are: a field left out takes its default.

        Raises:
            ValueError: for an unknown field, a ``bloch_sigma`` or
                ``prep_fidelity`` that is not a finite real number, or a
                ``seed`` that is not an integer (a bool is neither).
        """
        return cls(**_resolved(obj, cls().to_json(), "noise fields", "noise field"))


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

# The three-axis drive, one row per axis x, y, z: the waveform of an
# amplitude (rad/s) and phase argument, its frequency (Hz) and phase (rad).
_DRIVE = (
    (lambda a, arg: a * (2.0 / np.pi) * np.arcsin(np.sin(arg)), 5000.0, 0.0),  # triangle
    (lambda a, arg: a * np.sin(arg), 7500.0, np.pi),
    (lambda a, arg: a * np.sin(arg), 10000.0, np.pi / 2.0),
)

_STATIC_GRID = {"t_min": 100e-6, "t_max": 180e-6, "n_times": 9}

# The scenario kinds and the defaults of their parameters: make_scenario
# accepts exactly these names and records them, resolved, as
# Scenario.params.
SCENARIO_DEFAULTS = {
    "relaxation_only": {"step": 0.5e-3, "n_times": 21},
    "static_quadratic_zeeman": {"q": 2.0 * np.pi * 1000.0, **_STATIC_GRID},
    "static_linear_zeeman": {"axis": "x", "omega": 2.0 * np.pi * 1000.0, **_STATIC_GRID},
    "three_axis_time_dependent": {
        "amplitudes": [2.0 * np.pi * f for f in (5000.0, 4000.0, 3000.0)],
        "dt": 4e-6,
        "n_steps": 50,
        "ramp": False,
        "ramp_s": 64e-6,
    },
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """Ground truth of one synthetic experiment: exactly a kind and its params.

    ``params`` are what ``make_scenario(kind, **params)`` takes and records;
    the grid, the Hamiltonian and the drive are derived from them, so they
    cannot disagree with the record.  Every generator is
    K(H_static) + omega(t) . K(F) - R_T with R_T of ``DEFAULT_RELAXATION``:
    a static kind has no drive, the driven kind a zero ``static_hamiltonian``
    and per-axis Larmor drives, optionally ramped up over ``ramp_s`` seconds.
    The inputs are the canonical input states.  Derived quantities and the
    noiseless propagators are cached.
    """

    kind: str
    params: dict

    @functools.cached_property
    def is_static(self) -> bool:
        return self.kind != "three_axis_time_dependent"

    @functools.cached_property
    def ramp_s(self) -> float | None:
        """Length of the settling ramp; None without one."""
        return self.params.get("ramp_s")

    @functools.cached_property
    def grid(self) -> TimeGrid:
        p = self.params
        if self.kind == "relaxation_only":
            return TimeGrid.uniform(p["step"], p["n_times"])
        if self.kind == "three_axis_time_dependent":
            return TimeGrid.uniform(p["dt"], p["n_steps"])
        return TimeGrid(times=np.linspace(p["t_min"], p["t_max"], p["n_times"]))

    @functools.cached_property
    def static_hamiltonian(self) -> np.ndarray:
        """The fixed Hamiltonian H_static; zero for free decay and for the driven kind."""
        p, omega = self.params, np.zeros(3)
        if "axis" in p:
            omega[_AXIS_INDEX[p["axis"]]] = p["omega"]
        return _frozen_array(zeeman_hamiltonian(omega, (0.0, p.get("q", 0.0), 0.0)))

    def omegas_nominal(self, times) -> np.ndarray:
        """Unramped per-axis drive values; zeros for static scenarios."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.zeros((times.size, 3))
        amplitudes = self.params.get("amplitudes", ())  # none for a static kind
        for k, (a, (wave, frequency, phase)) in enumerate(zip(amplitudes, _DRIVE)):
            out[:, k] += wave(a, 2.0 * np.pi * frequency * times + phase)
        return out

    def drive(self, times) -> np.ndarray:
        """Applied per-axis drive, the ramp included; one row per time."""
        ramp = np.minimum(np.atleast_1d(times) / self.ramp_s, 1.0) if self.ramp_s else 1.0
        return self.omegas_nominal(times) * np.reshape(ramp, (-1, 1))

    def hamiltonian(self, t: float) -> np.ndarray:
        return self.static_hamiltonian + zeeman_hamiltonian(self.drive(t)[0])

    @functools.cached_property
    def _fixed_generator(self) -> np.ndarray:
        """K(H_static) - R_T, built once per scenario."""
        k = hamiltonian_superop(self.static_hamiltonian, build_basis(3)).matrix
        return _frozen_array(k - DEFAULT_RELAXATION.superoperator().matrix)

    def _generators(self, times) -> np.ndarray:
        """K(H_static) + omega(t) @ ``_field_design()``^T - R_T, (T, 9, 9), in one product."""
        k = self.drive(times) @ _field_design().T
        return k.reshape(-1, 9, 9) + self._fixed_generator

    def liouvillian(self, t: float) -> Superoperator:
        """Full generator at time t: Hamiltonian part minus relaxation."""
        return Superoperator(dim=3, matrix=self._generators(t)[0])

    def interval_liouvillians(self) -> list[Superoperator]:
        """Per-interval generators, sampled at the interval midpoints."""
        return [Superoperator(dim=3, matrix=g) for g in self._generators(self.grid.midpoints)]

    @functools.cached_property
    def propagators(self) -> np.ndarray:
        """(T, 9, 9) cumulative ground-truth propagators, one per grid time."""
        if self.is_static:
            mats = _expm(self._fixed_generator, self.grid.times)
        else:
            mats = _time_ordered(self._generators(self.grid.midpoints), self.grid.durations)
        return _frozen_array(mats)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "grid": self.grid.to_json(),
        }


def _has_type_of(value, like) -> bool:
    """Whether ``value`` has the type of the default ``like``.

    A bool takes only a bool; an int an integral number and a float a
    finite real number, neither of them a bool (numpy scalars pass); a
    string a string; and a list a list or tuple of as many values of the
    type of its first entry.
    """
    if isinstance(like, list):
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(like)
            and all(_has_type_of(v, like[0]) for v in value)
        )
    if isinstance(like, (bool, str)):
        return isinstance(value, type(like))
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) if isinstance(like, int) else math.isfinite(value)


def _type_name(like) -> str:
    if isinstance(like, list):
        return f"a list of {len(like)} {_type_name(like[0]).split(' ', 1)[1]}s"
    names = {bool: "a bool", int: "an integer", float: "a real number", str: "a string"}
    return names[type(like)]


def _resolved(given: dict, defaults: dict, plural: str, singular: str) -> dict:
    """``{**defaults, **given}``, each value cast to the type of its default.

    Every given value must have the type of its default (``_has_type_of``);
    ``plural`` and ``singular`` name the keys in the errors.
    """
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {plural}: {sorted(unknown)}")
    for k, v in given.items():
        if not _has_type_of(v, defaults[k]):
            raise ValueError(f"{singular} {k!r} must be {_type_name(defaults[k])}, got {v!r}")
    return {
        k: [float(a) for a in v] if isinstance(v, (list, tuple)) else type(defaults[k])(v)
        for k, v in {**defaults, **given}.items()
    }


def make_scenario(kind: str, **params) -> Scenario:
    """Construct one of the four reference scenarios.

    Kinds and their parameters (all optional; defaults in SCENARIO_DEFAULTS):

    * ``relaxation_only``: free decay;
      ``step`` [0.5e-3], ``n_times`` [21].
    * ``static_quadratic_zeeman``: H = q F_y**2; ``q`` [2 pi 1000 rad/s],
      ``t_min`` [100e-6], ``t_max`` [180e-6], ``n_times`` [9].
    * ``static_linear_zeeman``: H = omega F_axis; ``axis`` ["x"],
      ``omega`` [2 pi 1000 rad/s], grid as above.
    * ``three_axis_time_dependent``: triangle at 5 kHz (phase 0) on x and
      sines at 7.5 / 10 kHz (phases pi, pi/2) on y / z;
      ``amplitudes`` [2 pi (5000, 4000, 3000) rad/s], ``dt`` [4e-6],
      ``n_steps`` [50], ``ramp`` [False] enabling a 64 us linear
      supply-settling ramp (``ramp_s`` to override its length; recorded
      as None without the ramp).

    Every kind relaxes by ``DEFAULT_RELAXATION``.  A None parameter takes
    its default.  The resolved parameters are recorded as ``params``, so
    ``make_scenario(s.kind, **s.params)`` rebuilds a scenario ``s``, also
    after a JSON round trip of ``params``.  The axis and the time grid are
    checked here, before the scenario is returned.

    Raises:
        ValueError: for an unknown kind, unknown parameter names, a
            parameter of another type than its default (a bool for
            ``ramp``, an integer for ``n_times`` and ``n_steps``, a finite
            real number for the others, three of them for ``amplitudes``
            and a string for ``axis``), an axis other than x, y or z, a
            ``ramp_s`` <= 0 with the ramp on, or grid parameters that
            give no strictly increasing positive times.
        DimensionError: for a grid of no times.
    """
    defaults = SCENARIO_DEFAULTS.get(kind)
    if defaults is None:
        raise ValueError(f"unknown scenario kind {kind!r}")
    given = {k: defaults.get(k) if v is None else v for k, v in params.items()}
    p = _resolved(given, defaults, f"parameters for {kind!r}", "parameter")
    if "axis" in p and p["axis"] not in _AXIS_INDEX:
        raise ValueError(f"axis must be x, y or z, got {p['axis']!r}")
    if kind == "three_axis_time_dependent":
        if not p["ramp"]:
            p["ramp_s"] = None
        elif p["ramp_s"] <= 0.0:
            raise ValueError(f"ramp_s must be positive with the ramp on, got {p['ramp_s']!r}")
    scenario = Scenario(kind=kind, params=p)
    scenario.grid  # noqa: B018 - a bad grid raises here, not at first use
    return scenario


@functools.cache
def _input_coords() -> np.ndarray:
    """Bloch coordinates of the canonical input states, one column per state."""
    basis = build_basis(3)
    return _frozen_array(
        np.column_stack([coords_of(s.entries, basis) for s in canonical_input_states()])
    )


def noisy_state_batch(propagators: np.ndarray, noise: NoiseSpec, seeds) -> np.ndarray:
    """The (m, T+1, 9, N) state stacks of m datasets, one per seed: each the
    reported inputs, then the outputs.  ``noise.seed`` is not used.

    The prepared inputs are the canonical input states mixed down by
    ``prep_fidelity``; outputs are their images under the (T, 9, 9)
    ``propagators`` before measurement noise, all times from one stacked
    product, computed once for the batch.  Measurement noise is Gaussian on
    the traceless coordinates: a seed's stack gets ``bloch_sigma`` times
    ``default_rng(seed).standard_normal((T+1, 8, N))``, and the trace row is
    re-pinned exactly.  So a stack is a function of its seed alone, in any
    batch and any order; and as the draw fills in C order, the noise of
    times 0..k does not depend on how many times follow.  With
    ``bloch_sigma`` 0 no generator is built.

    Raises:
        DimensionError: for anything but a (T, 9, 9) stack with T >= 1.
        ValueError: for a seed that is not a non-negative integer (a bool
            is not one), at any ``bloch_sigma``.
    """
    shape = np.shape(propagators)
    if len(shape) != 3 or shape[0] < 1 or shape[1:] != (9, 9):
        raise DimensionError(f"propagators must be a (T, 9, 9) stack with T >= 1, got {shape}")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(f"seeds must be integers, got {seed!r}")
        if seed < 0:
            raise ValueError(f"seeds must be non-negative, got {seed}")
    mm = np.zeros(9)
    mm[-1] = np.sqrt(1.0 / 6.0)
    prepared = noise.prep_fidelity * _input_coords() + (1.0 - noise.prep_fidelity) * mm[:, None]

    # states[:, 0] is the reported input matrix, states[:, k] the outputs at time k
    noiseless = np.concatenate([prepared[None], propagators @ prepared])
    states = np.repeat(noiseless[None], len(seeds), axis=0)
    if noise.bloch_sigma > 0:
        for stack, seed in zip(states, seeds):
            draws = np.random.default_rng(seed).standard_normal(stack[:, :-1].shape)
            stack[:, :-1] += noise.bloch_sigma * draws
    states[:, :, -1] = mm[-1]
    return states


def noisy_states(propagators: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """The (T+1, 9, N) state stack of one dataset: ``noisy_state_batch`` of
    the one seed ``noise.seed``."""
    return noisy_state_batch(propagators, noise, [noise.seed])[0]


def generate_dataset(scenario: Scenario, noise: NoiseSpec) -> TomographySet:
    """Forward-simulate a tomography dataset for a scenario (see ``noisy_states``)."""
    return TomographySet(states=noisy_states(scenario.propagators, noise), times=scenario.grid.times)


def state_fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))**2.

    Marginally negative eigenvalues (reconstruction round-off) are clipped
    to zero for the evaluation only.

    Raises:
        ValueError: if either state is severely non-PSD (eigenvalue below
            -1e-3).
        DimensionError: on dimension mismatch.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")

    def _psd_part(m, name):
        vals, vecs = np.linalg.eigh(m)
        if vals.min() < -1e-3:
            raise ValueError(f"{name} is severely non-PSD (min eigenvalue {vals.min():.3e})")
        return np.clip(vals, 0.0, None), vecs

    va, ua = _psd_part(a.entries, "first state")
    sqrt_a = (ua * np.sqrt(va)) @ ua.conj().T
    vb, _ = _psd_part(b.entries, "second state")
    inner = sqrt_a @ b.entries @ sqrt_a
    vals = np.linalg.eigvalsh(inner)
    return float(np.sqrt(np.clip(vals, 0.0, None)).sum() ** 2)


def _direct_max_df(dataset: TomographySet) -> float:
    """Max relative process error of the averaged direct estimate."""
    pms = reconstruct_processes(dataset)
    return float(df_per_time(pms, mean_log_liouvillian(pms).matrix).max())


def calibrate_bloch_sigma() -> float:
    """Bloch-coordinate sigma whose direct reconstruction error hits a target.

    Fixed-point iteration on sigma (the max relative process error is very
    nearly linear in sigma): the returned value makes the max relative error
    of the direct reconstruction of the default ``relaxation_only`` scenario,
    averaged over CALIBRATION_SEEDS, match CALIBRATION_TARGET_DF within 2%
    (at most 12 iterations).  Deterministic.
    """
    scenario = make_scenario("relaxation_only")

    def metric(sigma: float) -> float:
        vals = [
            _direct_max_df(generate_dataset(scenario, NoiseSpec(bloch_sigma=sigma, seed=s)))
            for s in CALIBRATION_SEEDS
        ]
        return float(np.mean(vals))

    sigma = 0.004
    for _ in range(12):
        m = metric(sigma)
        if abs(m - CALIBRATION_TARGET_DF) <= 0.02 * CALIBRATION_TARGET_DF:
            return sigma
        sigma *= CALIBRATION_TARGET_DF / m
    return sigma
