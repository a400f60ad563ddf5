"""Synthetic-experiment generator.

Stands in for the vapor-cell apparatus: ground-truth scenarios (free
relaxation, static linear/quadratic Zeeman fields, three-axis time-varying
fields) are forward-evolved exactly and dressed with a minimal noise model:

* preparation imperfection -- each input state is mixed with the maximally
  mixed state, ``rho -> p rho + (1 - p) I/d``;
* measurement noise -- i.i.d. Gaussian perturbations of the traceless
  Bloch coordinates of every reported state, with the trace coordinate
  re-pinned exactly afterwards.

Generation is deterministic: every state matrix derives its randomness
from (seed, time-point index), so datasets are bit-identical for a given
NoiseSpec regardless of evaluation order.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .basis import DensityMatrix, _frozen_array, build_basis, coords_of
from .dynamics import ProcessMatrix, TimeGrid, _time_ordered
from .estimation import RelaxationModel, _df_per_time
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
            coordinate of every reported state.
        prep_fidelity: weight of the intended state in the prepared
            mixture (1.0 = perfect preparation).
        seed: anchor for all derived randomness (non-negative).
    """

    bloch_sigma: float = 0.0
    prep_fidelity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.bloch_sigma < 0:
            raise ValueError("bloch_sigma must be non-negative")
        if not 0.0 < self.prep_fidelity <= 1.0:
            raise ValueError("prep_fidelity must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def to_json(self) -> dict:
        return {
            "bloch_sigma": self.bloch_sigma,
            "prep_fidelity": self.prep_fidelity,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseSpec":
        """A spec from the fields of ``to_json``; a field left out takes its default.

        Raises:
            ValueError: for an unknown field, a ``bloch_sigma`` or
                ``prep_fidelity`` that is not a finite real number, or a
                ``seed`` that is not an integer (a bool is neither).
        """
        unknown = set(obj) - {"bloch_sigma", "prep_fidelity", "seed"}
        if unknown:
            raise ValueError(f"unknown noise fields: {sorted(unknown)}")
        for name, like in (("bloch_sigma", 0.0), ("prep_fidelity", 1.0), ("seed", 0)):
            if name in obj and not _has_type_of(obj[name], like):
                kind = _type_name(like)
                raise ValueError(f"noise field {name!r} must be {kind}, got {obj[name]!r}")
        return cls(
            bloch_sigma=float(obj.get("bloch_sigma", 0.0)),
            prep_fidelity=float(obj.get("prep_fidelity", 1.0)),
            seed=int(obj.get("seed", 0)),
        )


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


@dataclass(frozen=True)
class Scenario:
    """Ground truth of one synthetic experiment: a kind and its params.

    ``params`` are what ``make_scenario(kind, **params)`` takes and records;
    the grid, the Hamiltonian and the drive are derived from them, so they
    cannot disagree with the record.  A static kind has a fixed
    ``static_hamiltonian`` (zero for free decay); the driven kind has
    per-axis Larmor drives, optionally ramped up over ``ramp_s`` seconds.
    The inputs are the canonical input states.  Derived quantities, the
    noiseless propagators and the input Bloch coordinates are cached.
    """

    kind: str
    params: dict
    relaxation: RelaxationModel

    @functools.cached_property
    def is_static(self) -> bool:
        return self.kind != "three_axis_time_dependent"

    @functools.cached_property
    def ramp_s(self) -> Optional[float]:
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
    def static_hamiltonian(self) -> Optional[np.ndarray]:
        """The fixed Hamiltonian of a static kind (zero for free decay); None if driven."""
        if not self.is_static:
            return None
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
        if self.is_static:
            return self.static_hamiltonian
        return zeeman_hamiltonian(self.drive(t)[0])

    @functools.cached_property
    def _fixed_generator(self) -> np.ndarray:
        """K_static - R_T, built once per scenario; K_static is 0 for a driven one."""
        basis = build_basis(3)
        k = hamiltonian_superop(self.static_hamiltonian, basis).matrix if self.is_static else 0.0
        return _frozen_array(k - self.relaxation.superoperator().matrix)

    def _generators(self, times) -> np.ndarray:
        """K_static + omega(t) @ ``_field_design()``^T - R_T, (T, 9, 9), in one product."""
        k = self.drive(times) @ _field_design().T
        return k.reshape(-1, 9, 9) + self._fixed_generator

    def liouvillian(self, t: float) -> Superoperator:
        """Full generator at time t: Hamiltonian part minus relaxation."""
        return Superoperator(dim=3, matrix=self._generators(t)[0])

    def interval_liouvillians(self) -> list[Superoperator]:
        """Per-interval generators, sampled at the interval midpoints."""
        return [Superoperator(dim=3, matrix=g) for g in self._generators(self.grid.midpoints)]

    def propagators(self) -> list[ProcessMatrix]:
        """Cumulative ground-truth propagators, one per grid time."""
        return [
            ProcessMatrix(dim=3, matrix=m, duration_s=float(t))
            for m, t in zip(self._propagator_stack, self.grid.times)
        ]

    @functools.cached_property
    def _propagator_stack(self) -> np.ndarray:
        if self.is_static:
            mats = scipy.linalg.expm(self._fixed_generator * self.grid.times[:, None, None])
        else:
            mats = _time_ordered(self._generators(self.grid.midpoints), self.grid.durations)
        return _frozen_array(mats)

    @functools.cached_property
    def _input_coords(self) -> np.ndarray:
        """Bloch coordinates of the input states, one column per state."""
        basis = build_basis(3)
        return _frozen_array(
            np.column_stack([coords_of(s.entries, basis) for s in canonical_input_states()])
        )

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


def _resolved(kind: str, given: dict) -> dict:
    """``{**defaults, **given}`` of a kind, each value cast to its default's type.

    A given None stands for the default; any other value must have the
    type of its default (``_has_type_of``).
    """
    try:
        defaults = SCENARIO_DEFAULTS[kind]
    except KeyError:
        raise ValueError(f"unknown scenario kind {kind!r}") from None
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {kind!r}: {sorted(unknown)}")
    given = {k: v for k, v in given.items() if v is not None}
    for k, v in given.items():
        if not _has_type_of(v, defaults[k]):
            raise ValueError(f"parameter {k!r} must be {_type_name(defaults[k])}, got {v!r}")
    return {
        k: [float(a) for a in v] if k == "amplitudes" else type(defaults[k])(v)
        for k, v in {**defaults, **given}.items()
    }


def make_scenario(kind: str, **params) -> Scenario:
    """Construct one of the four reference scenarios.

    Kinds and their parameters (all optional; defaults in SCENARIO_DEFAULTS):

    * ``relaxation_only``: free decay under the default relaxation model;
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

    All kinds accept ``relaxation`` (a RelaxationModel), which is not
    recorded.  The resolved parameters are recorded as ``params``, so
    ``make_scenario(s.kind, **s.params)`` rebuilds a scenario ``s`` (with
    the default relaxation), also after a JSON round trip of ``params``.
    The axis and the time grid are checked here, before the scenario is
    returned.

    Raises:
        ValueError: for an unknown kind, unknown parameter names, a
            parameter of another type than its default (a bool for
            ``ramp``, an integer for ``n_times`` and ``n_steps``, a finite
            real number for the others, three of them for ``amplitudes``
            and a string for ``axis``), an axis other than x, y or z, a
            ``relaxation`` that is not a RelaxationModel, or grid
            parameters that give no strictly increasing positive times.
        DimensionError: for a grid of no times.
    """
    relaxation = params.pop("relaxation", DEFAULT_RELAXATION)
    if not isinstance(relaxation, RelaxationModel):
        raise ValueError(f"relaxation must be a RelaxationModel, got {relaxation!r}")
    p = _resolved(kind, params)
    if "axis" in p and p["axis"] not in _AXIS_INDEX:
        raise ValueError(f"axis must be x, y or z, got {p['axis']!r}")
    if kind == "three_axis_time_dependent" and not p["ramp"]:
        p["ramp_s"] = None
    scenario = Scenario(kind=kind, params=p, relaxation=relaxation)
    scenario.grid  # noqa: B018 - a bad grid raises here, not at first use
    return scenario


def generate_dataset(scenario: Scenario, noise: NoiseSpec) -> TomographySet:
    """Forward-simulate a tomography dataset for a scenario.

    The prepared inputs are the scenario's input states mixed down by
    ``prep_fidelity``; outputs are the exact propagator images of those
    prepared (pre-measurement-noise) states, all times from one stacked
    product.  Measurement noise is Gaussian on the traceless coordinates,
    applied independently to the reported input matrix and to each time
    point with sub-seeds derived from (seed, time index), so any evaluation
    order yields the same dataset; the trace row is re-pinned exactly.
    """
    pure = scenario._input_coords
    mm = np.zeros(9)
    mm[-1] = np.sqrt(1.0 / 6.0)
    prepared = noise.prep_fidelity * pure + (1.0 - noise.prep_fidelity) * mm[:, None]

    # states[0] is the reported input matrix, states[k] the outputs at time k
    states = np.concatenate([prepared[None], scenario._propagator_stack @ prepared])
    if noise.bloch_sigma > 0:
        shape = (prepared.shape[0] - 1, prepared.shape[1])
        draws = np.stack([
            np.random.default_rng([noise.seed, k]).normal(size=shape)
            for k in range(len(states))
        ])
        states[:, :-1] += draws * noise.bloch_sigma
    states[:, -1] = mm[-1]
    outputs = {float(t): out for t, out in zip(scenario.grid.times, states[1:])}
    return TomographySet(dim=3, inputs=states[0], outputs=outputs)


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
    return float(_df_per_time(pms, mean_log_liouvillian(pms).matrix).max())


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
