"""Correctness checks on the CLI's artifacts, computed apart from liouvlab.

Every reference value here (the relaxation truth, the spin-1 operators,
the nine-parameter Hermitian layout, the three-axis drive waveforms) is
written out from the scenario definitions, not taken from the package, so
a fault in the package cannot also hide in its own check.  Each check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

# Bloch-coordinate noise of every simulated dataset: the value
# ``calibrate_bloch_sigma()`` returns for the default relaxation scenario.
SIGMA = 0.004214459123596145

# Ground truth of the default relaxation model, in the order of the fit's
# parameter vector: residual Larmor frequencies (rad/s), per-axis dephasing
# rates and the isotropic rate (1/s).
RELAXATION_NAMES = (
    "omega_x", "omega_y", "omega_z", "gamma_x", "gamma_y", "gamma_z", "gamma_iso",
)
RELAXATION_TRUTH = np.array(
    [2 * np.pi * -0.397, 2 * np.pi * 0.3071, 2 * np.pi * 2.511, 7.0, 7.9, 6.6, 13.3]
)
# Half-widths of the 16-84% intervals of a 1000-draw bootstrap at SIGMA
# (dataset seed 401); the scale for relaxation fits made without bootstrap.
RELAXATION_HALF_WIDTHS = np.array([0.595, 0.603, 0.61, 1.01, 1.04, 1.038, 1.813])

# static_quadratic_zeeman default: H = q F_y^2.
STATIC_Q = 2 * np.pi * 1000.0
STATIC_MAX_REL_ERROR = 0.10

# three_axis_time_dependent default with --ramp: a 50-step grid of 4 us,
# a 64 us linear supply-settling ramp, and these drives (rad/s, Hz, rad).
FIELD_DT = 4e-6
FIELD_STEPS = 50
FIELD_RAMP_S = 64e-6
FIELD_AMPLITUDES = 2 * np.pi * np.array([5000.0, 4000.0, 3000.0])
FIELD_MAX_RMS_SHARE = 0.05
FIELD_MIN_KNOWN_BETTER = 0.90

_S2 = 1.0 / np.sqrt(2.0)
SPIN1 = (
    _S2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex),
    _S2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.diag([1.0, 0.0, -1.0]).astype(complex),
)


def hermitian_from_params(h) -> np.ndarray:
    """3x3 Hermitian matrix from the nine reported parameters.

    Diagonal h0, h5, h8; off-diagonals (h1 - i h2), (h3 - i h4), (h6 - i h7)
    above the diagonal and their conjugates below.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (9,):
        raise ValueError(f"expected 9 Hermitian parameters, got shape {h.shape}")
    return np.array(
        [
            [h[0], h[1] - 1j * h[2], h[3] - 1j * h[4]],
            [h[1] + 1j * h[2], h[5], h[6] - 1j * h[7]],
            [h[3] + 1j * h[4], h[6] + 1j * h[7], h[8]],
        ]
    )


def traceless(m: np.ndarray) -> np.ndarray:
    return m - np.trace(m) / m.shape[0] * np.eye(m.shape[0])


def larmor_hamiltonian(omega) -> np.ndarray:
    return sum(w * f for w, f in zip(omega, SPIN1))


def static_truth() -> np.ndarray:
    return STATIC_Q * SPIN1[1] @ SPIN1[1]


def hamiltonian_error(h_params, truth: np.ndarray) -> float:
    """Relative Frobenius distance between traceless parts."""
    ref = traceless(truth)
    return float(
        np.linalg.norm(traceless(hermitian_from_params(h_params)) - ref) / np.linalg.norm(ref)
    )


def field_midpoints() -> np.ndarray:
    return FIELD_DT * (np.arange(FIELD_STEPS) + 0.5)


def nominal_fields(t) -> np.ndarray:
    """Unramped drive (rad/s) per axis: a 5 kHz triangle on x, sines of
    7.5 kHz (phase pi) on y and 10 kHz (phase pi/2) on z."""
    t = np.asarray(t, dtype=float)
    ax, ay, az = FIELD_AMPLITUDES
    x = ax * (2 / np.pi) * np.arcsin(np.sin(2 * np.pi * 5000.0 * t))
    y = ay * np.sin(2 * np.pi * 7500.0 * t + np.pi)
    z = az * np.sin(2 * np.pi * 10000.0 * t + np.pi / 2)
    return np.column_stack([x, y, z])


def applied_fields(t) -> np.ndarray:
    """Drive including the linear settling ramp."""
    t = np.asarray(t, dtype=float)
    return nominal_fields(t) * np.minimum(t / FIELD_RAMP_S, 1.0)[:, None]


def _estimate_failures(label: str, est, half_widths) -> list[str]:
    est = np.asarray(est, dtype=float)
    return [
        f"{label}: {name} estimate {est[k]:.4g} more than 3 half-widths from {RELAXATION_TRUTH[k]:.4g}"
        for k, name in enumerate(RELAXATION_NAMES)
        if not abs(est[k] - RELAXATION_TRUTH[k]) <= 3 * half_widths[k]
    ]


def check_relaxation(report: dict) -> list[str]:
    """Truth inside every 16-84% interval; estimate within 3 half-widths."""
    ci = report.get("ci") or {}
    missing = [n for n in RELAXATION_NAMES if n not in ci]
    if missing:
        return [f"relaxation: no bootstrap interval for {missing}"]
    failures = [
        f"relaxation: {name} truth {truth:.4g} outside [{ci[name][0]:.4g}, {ci[name][1]:.4g}]"
        for name, truth in zip(RELAXATION_NAMES, RELAXATION_TRUTH)
        if not ci[name][0] <= truth <= ci[name][1]
    ]
    half_widths = [0.5 * (ci[name][1] - ci[name][0]) for name in RELAXATION_NAMES]
    return failures + _estimate_failures("relaxation", report["params"], half_widths)


def check_static(relaxation: list[dict], mle: list[dict], direct: list[dict]) -> list[str]:
    """Per-dataset reports of one round.

    Every relaxation estimate lies within 3 reference half-widths of the
    truth.  Over the datasets, the median Hamiltonian error of each method
    is <= 0.10, and the median of the paired differences (MLE minus
    direct) is <= 0.
    """
    failures = []
    for k, r in enumerate(relaxation):
        failures += _estimate_failures(f"static: relaxation fit {k}", r["params"], RELAXATION_HALF_WIDTHS)
    truth = static_truth()
    err_mle = np.array([hamiltonian_error(r["params"], truth) for r in mle])
    err_direct = np.array([hamiltonian_error(r["params"], truth) for r in direct])
    for label, err in (("mle", err_mle), ("direct", err_direct)):
        if not np.median(err) <= STATIC_MAX_REL_ERROR:
            failures.append(f"static: median {label} Hamiltonian error {np.median(err):.4f} > 0.10")
    if not np.median(err_mle - err_direct) <= 0:
        failures.append(
            f"static: mle error exceeds direct by {np.median(err_mle - err_direct):.2e} in median"
        )
    return failures


def check_fields(known_mle: np.ndarray, unknown_mle: np.ndarray, known_direct: np.ndarray) -> list[str]:
    """Rows of fields.csv (time first, flag last) of the three fits.

    Known-form fields track the drive to 5% RMS of each amplitude after the
    ramp; the known-form Hamiltonian is no further from the truth than the
    unknown-form one on at least 90% of intervals.
    """
    mids = field_midpoints()
    failures = []
    for label, rows, width in (
        ("known mle", known_mle, 5), ("unknown mle", unknown_mle, 11), ("known direct", known_direct, 5)
    ):
        if rows.shape != (FIELD_STEPS, width):
            return [f"fields: {label} has shape {rows.shape}, expected ({FIELD_STEPS}, {width})"]
        if not np.allclose(rows[:, 0], mids, rtol=0, atol=1e-12):
            failures.append(f"fields: {label} is not labelled with the interval midpoints")
    settled = mids > FIELD_RAMP_S
    nominal = nominal_fields(mids[settled])
    for label, rows in (("known mle", known_mle), ("known direct", known_direct)):
        rms = np.sqrt(np.mean((rows[settled, 1:4] - nominal) ** 2, axis=0))
        share = rms / FIELD_AMPLITUDES
        if not (share <= FIELD_MAX_RMS_SHARE).all():
            failures.append(f"fields: {label} RMS/amplitude {np.round(share, 4).tolist()} > 0.05")
    truth = [traceless(larmor_hamiltonian(om)) for om in applied_fields(mids)]
    d_known = np.array(
        [np.linalg.norm(traceless(larmor_hamiltonian(r[1:4])) - h) for r, h in zip(known_mle, truth)]
    )
    d_unknown = np.array(
        [np.linalg.norm(traceless(hermitian_from_params(r[1:10])) - h) for r, h in zip(unknown_mle, truth)]
    )
    share = float(np.mean(d_known <= d_unknown * (1 + 1e-12)))
    if not share >= FIELD_MIN_KNOWN_BETTER:
        failures.append(f"fields: known form no worse on only {share:.0%} of intervals (< 90%)")
    return failures
