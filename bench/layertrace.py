"""Per-layer trace taken from outside the package.

``Tracer.install`` replaces each traced liouvlab function by a wrapper
wherever a loaded ``liouvlab`` module holds a reference to it, so calls
between modules and calls inside one module (through its globals) are
both seen.  A span records calls and self time: its duration minus the
time covered by the traced spans it encloses.  ``scipy.linalg.expm`` and
``expm_frechet`` are only counted, so their time stays with the caller.
Nothing here changes what the wrapped functions compute or return.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import scipy.linalg

# (module, function) pairs timed as spans; a layer's self time is the sum
# over its module's spans.  basis and superop are traced as whole layers.
SPANS = [
    ("synthlab", "generate_dataset"),
    ("tomography", "reconstruct_process"),
    ("tomography", "stepwise_processes"),
    ("dynamics", "principal_log"),
    ("estimation", "mle_liouvillian"),
    ("estimation", "fit_relaxation_model"),
    ("estimation", "direct_hamiltonian"),
    ("estimation", "estimate_fields"),
    ("estimation", "bootstrap"),
    ("basis", "build_basis"),
    ("basis", "coords_of"),
    ("basis", "matrix_of"),
    ("basis", "vectorize"),
    ("basis", "devectorize"),
    ("superop", "hamiltonian_superop"),
    ("superop", "dissipator_superop"),
    ("superop", "explicit_qutrit_superop"),
    ("superop", "params_from_superop"),
    ("superop", "assemble_liouvillian"),
    ("superop", "spin1_operators"),
    ("superop", "zeeman_hamiltonian"),
]
COUNTED = ["expm", "expm_frechet"]


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        """Forget everything recorded so far; installed wrappers stay."""
        self.calls = Counter()
        self.self_s = Counter()
        self.mle_iterations = 0
        self.draws = 0
        self.draws_failed = 0
        self._stack = []  # per open span: seconds covered by its child spans

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if name == "estimation.mle_liouvillian":
                self.mle_iterations += result.iterations
            elif name == "estimation.bootstrap":
                self.draws += len(result.samples) + result.n_failed
                self.draws_failed += result.n_failed
            return result

        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> list:
        """Wrap every traced function in every loaded liouvlab module.

        Returns the replaced (module, name, original) triples for
        ``uninstall``.
        """
        modules = [m for n, m in sys.modules.items() if n == "liouvlab" or n.startswith("liouvlab.")]
        replaced = []
        for mod_name, fn_name in SPANS:
            original = getattr(sys.modules[f"liouvlab.{mod_name}"], fn_name)
            wrapper = self.span(f"{mod_name}.{fn_name}", original)
            replaced += _replace(modules, original, wrapper)
        for fn_name in COUNTED:
            original = getattr(scipy.linalg, fn_name)
            wrapper = self.counter(f"scipy.{fn_name}", original)
            replaced += _replace(modules + [scipy.linalg], original, wrapper)
        return replaced

    def layer_self_ms(self, layer: str) -> float:
        return 1e3 * sum(s for name, s in self.self_s.items() if name.startswith(layer + "."))


def _replace(modules, original, wrapper) -> list:
    replaced = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                replaced.append((mod, attr, original))
    return replaced


def uninstall(replaced: list):
    for mod, attr, original in replaced:
        setattr(mod, attr, original)


def per_layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op figures of one traced run, named as in BENCHMARK.json."""

    def calls(name):
        return tracer.calls[name] / n_ops

    def self_ms(name):
        return 1e3 * tracer.self_s[name] / n_ops

    out = {}
    for name in (
        "synthlab.generate_dataset",
        "tomography.reconstruct_process",
        "dynamics.principal_log",
        "estimation.mle_liouvillian",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in (
        "estimation.fit_relaxation_model",
        "estimation.bootstrap",
        "estimation.direct_hamiltonian",
        "tomography.stepwise_processes",
        "estimation.estimate_fields",
        "cli",
    ):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    out["estimation.mle_liouvillian.iterations"] = (tracer.mle_iterations / n_ops, "count")
    # a workload without bootstrap has no draw that could fail
    ok = 1.0 - tracer.draws_failed / tracer.draws if tracer.draws else 1.0
    out["estimation.bootstrap.draws_ok_ratio"] = (ok, "ratio")
    for name in (
        "basis.coords_of",
        "superop.hamiltonian_superop",
        "superop.dissipator_superop",
        "superop.explicit_qutrit_superop",
        "scipy.expm",
        "scipy.expm_frechet",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
    out["basis.self_ms"] = (tracer.layer_self_ms("basis") / n_ops, "ms")
    out["superop.self_ms"] = (tracer.layer_self_ms("superop") / n_ops, "ms")
    return out
