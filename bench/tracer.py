"""Per-layer tracing of the inducoh package, done entirely from outside it.

The layers are the package's modules.  `LAYERS` names the public
functions the benchmark times, grouped into the per-layer metrics of
`BENCHMARK.json`, together with the workload each group runs on and the
end-to-end metrics a change to it should move.

`Tracer` replaces every module attribute of the package that binds one
of those functions with a timing wrapper (so `model.compose`, a second
binding of `bogoliubov.compose`, is covered too) and puts the originals
back on exit.  Spans are aggregated in memory as they close: per
function the call count, the inclusive time and the self time, i.e.
the span minus the time covered by traced child spans.  Work a traced function does through an
untraced one counts toward its own self time.  Individual spans are not
kept, because the sweep workload makes on the order of a million calls
per run.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "inducoh"
MODULES = ("cli", "model", "bogoliubov", "moments", "fock", "validation")

_SWEEP_MOVES = ("ops_per_s", "op_p50_ms")
_MOVES = ("ops_per_s", "op_p50_ms", "op_p90_ms")


@dataclass(frozen=True)
class Layer:
    """One per-layer metric group: its functions, workloads and targets."""

    name: str
    functions: tuple[str, ...]
    workloads: tuple[str, ...]
    moves: tuple[str, ...]


LAYERS = (
    Layer("cli.main", ("cli.main",), ("sweep",), _SWEEP_MOVES),
    Layer("model.observables", ("model.observables",), ("sweep",), _SWEEP_MOVES),
    Layer("model.fringe_scan", ("model.fringe_scan",), ("duality",), _MOVES),
    Layer("model.build_network", ("model.build_network",), ("duality",), _MOVES),
    Layer("model.engine_observables", ("model.engine_observables",), ("duality",), _MOVES),
    Layer("model.engine_moments", ("model.engine_moments",), ("duality", "oracle"), _MOVES),
    Layer("bogoliubov.compose", ("bogoliubov.compose",), ("duality",), _MOVES),
    Layer("bogoliubov.validate", ("bogoliubov.validate",), ("duality",), _MOVES),
    Layer(
        "bogoliubov.elements",
        ("bogoliubov.two_mode_squeezer", "bogoliubov.beam_splitter", "bogoliubov.phase_shifter"),
        ("duality",),
        _MOVES,
    ),
    Layer("moments.moments_from_map", ("moments.moments_from_map",), ("duality",), _MOVES),
    Layer(
        "moments.statistics",
        (
            "moments.number_mean",
            "moments.cross_correlation",
            "moments.number_covariance",
            "moments.difference_statistics",
        ),
        ("duality",),
        _MOVES,
    ),
    Layer(
        "validation.closed_form_residual",
        ("validation.closed_form_residual",),
        ("duality",),
        _MOVES,
    ),
    Layer("fock.simulate_network", ("fock.simulate_network",), ("oracle",), _MOVES),
    Layer("fock.apply_two_mode_squeezer", ("fock.apply_two_mode_squeezer",), ("oracle",), _MOVES),
    Layer("fock.apply_beam_splitter", ("fock.apply_beam_splitter",), ("oracle",), _MOVES),
    Layer("fock.apply_phase", ("fock.apply_phase",), ("oracle",), _MOVES),
    Layer("fock.leakage_report", ("fock.leakage_report",), ("oracle",), _MOVES),
    Layer(
        "fock.correlations",
        ("fock.cross_correlation", "fock.pair_correlation"),
        ("oracle",),
        _MOVES,
    ),
    Layer("validation.oracle_residual", ("validation.oracle_residual",), ("oracle",), _MOVES),
)

# Return values worth classifying, as "<function>": label(result).  A
# refused oracle draw costs a full propagation, so the two reasons for a
# refusal are told apart where they arise: an exception out of
# `fock.simulate_network` (counted under its class name) or a state it
# returns flagged unreliable.
CLASSIFIERS = {
    "fock.simulate_network": lambda state: "unreliable" if state.unreliable else "reliable",
}


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    outcomes: Counter = field(default_factory=Counter)


class Tracer:
    """Context manager that times the functions named in `LAYERS`.

    Wrappers only record while `recording` is true, so the benchmark can
    run its correctness checks through the same package without
    counting them.  Statistics accumulate over repeated installs.
    """

    def __init__(self):
        self.recording = False
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]
        wrappers = {}
        for layer in LAYERS:
            for qualname in layer.functions:
                module_name, attr = qualname.split(".")
                original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
                self.stats.setdefault(qualname, FunctionStats())
                wrappers[original] = self._wrap(original, qualname)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, function, qualname: str):
        stats = self.stats[qualname]
        classify = CLASSIFIERS.get(qualname)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                stats.outcomes[type(exc).__name__] += 1
                raise
            finally:
                span = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += span - frame[0]
                stats.total_s += span
                if stack:
                    stack[-1][0] += span
            if classify is not None:
                stats.outcomes[classify(result)] += 1
            return result

        traced.__wrapped__ = function
        traced.__name__ = function.__name__
        traced.__doc__ = function.__doc__
        return traced

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer, summed over its functions."""
        totals = {}
        for layer in LAYERS:
            members = [self.stats[name] for name in layer.functions]
            totals[layer.name] = (
                sum(s.calls for s in members),
                sum(s.self_s for s in members),
            )
        return totals
