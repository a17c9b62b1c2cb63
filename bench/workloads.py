"""The benchmark's three workloads: seeded inputs, one op each, and its gates.

Each workload yields an endless input stream from a seed, runs one op
on an input through the package's public API, and checks the op's
answer.  Inputs are generated outside the timed op; the package only
ever sees `SetupParams` and argv lists.

- `sweep`: in-process `inducoh sweep` invocations, rotating the swept
  parameter and the output format over a pool of seeded argv lists.
- `duality`: `validation.closed_form_residual` on configurations drawn
  like `validation.random_setup`, every fourth one with `t2 < 1`.
- `oracle`: `validation.oracle_residual` at cutoff 12 on configurations
  drawn like `validation.oracle_suite` draws them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from inducoh import cli, fock, model, validation


@dataclass(frozen=True)
class Outcome:
    """What the gate made of one op."""

    useful: bool
    error: str | None
    fingerprint: object


# ---------------------------------------------------------------- sweep

SWEEP_GRID_POINTS = 201
SWEEP_VARIANTS = (
    ("t", None),
    ("va", None),
    ("vb", None),
    ("phi", None),
    ("tau", "transmission"),
    ("tau", "phase"),
)
# csv, the default, comes up twice as often as json: a json sweep costs
# about 1.6 times a csv one, and with an even split the median latency
# would fall in the gap between the two
SWEEP_FORMATS = ("csv", "csv", "json")
SWEEP_COLUMNS = ("n1_det", "n2_det", "visibility", "gamma12", "n_minus_mean", "n_minus_var", "snr")
# rows of each distinct invocation re-evaluated through the Gaussian engine
SWEEP_ENGINE_ROWS = 9


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    return float(rng.uniform(low, high))


class Sweep:
    """Repeated `cli.main(["sweep", ...])` over a pool of seeded invocations.

    The pool holds one argv per swept parameter and entry of
    SWEEP_FORMATS, so the stream cycles through all eighteen; every
    repeat of an argv must reproduce the first output byte for byte.
    """

    name = "sweep"
    block = len(SWEEP_VARIANTS) * len(SWEEP_FORMATS)
    params = {
        "op": "cli.main(['sweep', ...]), stdout captured",
        "grid_points": SWEEP_GRID_POINTS,
        "parameters": ["t", "va", "vb", "phi", "tau --vary transmission", "tau --vary phase"],
        "formats": list(SWEEP_FORMATS),
        "pool": "one seeded argv per parameter and format entry: va, vb in [0.1, 10], "
        "t in [0.05, 1], phi in [0, pi], pulses in 1..20, seeded grid ends",
        "engine_rows_checked": f"{SWEEP_ENGINE_ROWS} evenly spaced rows of each argv's first run",
        "duality_tolerance": validation.CLOSED_FORM_TOLERANCE,
    }

    def __init__(self) -> None:
        self._first_output: dict[tuple[str, ...], str] = {}

    @staticmethod
    def pool(seed: int) -> list[tuple[str, ...]]:
        rng = np.random.default_rng(seed)
        pool = []
        for fmt in SWEEP_FORMATS:
            for parameter, vary in SWEEP_VARIANTS:
                if parameter in ("t", "tau"):
                    start, stop = _uniform(rng, 0.0, 0.3), _uniform(rng, 0.7, 1.0)
                elif parameter == "phi":
                    start, stop = _uniform(rng, -math.pi, 0.0), _uniform(rng, 0.0, math.pi)
                else:
                    start, stop = _uniform(rng, 0.01, 1.0), _uniform(rng, 2.0, 50.0)
                argv = [
                    "sweep",
                    parameter,
                    # the = form, since a negative start would read as a flag
                    f"--grid={start!r}:{stop!r}:{SWEEP_GRID_POINTS}",
                    "--va",
                    repr(_uniform(rng, 0.1, 10.0)),
                    "--vb",
                    repr(_uniform(rng, 0.1, 10.0)),
                    "--t",
                    repr(_uniform(rng, 0.05, 1.0)),
                    "--phi",
                    repr(_uniform(rng, 0.0, math.pi)),
                    "--pulses",
                    str(int(rng.integers(1, 21))),
                    "--format",
                    fmt,
                ]
                if vary is not None:
                    argv += ["--vary", vary]
                pool.append(tuple(argv))
        return pool

    @staticmethod
    def inputs(seed: int):
        return itertools.cycle(Sweep.pool(seed))

    @staticmethod
    def warmup_input() -> tuple[str, ...]:
        return (
            "sweep", "t", f"--grid=0:1:{SWEEP_GRID_POINTS}",
            "--va", "1", "--vb", "1", "--t", "1", "--phi", "0", "--pulses", "1", "--format", "csv",
        )

    @staticmethod
    def run(argv: tuple[str, ...]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(self, argv: tuple[str, ...], result) -> Outcome:
        code, text = result
        fingerprint = hashlib.sha256(text.encode()).hexdigest()
        if code != 0:
            return Outcome(False, f"exit code {code}", fingerprint)
        first_run = argv not in self._first_output
        if text != self._first_output.setdefault(argv, text):
            return Outcome(False, "output differs from an identical earlier invocation", fingerprint)
        error = _sweep_rows_error(argv, text, engine_check=first_run)
        return Outcome(error is None, error, fingerprint)


def _flag(argv, name: str, default: str | None = None) -> str | None:
    for index, item in enumerate(argv):
        if item == name:
            return argv[index + 1]
        if item.startswith(name + "="):
            return item[len(name) + 1 :]
    return default


def _sweep_point(argv, value: float) -> model.SetupParams:
    """The point `inducoh sweep` evaluates at one grid value, rebuilt
    from its documented flag semantics."""
    base = model.SetupParams(
        va=float(_flag(argv, "--va")),
        vb=float(_flag(argv, "--vb")),
        t=float(_flag(argv, "--t")),
        theta_a=2.0 * float(_flag(argv, "--phi")),
        pulses=int(_flag(argv, "--pulses")),
    )
    parameter = argv[1]
    if parameter == "phi":
        return replace(base, theta_a=2.0 * value)
    if parameter == "tau":
        if _flag(argv, "--vary") == "phase":
            return replace(base, t=1.0, theta_a=math.acos(math.sqrt(value)))
        return replace(base, t=value, theta_a=0.0)
    return replace(base, **{parameter: value})


def _sweep_rows_error(argv, text: str, engine_check: bool) -> str | None:
    """Parse every row; on request re-evaluate a subsample through the engine."""
    header = [argv[1], *SWEEP_COLUMNS]
    fmt = _flag(argv, "--format", "csv")
    try:
        if fmt == "csv":
            lines = text.splitlines()
            if lines[0].split(",") != header:
                return f"bad csv header {lines[0]!r}"
            rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        else:
            records = json.loads(text)
            if any(list(record) != header for record in records):
                return "bad json record keys"
            rows = [[float(record[key]) for key in header] for record in records]
    except (ValueError, IndexError, TypeError) as exc:
        return f"unparsable {fmt} output: {exc}"
    start, stop, count = _flag(argv, "--grid").split(":")
    grid = np.linspace(float(start), float(stop), int(count))
    if len(rows) != len(grid) or any(len(row) != len(header) for row in rows):
        return f"expected {len(grid)} rows of {len(header)} columns"
    for row, value in zip(rows, grid):
        if not all(math.isfinite(cell) for cell in row):
            return f"non-finite value in row {row}"
        if row[0] != float(f"{value:.12g}"):
            return f"grid column {row[0]!r} is not the grid value {value!r}"
    if engine_check:
        for index in np.linspace(0, len(grid) - 1, SWEEP_ENGINE_ROWS).astype(int):
            eng = model.engine_observables(_sweep_point(argv, float(grid[index])))
            expected = (
                eng.n1_det,
                eng.n2_det,
                eng.visibility,
                eng.gamma12,
                eng.n_minus_mean,
                eng.n_minus_var,
                eng.snr_multipulse,
            )
            for column, printed, reference in zip(SWEEP_COLUMNS, rows[index][1:], expected):
                if abs(printed - reference) > validation.CLOSED_FORM_TOLERANCE * max(1.0, abs(reference)):
                    return f"row {index} {column}: printed {printed!r}, engine {reference!r}"
    return None


# -------------------------------------------------------------- duality

DUALITY_BRIGHTNESS_MAX = 10.0
DUALITY_T2_EVERY = 4


class Duality:
    """`validation.closed_form_residual` on fresh seeded configurations."""

    name = "duality"
    block = DUALITY_T2_EVERY
    params = {
        "op": "validation.closed_form_residual(params), 32-point fringe scan",
        "draw": f"validation.random_setup(rng, brightness_max={DUALITY_BRIGHTNESS_MAX})",
        "t2": f"every {DUALITY_T2_EVERY}th config gets t2 uniform in [0.05, 1) (5-mode network)",
        "tolerance": validation.CLOSED_FORM_TOLERANCE,
    }

    @staticmethod
    def inputs(seed: int):
        rng = np.random.default_rng(seed)
        for index in itertools.count():
            params = validation.random_setup(rng, DUALITY_BRIGHTNESS_MAX)
            if index % DUALITY_T2_EVERY == DUALITY_T2_EVERY - 1:
                params = replace(params, t2=_uniform(rng, 0.05, 1.0))
            yield params

    @staticmethod
    def warmup_input() -> model.SetupParams:
        return model.SetupParams(va=1.0, vb=2.0, t=0.5, theta_a=0.3, theta_b=1.1, idler_phase=2.0)

    @staticmethod
    def run(params: model.SetupParams) -> float:
        return validation.closed_form_residual(params)

    @staticmethod
    def check(params: model.SetupParams, residual: float) -> Outcome:
        if not residual <= validation.CLOSED_FORM_TOLERANCE:
            return Outcome(False, f"residual {float(residual)!r} at {params}", residual)
        return Outcome(True, None, residual)


# --------------------------------------------------------------- oracle

ORACLE_CUTOFF = 12
ORACLE_R_MAX = 0.6
# draws per Latin-hypercube block over (gain a, gain b, transmittance)
ORACLE_BLOCK = 16


class Oracle:
    """`validation.oracle_residual` at cutoff 12 on fresh seeded draws.

    The gains and the transmittance are stratified in blocks of
    ORACLE_BLOCK draws (each block is a Latin hypercube), so their
    marginals are the uniform ones `oracle_suite` uses while the share
    of draws the oracle can certify varies less from seed to seed.  A
    `None` residual is a refusal, not a failure.
    """

    name = "oracle"
    block = ORACLE_BLOCK
    params = {
        "op": f"validation.oracle_residual(params, {ORACLE_CUTOFF})",
        "modes": 4,
        "cutoff": ORACLE_CUTOFF,
        "gains": f"r_a, r_b uniform in [0, {ORACLE_R_MAX}], va = sinh(r_a)^2, vb = sinh(r_b)^2",
        "t": "uniform in [0, 1]",
        "phases": "theta_a, theta_b, idler_phase uniform in [0, 2 pi)",
        "stratified": f"Latin hypercube over (r_a, r_b, t) in blocks of {ORACLE_BLOCK} draws",
        "tolerance": validation.ORACLE_TOLERANCE,
    }

    @staticmethod
    def inputs(seed: int):
        rng = np.random.default_rng(seed)
        while True:
            ra, rb, t = (
                (rng.permutation(ORACLE_BLOCK) + rng.uniform(size=ORACLE_BLOCK)) / ORACLE_BLOCK
                for _ in range(3)
            )
            for k in range(ORACLE_BLOCK):
                yield model.SetupParams(
                    va=math.sinh(ORACLE_R_MAX * ra[k]) ** 2,
                    vb=math.sinh(ORACLE_R_MAX * rb[k]) ** 2,
                    t=float(t[k]),
                    theta_a=_uniform(rng, 0.0, 2.0 * math.pi),
                    theta_b=_uniform(rng, 0.0, 2.0 * math.pi),
                    idler_phase=_uniform(rng, 0.0, 2.0 * math.pi),
                )

    @staticmethod
    def warmup_input() -> model.SetupParams:
        gain = math.sinh(0.3) ** 2
        return model.SetupParams(va=gain, vb=gain, t=0.5, theta_a=0.3, theta_b=1.1, idler_phase=2.0)

    @staticmethod
    def run(params: model.SetupParams) -> float | None:
        try:
            return validation.oracle_residual(params, ORACLE_CUTOFF)
        except fock.LeakageError:
            return None

    @staticmethod
    def check(params: model.SetupParams, residual: float | None) -> Outcome:
        if residual is None:
            return Outcome(False, None, None)
        if not residual <= validation.ORACLE_TOLERANCE:
            return Outcome(False, f"residual {float(residual)!r} at {params}", residual)
        return Outcome(True, None, residual)

    @staticmethod
    def state_bytes() -> int:
        """Computed size of one oracle state vector: 16 (cutoff+1)^modes."""
        return 16 * (ORACLE_CUTOFF + 1) ** 4


WORKLOADS = {cls.name: cls for cls in (Sweep, Duality, Oracle)}
