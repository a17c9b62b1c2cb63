"""CLI behavior: schemas, determinism, exit codes, config handling."""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inducoh import cli, model, validation
from inducoh.cli import main

SWEEP_HEADER = "t,n1_det,n2_det,visibility,gamma12,n_minus_mean,n_minus_var,snr"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_csv_schema(capsys):
    code, out, _ = run(capsys, "sweep", "t", "--grid", "0:1:5", "--va", "1", "--vb", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first) == 8


_EDGE_CELLS = [-0.0, 1e16, 1e-05, 123456789012.0, 5e-324, 1.7976931348623157e308]
_cells = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_CELLS)
_tables = st.integers(1, 8).flatmap(
    lambda width: st.lists(st.lists(_cells, min_size=width, max_size=width), min_size=1, max_size=6)
)


@settings(max_examples=300, deadline=None)
@given(_tables)
@example([_EDGE_CELLS[:3], _EDGE_CELLS[3:]])
def test_emitted_rows_equal_per_cell_formatting(rows):
    """`_emit_rows` fills templates; the reference formats cell by cell."""
    header = [f"c{column}" for column in range(len(rows[0]))]
    cell = "{:.12g}".format
    lines = [",".join(header), *(",".join(map(cell, row)) for row in rows)]
    records = [{key: float(cell(value)) for key, value in zip(header, row)} for row in rows]
    expected = {"csv": "\n".join(lines) + "\n", "json": json.dumps(records, indent=2) + "\n"}
    for fmt, text in expected.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit_rows(header, rows, fmt, None)
        assert out.getvalue() == text


def test_sweep_values_are_twelve_significant_digits(capsys):
    code, out, _ = run(capsys, "sweep", "t", "--grid", "0.5:0.5:2", "--va", "1", "--vb", "1")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[3] == "0.8"  # visibility at va=vb=1, t=0.5
    assert row[1] == "2.25"
    assert row[6] == "7.5"


def test_sweep_json_mirrors_csv_records(capsys, tmp_path):
    args = ("sweep", "vb", "--grid", "0.2:1:3", "--va", "2", "--t", "0.7")
    code, csv_out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    records = json.loads(json_out)
    header = csv_out.strip().split("\n")[0].split(",")
    rows = [line.split(",") for line in csv_out.strip().split("\n")[1:]]
    assert len(records) == len(rows) == 3
    for record, row in zip(records, rows):
        assert list(record) == header
        for key, text in zip(header, row):
            assert record[key] == float(text)


def test_output_is_byte_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(
            ["sweep", "phi", "--grid", "0:3.14:9", "--va", "2", "--vb", "0.5",
             "--t", "0.8", "--out", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_low_gain_visibility_tracks_sqrt_t(capsys):
    code, out, _ = run(
        capsys, "sweep", "t", "--grid", "0:1:11", "--va", "1e-6", "--vb", "1e-6"
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        assert float(cells[3]) == pytest.approx(math.sqrt(float(cells[0])), abs=1e-5)


def test_sweep_phi_at_zero_transmittance_is_flat(capsys):
    code, out, _ = run(
        capsys, "sweep", "phi", "--grid", "0:6.28:13", "--va", "1", "--vb", "1", "--t", "0"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    counts = {row[1] for row in rows}
    assert counts == {"1"}
    assert all(float(row[3]) == 0.0 for row in rows)


def test_tau_sweep_realizations(capsys):
    """tau can be swept through the filter at phi=0 or through the phase at t=1."""
    code, out_t, _ = run(
        capsys, "sweep", "tau", "--grid", "0.25:0.25:2", "--va", "1", "--vb", "1"
    )
    assert code == 0
    code, out_phi, _ = run(
        capsys, "sweep", "tau", "--grid", "0.25:0.25:2", "--va", "1", "--vb", "1",
        "--vary", "phase"
    )
    assert code == 0
    row_t = out_t.strip().split("\n")[1].split(",")
    row_phi = out_phi.strip().split("\n")[1].split(",")
    # transmission sweep: t = tau, full fringe
    expected = model.observables(model.SetupParams(va=1, vb=1, t=0.25))
    assert float(row_t[1]) == pytest.approx(expected.n1_det, rel=1e-10)
    # phase sweep: t = 1, cos^2(2 phi) = tau
    expected = model.observables(
        model.SetupParams(va=1, vb=1, t=1, theta_a=math.acos(math.sqrt(0.25)))
    )
    assert float(row_phi[1]) == pytest.approx(expected.n1_det, rel=1e-10)
    assert float(row_phi[4]) == pytest.approx(1.0, abs=1e-10)  # gamma12 at t = 1


def test_config_file_fills_gaps_but_flags_win(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("va = 2\nt = 0.5\n# vb comes from the flag\n")
    code, out, _ = run(
        capsys, "optimize", "--config", str(config), "--va", "1"
    )
    assert code == 0
    assert "vb_star = 0.666666666667" in out  # va=1 (flag) with t=0.5 (config)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("vx = 1\n")
    code, _, err = run(capsys, "optimize", "--config", str(config), "--va", "1", "--t", "1")
    assert code == 1
    assert "unknown config key" in err


# every optional flag of every subcommand, except --help and --config, with its type
CONFIG_KEY_TYPES = {
    "va": float, "vb": float, "t": float, "t2": float, "phi": float, "r_max": float,
    "pulses": int, "seed": int, "cutoff": int, "samples": int, "resolution": int,
    "grid": str, "format": str, "out": str, "gains": str, "vary": str,
}


def _optimize_with_config(capsys, tmp_path, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    return run(capsys, "optimize", "--va", "1", "--t", "1", "--config", str(config))


@pytest.mark.parametrize("key", sorted(CONFIG_KEY_TYPES))
def test_config_key_is_converted_with_its_flag_type(key, tmp_path, capsys):
    """A config value goes through its flag's type: "1.5" fails int keys, "abc"
    fails every numeric key, and a key for another subcommand is accepted.
    `format` is an optimize flag, so its value must also be text or json."""
    kind = CONFIG_KEY_TYPES[key]
    spelling = key.replace("_", "-")
    for text, accepted in (("2", True), ("1.5", kind is not int), ("abc", kind is str)):
        accepted = accepted and key != "format"
        code, _, err = _optimize_with_config(capsys, tmp_path, f"{spelling} = {text}")
        assert "unknown config key" not in err
        assert code == (0 if accepted else 1), (key, text, err)
        if not accepted:
            assert f"bad value for {key}" in err


def test_config_supplies_format_vary_and_grid(tmp_path, capsys):
    config = tmp_path / "f.cfg"
    config.write_text("format = json\nvary = phase\ngrid = 0.25:0.25:2\n")
    argv = ("sweep", "tau", "--va", "1", "--vb", "1", "--config", str(config))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    records = json.loads(out)
    assert records[0]["gamma12"] == 1  # phase sweep: t = 1
    assert records[0]["n1_det"] == 2.20710678119
    flags = ("--grid", "0.25:0.25:2", "--vary", "phase", "--format", "json")
    assert run(capsys, "sweep", "tau", "--va", "1", "--vb", "1", *flags)[1] == out

    code, out, _ = run(capsys, *argv, "--format", "csv")  # the flag beats the config
    assert code == 0
    header, row = out.strip().split("\n")[:2]
    assert header.startswith("tau,n1_det,")
    assert row.split(",")[1] == "2.20710678119"

    config.write_text("format = xml\n")
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "bad value for format" in err


@pytest.mark.parametrize("key", ["parameter", "figure", "config"])
def test_config_rejects_positionals_and_the_config_flag(key, tmp_path, capsys):
    code, _, err = _optimize_with_config(capsys, tmp_path, f"{key} = 1")
    assert code == 1
    assert "unknown config key" in err


def test_config_values_reach_their_subcommands(tmp_path, capsys):
    code, out, _ = _optimize_with_config(capsys, tmp_path, "pulses = 3")
    assert code == 0
    record = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert float(record["snr_multipulse"]) == pytest.approx(3 * float(record["snr"]), rel=1e-11)

    config = tmp_path / "figure.cfg"
    config.write_text(f"gains = 0.5,3\nresolution = 5\nout = {tmp_path / 'curves'}\n")
    code, out, _ = run(capsys, "figure", "coherence", "--config", str(config))
    assert code == 0
    names = sorted(path.name for path in (tmp_path / "curves").glob("*.csv"))
    assert names == ["coherence_va0.5.csv", "coherence_va3.csv"]
    assert len((tmp_path / "curves" / "coherence_va3.csv").read_text().strip().split("\n")) == 6

    config = tmp_path / "sweep.cfg"
    config.write_text("va = 1.3\nvb = 0.7\nt = 0.6\nt2 = 0.8\nphi = 0.2\npulses = 3\n")
    flags = ("--va", "1.3", "--vb", "0.7", "--t", "0.6", "--t2", "0.8", "--phi", "0.2", "--pulses", "3")
    code, from_flags, _ = run(capsys, "sweep", "t", "--grid", "0:1:5", *flags)
    assert code == 0
    code, from_config, _ = run(capsys, "sweep", "t", "--grid", "0:1:5", "--config", str(config))
    assert code == 0
    assert from_config == from_flags


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "t", "--grid", "0:1"],  # malformed grid
        ["sweep", "t", "--grid", "0:1:1"],  # fewer than two points
        ["sweep", "q", "--grid", "0:1:5"],  # unknown parameter
        ["optimize"],  # missing required values
        ["optimize", "--va", "1", "--t", "1", "--t2", "0.5"],  # only sweep reads t2
        ["validate", "--samples", "0"],
        ["figure", "nosuch"],
        [],
        ["sweep", "t"],  # no grid from a flag or a config
        # refused before either validation suite runs
        ["validate", "--r-max", "nan"],
        ["validate", "--r-max", "inf"],
        ["validate", "--r-max", "400"],  # sinh(400)^2 overflows a float
        # refused before np.linspace warns or a point blames theta_a
        ["sweep", "phi", "--grid=0:inf:3"],
        ["sweep", "phi", "--grid=-1e308:1e308:3"],  # stop - start overflows
        ["sweep", "phi", "--grid=nan:1:3"],
        # pulses * SNR would raise OverflowError: int too large to convert to float
        ["sweep", "t", "--grid", "0:1:3", "--pulses", "1" + "0" * 400],
        ["optimize", "--va", "1", "--t", "1", "--pulses", "1" + "0" * 400],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("inducoh: error:")


def test_a_config_run_leaves_the_shared_parser_as_it_was(tmp_path, capsys):
    """`main` parses every call without --config with one parser; the
    defaults a config file sets, and a usage error, must not reach it."""
    cli._shared_parser.cache_clear()
    plain = ("sweep", "t", "--grid", "0:1:5")
    code, first, _ = run(capsys, *plain)
    assert code == 0
    assert first.startswith(SWEEP_HEADER + "\n")
    config = tmp_path / "sweep.cfg"
    config.write_text("format = json\nvary = phase\ngrid = 0.25:0.25:2\n")
    code, out, _ = run(capsys, "sweep", "tau", "--config", str(config))
    assert code == 0
    assert json.loads(out)[0]["tau"] == 0.25
    assert run(capsys, "sweep", "q", "--grid", "0:1:5")[0] == 1
    assert run(capsys, *plain) == (0, first, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "t", "--grid", "0:2:5", "--va", "1", "--vb", "1"],
        # grids that leave the domain at their start and at their end
        ["sweep", "t", "--grid=-0.5:1:5"],
        ["sweep", "t2", "--grid=-0.5:1:5"],
        ["sweep", "t2", "--grid=0:1.5:5"],
        ["sweep", "va", "--grid=-1:2:4"],
        ["sweep", "va", "--grid=2:-1:4"],
        ["sweep", "tau", "--grid=-0.5:1:5"],
        ["sweep", "tau", "--grid=0:1.5:5", "--vary", "phase"],
    ],
    ids=["t-end", "t-start", "t2-start", "t2-end", "va-start", "va-end", "tau-start", "tau-end"],
)
def test_domain_errors_exit_one(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "va", "--grid", "1e159:1e160:2", "--vb", "1e160", "--t", "0.5"],
        # cos(2 phi)^2 (1 + va) va vb overflows at phi = 0 alone
        ["sweep", "phi", "--grid=-0.5:0.5:3", "--va", "3.6e102", "--vb", "3.6e102", "--t", "1"],
    ],
    ids=["every-row", "middle-row"],
)
def test_overflowing_sweep_exits_one(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "overflow" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--va", "1", "--t", "1", "--phi", "1e308"],
        ["sweep", "t", "--grid", "0:1:3", "--phi", "1e308"],
        ["sweep", "phi", "--grid=0:1e308:3"],
    ],
)
def test_an_overflowing_phi_is_refused_by_its_own_name(argv, capsys):
    """theta_a = 2 phi overflows; the error names the flag the user typed."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "phi" in err
    assert "theta_a" not in err


def test_an_overflowing_figure_writes_nothing(tmp_path, capsys):
    """4 (1 + va) overflows at va = 1e308, so every row of both SNR curves of
    that gain, tau = 0 included, was NaN; they used to be written with exit 0."""
    curves = tmp_path / "curves"
    code, out, err = run(
        capsys, "figure", "snr", "--gains", "1e308", "--resolution", "3", "--out", str(curves)
    )
    assert code == 1
    assert out == ""
    assert "overflow" in err
    assert not curves.exists()


def test_optimize_refuses_an_overflow_times_zero(capsys):
    """(1 + va) va vb_star overflows to inf and t = 0 turns that into NaN,
    which used to print as `visibility = nan` with exit 0."""
    code, out, err = run(capsys, "optimize", "--va", "1e200", "--t", "0")
    assert code == 1
    assert out == ""
    assert "overflow" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "t", "--grid", "0:1:3", "--out", "{blocker}/x.csv"],
        ["figure", "coherence", "--resolution", "3", "--out", "{blocker}/sub"],
    ],
)
def test_unwritable_out_path_is_an_error(argv, tmp_path, capsys):
    """An output path below a regular file is reported, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, *(arg.format(blocker=blocker) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("inducoh: error:")
    assert str(blocker) in err


def test_optimize_text_report(capsys):
    code, out, _ = run(capsys, "optimize", "--va", "1", "--t", "1")
    assert code == 0
    assert "vb_star = 0.5" in out
    assert "visibility = 1" in out
    assert "gamma12 = 1" in out


def test_optimize_reports_infeasible_attenuation(capsys):
    code, out, _ = run(capsys, "optimize", "--va", "1", "--t", "1", "--vb", "0.1")
    assert code == 0
    assert "t2_star = infeasible" in out


def test_optimize_json_high_gain_point(capsys):
    code, out, _ = run(capsys, "optimize", "--va", "100", "--t", "0.1", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["visibility"] == pytest.approx(0.9582, abs=1e-4)
    assert record["visibility"] == record["gamma12"]


def test_figure_coherence_files(tmp_path, capsys):
    code, out, _ = run(
        capsys, "figure", "coherence", "--out", str(tmp_path), "--resolution", "11"
    )
    assert code == 0
    assert len(list(tmp_path.glob("coherence_va*.csv"))) == 4
    zero_gain = (tmp_path / "coherence_va0.csv").read_text().strip().split("\n")
    assert zero_gain[0] == "t,gamma12"
    for line in zero_gain[1:]:
        t, gamma = (float(cell) for cell in line.split(","))
        assert gamma == pytest.approx(math.sqrt(t), abs=1e-12)


def test_figure_visibility_optimal_equals_coherence(tmp_path, capsys):
    code, _, _ = run(
        capsys, "figure", "visibility", "--out", str(tmp_path), "--resolution", "7",
        "--gains", "10"
    )
    assert code == 0
    code, _, _ = run(
        capsys, "figure", "coherence", "--out", str(tmp_path), "--resolution", "7",
        "--gains", "10"
    )
    assert code == 0
    opt = (tmp_path / "visibility_opt_va10.csv").read_text().strip().split("\n")[1:]
    coh = (tmp_path / "coherence_va10.csv").read_text().strip().split("\n")[1:]
    assert len(opt) == len(coh) == 7
    assert [line.split(",")[1] for line in opt] == [line.split(",")[1] for line in coh]


@pytest.mark.parametrize("figure", ["coherence", "snr"])
@pytest.mark.parametrize(
    "gain, gains, source",
    [
        *(
            pytest.param(gain, f"0,1,{gain}", "flag", id=gain)
            for gain in ["nan", "inf", "-3", "1", "1.0000001", "-0"]
        ),
        pytest.param("", "", "flag", id="empty"),
        pytest.param("", "", "config", id="empty-config"),
        pytest.param(",", ",", "flag", id="comma"),
    ],
)
def test_figure_rejects_unphysical_gains(figure, gain, gains, source, tmp_path, capsys):
    """A brightness must be finite and >= 0, as `SetupParams` requires, and
    name its own files: `1` and `1.0000001` both print `{gain:g}` as `1`, so
    beside gain 1 they would overwrite its curves, and `-0` is the gain 0.
    A list with no gain, from a flag or a config line, is refused too,
    not read as the default gains.  The usage error names the value, and
    no curve or output directory is made."""
    curves = tmp_path / "curves"
    if source == "flag":
        given = [f"--gains={gains}"]
    else:
        config = tmp_path / "figure.cfg"
        config.write_text(f"gains = {gains}\n")
        given = ["--config", str(config)]
    code, out, err = run(
        capsys, "figure", figure, "--out", str(curves), "--resolution", "5", *given
    )
    assert code == 1
    assert out == ""
    assert repr(gain) in err
    assert not curves.exists()


def test_figure_snr_files(tmp_path, capsys):
    code, out, _ = run(
        capsys, "figure", "snr", "--out", str(tmp_path), "--resolution", "5", "--gains", "1,10"
    )
    assert code == 0
    names = {path.name for path in tmp_path.glob("*.csv")}
    assert names == {
        "snr_lg.csv",
        "snr_hgs_va1.csv",
        "snr_opt_va1.csv",
        "snr_hgs_va10.csv",
        "snr_opt_va10.csv",
    }


def test_validate_passes_at_default_cutoff(capsys):
    code, out, _ = run(capsys, "validate", "--samples", "3")
    assert code == 0
    assert "closed-form vs engine" in out
    assert "oracle vs engine" in out
    assert "overall: PASS" in out


def test_validate_stdout_is_identical_across_runs(capsys, monkeypatch):
    """Wall times go to stderr: two runs that take different times print the
    same stdout."""
    clock = (float(k * k) for k in itertools.count())
    monkeypatch.setattr(validation.time, "perf_counter", lambda: next(clock))
    first = run(capsys, "validate", "--samples", "3")
    second = run(capsys, "validate", "--samples", "3")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert first[2] != second[2]
    assert " s\n" in first[2]


def test_validate_fails_with_leakage_diagnostic_at_tiny_cutoff(capsys):
    """The oracle's refusal comes after the closed-form result, which still
    gets printed."""
    code, out, _ = run(capsys, "validate", "--samples", "3", "--cutoff", "3")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("closed-form vs engine: ")
    assert lines[0].endswith(": PASS")
    assert lines[1].startswith("oracle vs engine: FAIL: ")
    assert "cutoff" in lines[1]


def test_validate_advises_a_lower_r_max_when_no_cutoff_can_certify(capsys):
    """At r_max 300 every draw is refused at its first squeezer, which no
    cutoff the oracle can hold would mend: the advice names r_max too."""
    code, out, _ = run(capsys, "validate", "--samples", "2", "--r-max", "300")
    assert code == 2
    fail = out.splitlines()[-1]
    assert fail.startswith("oracle vs engine: FAIL: ")
    assert fail.endswith("increase the cutoff or lower r_max")
    assert "r_max 300" in fail
