"""The printed bytes of `sweep`, `optimize`, `figure` and `validate`, pinned.

Each case runs one fixed argv and hashes what it writes: stdout for
`sweep`, `optimize` and `validate`, each curve file's name and content
for `figure`.
The digests were recorded from a build whose output the rest of the
suite accepts, so a change to any printed digit, key or row fails here
even where every tolerance-based test still passes.
"""

import hashlib
import os

import pytest

from inducoh.cli import main

_POINT = ("--va", "1.7", "--vb", "0.6", "--t", "0.45", "--phi", "0.3", "--pulses", "4")

# (parameter, grid[, --vary, how]) -> sha256 of the csv and of the json stdout,
# all at _POINT with --t2 0.9
SWEEPS = {
    ("va", "--grid=0:20:41"): (
        "7e57ab941c1663f5bc0e567d896b1bea782b678becf964a8890247a034f4aa49",
        "71d3425755125dde263fc8cc57ef95fb34da6215ebbee629d9de25e742cfe6de",
    ),
    ("vb", "--grid=0:5:41"): (
        "d7662fd491a0f50ba570dfbbfd188f8336c34f9d19e1dbb9a7f45552373f81e1",
        "250e97210ccb1ca35f3b9822afb009ffef352f962878adf222003965b736fb98",
    ),
    ("t", "--grid=0:1:41"): (
        "d864d0a5dcbd22a28b7786cf2fbb7dacee282e3d3b47d266fa4ecd2c8b7c2087",
        "3549f8a5fd7ac509d8a92d57113f1354dc70b778697cb2a328bd66120f6404a0",
    ),
    ("t2", "--grid=0:1:41"): (
        "230912ecda82aa1ac80f5130b4aca35d969dfd057669326d7452ee86beed033d",
        "16272d8933db2c1d17d743af571174f6e11101748c531aceb4e882385b17fe46",
    ),
    ("phi", "--grid=-3.2:3.2:41"): (
        "50297bfe69708a53189a1cdbd3e7b8d84011268b73c682887836ef876e1fa413",
        "d9ef0171c09e5aefcf6dd847ad2f18000cc1aca8830b1c8a8216efb10277c7ae",
    ),
    ("tau", "--grid=0:1:41", "--vary", "transmission"): (
        "1ee19d9e27ea48e9cfaa6b4f9707d82fc93d1ef522444c260f58aa8956fba6ea",
        "aa4dae819b38a4601a1b050ae46ac516bb28ce4f9076bb0170ee51544f6c75d3",
    ),
    ("tau", "--grid=0:1:41", "--vary", "phase"): (
        "4480abbf1458574dd1fc89917152afdc7fdd3ca05fb990dbe56cf14ef2015aeb",
        "b49ce175493379a4dc197273d579511ebf036916544f22c716596c61e6c93692",
    ),
}

# extra flags -> sha256 of the text and of the json stdout, at _POINT less --vb;
# vb = 2.5 can be attenuated to the optimum, vb = 0.1 cannot
OPTIMIZE = {
    (): (
        "511a04331eec8d282a7999acc4326046801d23db626d0aad233681cc282321f9",
        "854d72023defb9895e92516529691d905319be57426bac7b346c276a5acc8ea1",
    ),
    ("--vb", "2.5"): (
        "a871f0c70c1112e51dcb4089e8c282298ffed593abb5e63f55d0e3303547cebb",
        "2684104a8fd660cf6c07d45091133f8e171f202cf788f24cbfbfdb5fd992f9a9",
    ),
    ("--vb", "0.1"): (
        "57c447313c310a0ee3134f6a5d0f00cd5e347f5b8149a5616864bab84f7ca394",
        "b033e21d10aa88754b083fa93b8506ca88f5bf463867ab144bb7bb8a9e2cdaff",
    ),
}

# figure -> sha256 of its csv and of its json files at the default gains
FIGURES = {
    "coherence": (
        "580ced75b4d795031aedaac2077b122fda3fce087c6e5ee2c37a4c7d934bdb9c",
        "debe302d6d5af1e8461129d8f41deb441fd8fe9bf79d93513cbba4ba64a41eb9",
    ),
    "visibility": (
        "71b4a60bd85ac36670de41b9a2d42fe5079135be7b2115b049f83da028872c99",
        "be914d285542ab22f63ae10970d8d089b7ef70d984fd59d1d216682f8b046ba2",
    ),
    "snr": (
        "cdba514cf391132303fdec8e57b188013e5fac625038b16ed74452cb3da913e0",
        "bf17afa6f519210f5df440cb4ad59af840975f36ae129d3f18f29025c8aac1b5",
    ),
}

# extra flags -> sha256 of the stdout of `validate` (its wall times go to stderr)
VALIDATE = {
    (): "1f256e1ef905d78fe863e9b7d444af2a5deef2bf6b8a76ef4f8f598434cdf773",
    ("--cutoff", "20", "--r-max", "0.9"): (
        "0ad5501875234f5cd40092920507dfdec4c2a0e88182eedabf2935d7a2b166b1"
    ),
}


def _stdout(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_sweep_stdout_digest(sweep, fmt, capsys):
    out = _stdout(capsys, "sweep", *sweep, *_POINT, "--t2", "0.9", "--format", fmt)
    assert _sha256(out) == SWEEPS[sweep][fmt == "json"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("flags", list(OPTIMIZE))
def test_optimize_stdout_digest(flags, fmt, capsys):
    point = [arg for arg in _POINT if arg not in ("--vb", "0.6")]
    out = _stdout(capsys, "optimize", *point, *flags, "--format", fmt)
    assert _sha256(out) == OPTIMIZE[flags][fmt == "json"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("figure", list(FIGURES))
def test_figure_files_digest(figure, fmt, tmp_path, capsys):
    out = _stdout(
        capsys, "figure", figure, "--resolution", "9", "--format", fmt, "--out", str(tmp_path)
    )
    digest = hashlib.sha256()
    for path in out.splitlines():
        with open(path, "r", encoding="utf-8") as handle:
            digest.update(f"{os.path.basename(path)}\n{handle.read()}".encode())
    assert digest.hexdigest() == FIGURES[figure][fmt == "json"]


@pytest.mark.parametrize("flags", list(VALIDATE))
def test_validate_stdout_digest(flags, capsys):
    out = _stdout(capsys, "validate", *flags)
    assert _sha256(out) == VALIDATE[flags]
