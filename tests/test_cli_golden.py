"""Byte-for-byte CLI outputs on fixed inputs.

Each case runs one subcommand on files under tests/data/golden and
compares its stdout with the recorded ``<name>.out`` next to them.  The
expected files were written by the same command lines on an earlier
tree, so a change that should leave the outputs alone is held to that.
"""

from pathlib import Path

import pytest

from graveropt.cli import main

DATA = Path(__file__).parent / "data" / "golden"

# name -> argv; an argument naming a file under DATA is passed as its path
CASES = {
    "graver": ["graver", "a.mat"],
    "testset": ["testset", "a.mat", "c.mat"],
    "ak": ["ak", "ak_a.mat", "ak_c.mat", "2"],
    "solve": ["solve", "bounded.cip", "start.vec"],
    "solve_slack_json": ["solve", "bounded.cip", "start.vec", "--slack-bounds", "--json"],
    "solve_best": ["solve", "bounded.cip", "start.vec", "--best-improving"],
    "solve_lifted_testset": ["solve", "bounded.cip", "start.vec",
                             "--testset", "lifted.ts", "--slack-bounds"],
    "quad_psd": ["quad", "q_psd.mat", "--c", "c.vec"],
    "quad_binary_psd": ["quad", "q_psd.mat", "--c", "c.vec", "--binary"],
    "quad_binary_raise": ["quad", "q_nonneg_offdiag.mat", "--c", "c.vec", "--binary"],
    "quad_binary_shift": ["quad", "q_mixed.mat", "--c", "c.vec", "--binary"],
    "qap_json": ["qap", "toy.dat", "--json"],
    "selftest": ["selftest", "--seed", "0"],
}


def argv(name: str) -> list[str]:
    return [str(DATA / a) if (DATA / a).is_file() else a for a in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name, capsys):
    assert main(argv(name)) == 0
    assert capsys.readouterr().out == (DATA / (name + ".out")).read_text(encoding="utf-8")
