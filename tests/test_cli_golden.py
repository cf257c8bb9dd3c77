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
    # the largest member set any check builds: 865 basis elements, past
    # every benchmark workload's completion (at most 618 members)
    "graver_primes": ["graver", "primes.mat"],
    # a whole direction set, not only a basis: the 243 directions of the
    # walk-dense family (A, C), header "# hcip n=5 s=4"
    "testset_walk_dense": ["testset", "wd_a.mat", "wd_c.mat"],
    # a start and right-hand side past 2^64, so every scan's step limits
    # are Python ints; recorded with the walk that line-searched every
    # direction and evaluated every point afresh
    "solve_big_integer": ["solve", "big.inst", "big.start"],
    # term rows with zero columns, entries past 2^64, and an optimum
    # (2^64+1, 2^64+1, 2^65+7) where both term arguments are 0, so
    # evaluation over the supports skips them; recorded with the dense
    # evaluation
    "solve_zero_argument": ["solve", "zero.inst", "zero.start"],
    # cap 3, first and best improving: a ray along (1,1) still descending
    # at step 4, and a staircase on the axis directions stopped after
    # three steps; recorded when the cap was an exception
    "solve_cap_ray": ["solve", "--cap", "3", "ray.inst", "origin.start"],
    "solve_cap_ray_best": ["solve", "--cap", "3", "--best-improving",
                           "ray.inst", "origin.start"],
    "solve_cap_stair": ["solve", "--cap", "3", "--testset", "axis.ts",
                        "stair.inst", "origin.start"],
    "solve_cap_stair_best": ["solve", "--cap", "3", "--best-improving",
                             "--testset", "axis.ts", "stair.inst", "origin.start"],
    # the 16-variable encoding takes the box path with 1185 candidates;
    # --verify checks the walk's value against permutation enumeration
    "qap4_verify": ["qap", "--verify", "qap4.dat"],
    "qap4_json": ["qap", "--json", "qap4.dat"],
    # flow and distance of mixed sign, so W = 2Q has negative pairs too;
    # the walk takes three steps to the optimum -4 at (2, 3, 1)
    "qap_signed_verify": ["qap", "--verify", "qap_signed.dat"],
    "qap_signed_json": ["qap", "--json", "qap_signed.dat"],
}


def argv(name: str) -> list[str]:
    return [str(DATA / a) if (DATA / a).is_file() else a for a in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name, capsys):
    assert main(argv(name)) == 0
    assert capsys.readouterr().out == (DATA / (name + ".out")).read_text(encoding="utf-8")
