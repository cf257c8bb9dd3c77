import json
from pathlib import Path

import pytest

from graveropt.augment import CipInstance
from graveropt.cli import main
from graveropt.core import IntMatrix, parse_int_matrix
from graveropt.objective import linear_objective, parse_objective
from graveropt.testset import TestSet, box_test_set, compute_test_set, format_test_set
from tests.conftest import two_square_instance
from tests.helpers import format_instance, path_difference_instance, time_bound

GOLDEN = Path(__file__).parent / "data" / "golden"


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def pair_directions_file(tmp_path):
    t = compute_test_set(IntMatrix.zero(0, 2),
                         IntMatrix.from_rows([[1, 1], [1, -1]]))
    return put(tmp_path, "pairs.ts", format_test_set(t))


class TestGraverCommand:
    def test_unconstrained_two_variables(self, tmp_path, capsys):
        matrix = put(tmp_path, "a.mat", "0 2\n")
        assert main(["graver", matrix]) == 0
        assert capsys.readouterr().out == "2 2\n0 1\n1 0\n"

    def test_trivial_kernel_writes_empty_basis(self, tmp_path, capsys):
        matrix = put(tmp_path, "a.mat", "1 1\n1\n")
        assert main(["graver", matrix]) == 0
        assert capsys.readouterr().out == "0 1\n"

    def test_out_file(self, tmp_path):
        matrix = put(tmp_path, "a.mat", "1 3\n1 2 -1\n")
        out = tmp_path / "basis.mat"
        assert main(["graver", matrix, "--out", str(out)]) == 0
        m = parse_int_matrix(out.read_text())
        assert m.cols == 3 and m.rows > 0

    def test_no_leftover_temp_files(self, tmp_path):
        matrix = put(tmp_path, "a.mat", "0 2\n")
        out = tmp_path / "basis.mat"
        assert main(["graver", matrix, "--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.mat", "basis.mat"]

    def test_verify_passes(self, tmp_path, capsys):
        matrix = put(tmp_path, "a.mat", "1 3\n1 1 1\n")
        assert main(["graver", matrix, "--verify"]) == 0
        capsys.readouterr()

    def test_malformed_header(self, tmp_path, capsys):
        matrix = put(tmp_path, "a.mat", "nonsense\n")
        assert main(["graver", matrix]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["graver", str(tmp_path / "absent.mat")]) == 2
        capsys.readouterr()

    def test_norm_past_int64(self, tmp_path, capsys):
        # kernel spanned by (K, K, K, K, K, 1) with K = 2^61 - 1
        k = (1 << 61) - 1
        matrix = put(tmp_path, "a.mat", "5 6\n1 -1 0 0 0 0\n0 1 -1 0 0 0\n"
                     "0 0 1 -1 0 0\n0 0 0 1 -1 0\n0 0 0 0 1 %d\n" % -k)
        assert main(["graver", matrix]) == 0
        assert capsys.readouterr().out == "1 6\n%d %d %d %d %d 1\n" % ((k,) * 5)

    def test_runs_are_byte_identical(self, tmp_path):
        matrix = put(tmp_path, "a.mat", "1 4\n1 -1 2 0\n")
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        main(["graver", matrix, "--out", str(out1)])
        main(["graver", matrix, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestTestsetCommand:
    def test_identity_compositions_reproduce_the_basis(self, tmp_path):
        matrix = put(tmp_path, "a.mat", "1 3\n1 1 1\n")
        comps = put(tmp_path, "c.mat", "3 3\n1 0 0\n0 1 0\n0 0 1\n")
        t_out = tmp_path / "t.ts"
        g_out = tmp_path / "g.mat"
        assert main(["testset", matrix, comps, "--out", str(t_out)]) == 0
        assert main(["graver", matrix, "--out", str(g_out)]) == 0
        body = [ln for ln in t_out.read_text().splitlines()
                if not ln.startswith("#")]
        assert "\n".join(body) + "\n" == g_out.read_text()

    def test_header_comment_present(self, tmp_path):
        matrix = put(tmp_path, "a.mat", "0 2\n")
        comps = put(tmp_path, "c.mat", "2 2\n1 1\n1 -1\n")
        out = tmp_path / "t.ts"
        assert main(["testset", matrix, comps, "--out", str(out)]) == 0
        assert out.read_text().startswith("#")

    def test_dimension_mismatch(self, tmp_path, capsys):
        matrix = put(tmp_path, "a.mat", "1 3\n1 1 1\n")
        comps = put(tmp_path, "c.mat", "1 2\n1 1\n")
        assert main(["testset", matrix, comps]) == 2
        capsys.readouterr()

    def test_verify_passes(self, tmp_path, capsys):
        matrix = put(tmp_path, "a.mat", "1 2\n1 1\n")
        comps = put(tmp_path, "c.mat", "1 2\n1 -1\n")
        assert main(["testset", matrix, comps, "--verify"]) == 0
        capsys.readouterr()


class TestAkCommand:
    def test_matches_library_construction(self, tmp_path, capsys):
        from graveropt.testset import build_split_matrix
        matrix = put(tmp_path, "a.mat", "1 2\n1 1\n")
        comps = put(tmp_path, "c.mat", "1 2\n1 -1\n")
        assert main(["ak", matrix, comps, "2"]) == 0
        shown = parse_int_matrix(capsys.readouterr().out)
        a = parse_int_matrix("1 2\n1 1\n")
        c = parse_int_matrix("1 2\n1 -1\n")
        assert shown == build_split_matrix(a, c, 2)

    def test_bad_k(self, tmp_path, capsys):
        matrix = put(tmp_path, "a.mat", "1 2\n1 1\n")
        comps = put(tmp_path, "c.mat", "1 2\n1 -1\n")
        assert main(["ak", matrix, comps, "0"]) == 2
        capsys.readouterr()


class TestSolveCommand:
    def instance_file(self, tmp_path):
        return put(tmp_path, "inst.cip", format_instance(two_square_instance()))

    def test_descends_to_the_origin(self, tmp_path, capsys):
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "1 1\n")
        ts = pair_directions_file(tmp_path)
        assert main(["solve", inst, start, "--testset", ts]) == 0
        out = capsys.readouterr().out
        assert "optimum: 0 0" in out
        assert "value: 0" in out
        assert "status: optimal" in out

    def test_huge_table_argument_solves_promptly(self, tmp_path, capsys):
        # the piece is read at z1 + 10^11, 10^11 increments past 0
        inst = put(tmp_path, "big.cip", "A\n1 2\n1 1\nb\n2\nobjective\n"
                   "table extend 0:-1 1:1 | 1 0 | 100000000000\nlinear | 0 0\n")
        start = put(tmp_path, "z0.vec", "1 1\n")
        with time_bound(5.0):
            assert main(["solve", inst, start]) == 0
        out = capsys.readouterr().out
        assert "optimum: 0 2" in out
        assert "value: 100000000000" in out

    def test_non_convex_table_is_an_input_error(self, tmp_path, capsys):
        # increments -1, 5, -10, -10: read as convex, the walk would stop
        # at 1 3 (value -1) although 4 0 is worth -16
        inst = put(tmp_path, "bad.cip", "A\n1 2\n1 1\nb\n4\nobjective\n"
                   "table 1:-1 2:5 3:-10 4:-10 | 1 0 | 0\nlinear | 0 0\n")
        start = put(tmp_path, "z0.vec", "0 4\n")
        for extra in ([], ["--verify", "--box", "4", "4"]):
            assert main(["solve", inst, start] + extra) == 2
            captured = capsys.readouterr()
            assert "objective term" in captured.err and captured.out == ""

    def test_axis_directions_get_stuck(self, tmp_path, capsys):
        # value 4 at (1,1); each axis neighbor costs 5 or 13, so the
        # truncated direction set sees no improvement at all
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "1 1\n")
        ts = put(tmp_path, "axes.ts",
                 format_test_set(TestSet(2, frozenset({(1, 0), (0, 1)}))))
        assert main(["solve", inst, start, "--testset", ts]) == 0
        out = capsys.readouterr().out
        assert "optimum: 1 1" in out and "value: 4" in out

    def test_verify_flags_the_stuck_walk(self, tmp_path, capsys):
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "1 1\n")
        ts = put(tmp_path, "axes.ts",
                 format_test_set(TestSet(2, frozenset({(1, 0), (0, 1)}))))
        assert main(["solve", inst, start, "--testset", ts, "--verify"]) == 4
        assert "verification failed" in capsys.readouterr().err

    def test_verify_accepts_the_true_optimum(self, tmp_path, capsys):
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "1 1\n")
        ts = pair_directions_file(tmp_path)
        assert main(["solve", inst, start, "--testset", ts, "--verify",
                     "--box", "3", "3"]) == 0
        capsys.readouterr()

    def test_verify_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # the box test set and the exhaustive check both search one
        # coordinate per level, past the depth a recursion could reach
        case = path_difference_instance()
        inst = put(tmp_path, "path.cip", format_instance(case))
        start = put(tmp_path, "z0.vec", " ".join(map(str, case.upper)) + "\n")
        with time_bound(30):
            assert main(["solve", inst, start, "--verify"]) == 0
        captured = capsys.readouterr()
        assert "value: 0" in captured.out and "status: optimal" in captured.out
        assert "Traceback" not in captured.err

    def test_infeasible_start(self, tmp_path, capsys):
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "-1 0\n")
        ts = pair_directions_file(tmp_path)
        assert main(["solve", inst, start, "--testset", ts]) == 3
        assert "error" in capsys.readouterr().err

    def test_negative_upper_bound_exits_2(self, tmp_path, capsys):
        # with or without a test set of its own, the empty box is an
        # input error that names the bounds; a given set used to reach
        # the start check (exit 3), a built one a search helper
        inst = put(tmp_path, "neg.cip", "A\n1 2\n1 1\nb\n2\nupper\n-1 3\n"
                   "objective\nlinear | 1 1\n")
        start = put(tmp_path, "z0.vec", "0 2\n")
        ts = put(tmp_path, "pair.ts", "1 2\n1 -1\n")
        for extra in ([], ["--testset", ts]):
            assert main(["solve", inst, start] + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: CipInstance: upper bounds (-1, 3) "
                                    "include a negative entry\n")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_cap_exits_2(self, cap, capsys):
        # the instance is bounded, optimal at 1 0 4 1 with the default cap
        inst, start = str(GOLDEN / "bounded.cip"), str(GOLDEN / "start.vec")
        for extra in ([], ["--slack-bounds"]):
            assert main(["solve", inst, start, "--cap", cap] + extra) == 2
            captured = capsys.readouterr()
            assert "step cap" in captured.err and captured.out == ""

    def test_walk_of_exactly_cap_steps_is_optimal(self, capsys):
        # the golden walk takes 6 steps to 1 0 4 1; the scan after the
        # 6th step finds nothing improving, so cap 6 is enough, and
        # cap 5 stops one step short
        inst, start = str(GOLDEN / "bounded.cip"), str(GOLDEN / "start.vec")
        assert main(["solve", inst, start, "--cap", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == ["optimum: 1 0 4 1", "value: 17/6", "status: optimal"]
        assert sum(ln.startswith("step ") for ln in lines) == 6
        assert main(["solve", inst, start, "--cap", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "status: unbounded-suspected"
        assert sum(ln.startswith("step ") for ln in lines) == 5

    def test_json_report(self, tmp_path, capsys):
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "2 0\n")
        ts = pair_directions_file(tmp_path)
        assert main(["solve", inst, start, "--testset", ts, "--json"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        record = json.loads(last)
        assert record["status"] == "optimal"
        assert record["optimum"] == [0, 0]

    def test_without_testset_builds_one(self, tmp_path, capsys):
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "1 1\n")
        assert main(["solve", inst, start]) == 0
        assert "optimum: 0 0" in capsys.readouterr().out

    def slack_instance_files(self, tmp_path):
        # (x - y - 3)^2 over [0, 2]^2, least (1) at (2, 0), from (0, 0)
        obj = parse_objective("evenpower 1 2 | 1 -1 | -3\nlinear | 0 0\n")
        bounded = CipInstance(IntMatrix.zero(0, 2), (), (2, 2), obj)
        return (put(tmp_path, "b.cip", format_instance(bounded)),
                put(tmp_path, "z0.vec", "0 0\n"))

    def test_slack_bounds_mode(self, tmp_path, capsys):
        inst, start = self.slack_instance_files(tmp_path)
        assert main(["solve", inst, start, "--slack-bounds", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out

    def test_slack_bounds_needs_upper_bounds(self, tmp_path, capsys):
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "1 1\n")
        assert main(["solve", inst, start, "--slack-bounds"]) == 2
        captured = capsys.readouterr()
        assert "no upper bounds" in captured.err and captured.out == ""

    def test_lifted_test_set_is_projected(self, tmp_path, capsys):
        # the slack view of the walk is the same on the instance's own set,
        # on that set written out, and on its mirror (t, -t)
        inst, start = self.slack_instance_files(tmp_path)
        plain = compute_test_set(IntMatrix.zero(0, 2), IntMatrix.from_rows([[1, -1]]))
        mirrored = TestSet(4, frozenset(t + tuple(-x for x in t) for t in plain.directions))
        outs = []
        for ts in (None, plain, mirrored):
            extra = [] if ts is None else [
                "--testset", put(tmp_path, "set.ts", format_test_set(ts))]
            assert main(["solve", inst, start, "--slack-bounds"] + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].endswith("optimum: 2 0 0 2\nvalue: 1\nstatus: optimal\n")

    def test_lifted_test_set_needs_mirrored_slack(self, tmp_path, capsys):
        # (0, 1, 0, 0) has slack block 0, not -(0, 1); three columns fit
        # neither the instance nor its slack lift
        inst, start = self.slack_instance_files(tmp_path)
        for rows, err in (("2 4\n1 0 -1 0\n0 1 0 0\n", "kernel"),
                          ("1 3\n1 0 0\n", "dimension")):
            ts = put(tmp_path, "bad.ts", rows)
            assert main(["solve", inst, start, "--testset", ts, "--slack-bounds"]) == 2
            assert err in capsys.readouterr().err

    def test_box_test_set_file_refused_past_its_box(self, tmp_path, capsys):
        # cut down to the unit box, a set read back from its file keeps
        # that box and refuses the [0, 2]^2 instance, in slack
        # coordinates too
        inst, start = self.slack_instance_files(tmp_path)
        unit = box_test_set(IntMatrix.zero(0, 2), IntMatrix.from_rows([[1, -1]]), (1, 1))
        mirrored = TestSet(4, frozenset(t + tuple(-x for x in t) for t in unit.directions),
                           box=(1, 1, 2, 2))
        for ts, extra in ((unit, []), (mirrored, ["--slack-bounds"])):
            path = put(tmp_path, "unit.ts", format_test_set(ts))
            assert main(["solve", inst, start, "--testset", path] + extra) == 2
            captured = capsys.readouterr()
            assert "box" in captured.err and captured.out == ""

    def row_sum_files(self, tmp_path):
        # A = [[1, 1]], b = 2, upper (2, 2), from the corner (2, 0)
        inst = CipInstance(IntMatrix.from_rows([[1, 1]]), (2,), (2, 2),
                           linear_objective([2, 1]))
        return (put(tmp_path, "row.cip", format_instance(inst)),
                put(tmp_path, "z0.vec", "2 0\n"))

    def test_hand_direction_off_the_kernel_is_an_input_error(self, tmp_path, capsys):
        inst, start = self.row_sum_files(tmp_path)
        ts = put(tmp_path, "off.ts", "1 2\n1 0\n")
        assert main(["solve", inst, start, "--testset", ts]) == 2
        assert "not in the kernel" in capsys.readouterr().err

    def test_lifted_hand_direction_off_the_kernel_is_an_input_error(self, tmp_path, capsys):
        inst, start = self.row_sum_files(tmp_path)
        ts = put(tmp_path, "off.ts", "1 4\n1 0 -1 0\n")
        assert main(["solve", inst, start, "--testset", ts, "--slack-bounds"]) == 2
        assert "not in the kernel" in capsys.readouterr().err

    def test_lifted_hand_set_with_unmirrored_slack_is_an_input_error(self, tmp_path, capsys):
        # the z block (1, -1) lies in ker A; the slack block (0, 0) is not -z
        inst, start = self.row_sum_files(tmp_path)
        ts = put(tmp_path, "off.ts", "1 4\n1 -1 0 0\n")
        assert main(["solve", inst, start, "--testset", ts, "--slack-bounds"]) == 2
        assert "not in the kernel" in capsys.readouterr().err

    def test_lifted_hand_set_walks_in_slack_coordinates(self, tmp_path, capsys):
        inst, start = self.row_sum_files(tmp_path)
        ts = put(tmp_path, "pair.ts", "1 4\n1 -1 -1 1\n")
        assert main(["solve", inst, start, "--testset", ts, "--slack-bounds"]) == 0
        assert capsys.readouterr().out == (
            "step 1: t=(1,-1,-1,1) lambda=2 value=2\n"
            "optimum: 0 2 2 0\nvalue: 2\nstatus: optimal\n")

    def test_best_improving_accepted(self, tmp_path, capsys):
        inst = self.instance_file(tmp_path)
        start = put(tmp_path, "z0.vec", "1 1\n")
        ts = pair_directions_file(tmp_path)
        assert main(["solve", inst, start, "--testset", ts,
                     "--best-improving"]) == 0
        assert "optimum: 0 0" in capsys.readouterr().out


class TestQuadCommand:
    def test_psd_matrix_emits_parseable_terms(self, tmp_path, capsys):
        q = put(tmp_path, "q.mat", "2 2\n2 1\n1 2\n")
        assert main(["quad", q]) == 0
        obj = parse_objective(capsys.readouterr().out)
        assert obj.n == 2

    def test_indefinite_matrix_rejected(self, tmp_path, capsys):
        q = put(tmp_path, "q.mat", "2 2\n0 1\n1 0\n")
        assert main(["quad", q]) == 2
        assert "positive semidefinite" in capsys.readouterr().err

    def test_binary_flag_allows_indefinite(self, tmp_path, capsys):
        q = put(tmp_path, "q.mat", "2 2\n0 1\n1 0\n")
        assert main(["quad", q, "--binary"]) == 0
        obj = parse_objective(capsys.readouterr().out)
        assert obj.n == 2

    def test_linear_part_read(self, tmp_path, capsys):
        q = put(tmp_path, "q.mat", "1 1\n4\n")
        c = put(tmp_path, "c.vec", "1/2\n")
        assert main(["quad", q, "--c", c]) == 0
        obj = parse_objective(capsys.readouterr().out)
        assert obj.linear == (0.5,)


    @pytest.mark.parametrize("header, linear", [("0 1", None), ("0 3", "1 2")])
    def test_non_square_header_exits_2(self, tmp_path, capsys, header, linear):
        # no rows, so only the header keeps the column count
        argv = ["quad", put(tmp_path, "q.mat", header + "\n")]
        if linear is not None:
            argv += ["--c", put(tmp_path, "c.vec", linear + "\n")]
        assert main(argv) == 2
        assert "must be square" in capsys.readouterr().err


class TestCompletionBudget:
    H = 10 ** 30 - 1

    @pytest.mark.parametrize("row", [(1, 1, H), (H, 1, -2)])
    def test_hopeless_basis_exits_2(self, tmp_path, capsys, row):
        # Graver bases of about H elements: the completion stops at its budget
        matrix = put(tmp_path, "a.mat", "1 3\n%d %d %d\n" % row)
        with time_bound(60):
            assert main(["graver", matrix]) == 2
        assert "COMPLETION_BUDGET" in capsys.readouterr().err

    def test_bounded_instance_past_the_box_budget_exits_2(self, tmp_path, capsys):
        # the box search gives up on bounds this wide and falls back to
        # the completion of [[1, 1, H], [1, 0, 0]], which stops at its budget
        text = ("A\n1 3\n1 1 %d\nb\n%d\nupper\n%d %d 1\nobjective\n"
                "abs 1 | 1 0 0 | 0\nlinear | 0 0 0\n" % ((self.H,) * 4))
        argv = ["solve", put(tmp_path, "i.txt", text), put(tmp_path, "z.txt", "0 0 1\n")]
        with time_bound(60):
            assert main(argv) == 2
        assert "COMPLETION_BUDGET" in capsys.readouterr().err


class TestVerifyBudget:
    """A --verify oracle past its work budget exits 2, saying so; exit 4
    stays for an oracle that disagrees.  Unbounded, both checks below
    ran for more than 15 s."""

    def test_solve_verify_past_the_budget_exits_2(self, tmp_path, capsys):
        # the check box is 105^6 points under one equation
        text = ("A\n1 6\n1 1 1 -1 -1 -1\nb\n0\nobjective\n"
                "evenpower 1 2 | 1 -1 0 0 0 0 | 0\nlinear | 0 0 0 0 0 0\n")
        argv = ["solve", put(tmp_path, "i.txt", text), put(tmp_path, "z.txt", "100 " * 6)]
        with time_bound(10):
            assert main(argv + ["--verify"]) == 2
        captured = capsys.readouterr()
        assert "status: optimal" in captured.out
        assert "could not verify within the budget" in captured.err
        assert "BRUTE_FORCE_BUDGET" in captured.err

    def test_graver_verify_past_the_budget_exits_2(self, tmp_path, capsys):
        # the check box |v_j| <= 2000 holds 8004 kernel vectors
        matrix = put(tmp_path, "a.mat", "1 3\n1 1 1000\n")
        with time_bound(10):
            assert main(["graver", matrix, "--verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "could not verify within the budget" in captured.err
        assert "ORACLE_BUDGET" in captured.err


class TestMatrixHeaders:
    def test_negative_shape_exits_2(self, tmp_path, capsys):
        q = put(tmp_path, "q.mat", "-1 -1\n5\n")
        assert main(["quad", q]) == 2
        assert "invalid shape" in capsys.readouterr().err

    def test_huge_empty_header_exits_2_promptly(self, tmp_path, capsys):
        q = put(tmp_path, "q.mat", "9999999999999999999999 0\n")
        with time_bound(2.0):
            assert main(["quad", q]) == 2
        assert "invalid shape" in capsys.readouterr().err


class TestQapCommand:
    TOY3 = "3\n0 2 1\n2 0 3\n1 3 0\n0 4 2\n4 0 1\n2 1 0\n"

    def test_three_facility_file_verifies(self, tmp_path, capsys):
        f = put(tmp_path, "toy.dat", self.TOY3)
        assert main(["qap", f, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "value: 22" in out
        assert "permutation: 1 3 2" in out

    def test_json_uses_one_based_labels(self, tmp_path, capsys):
        f = put(tmp_path, "toy.dat", self.TOY3)
        assert main(["qap", f, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["permutation"] == [1, 3, 2]
        assert record["value"] == "22"

    def test_best_improving_accepted(self, tmp_path, capsys):
        f = put(tmp_path, "toy.dat", self.TOY3)
        assert main(["qap", f, "--best-improving", "--verify"]) == 0
        capsys.readouterr()

    def test_bad_file(self, tmp_path, capsys):
        f = put(tmp_path, "toy.dat", "3\n0 1\n")
        assert main(["qap", f]) == 2
        capsys.readouterr()


class TestSelftestCommand:
    def test_battery_passes(self, capsys):
        assert main(["selftest", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_seeded_runs_are_identical(self, capsys):
        main(["selftest", "--seed", "7"])
        first = capsys.readouterr().out
        main(["selftest", "--seed", "7"])
        assert capsys.readouterr().out == first
