"""Command line front end.

Exit codes: 0 success, 2 input error, 3 infeasible start,
4 verification failure.  File outputs are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

from .augment import (CipInstance, InfeasibleStartError, SolveReport,
                      SolveStatus, Step, brute_force_optimum, instance_test_set,
                      parse_instance, solve)
from .core import (IntMatrix, ParseError, Vec, format_int_matrix, negate,
                   parse_int_matrix, parse_int_vector, split_matrix_text)
from .graver import compute_graver, verify_against_oracle
from .objective import ScaledEvenPower, SeparableObjective, Term, format_objective
from .qap import permutation_oracle, read_qaplib, solve_qap
from .quadratic import (binary_identity_holds, binary_rephrase, is_psd,
                        parse_rat_matrix, parse_rat_vector, rat_matrix,
                        reconstruct, to_separable)
from .testset import (TestSet, build_split_matrix, compute_test_set,
                      format_test_set, parse_test_set)


class VerificationError(Exception):
    """An internal cross-check failed."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _require_files(*paths: str | None) -> None:
    for p in paths:
        if p is not None and not os.path.isfile(p):
            raise OSError("input file not found: %s" % p)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt_vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _report_text(report: SolveReport, as_json: bool) -> str:
    lines = []
    if as_json:
        for i, s in enumerate(report.steps, start=1):
            lines.append(json.dumps({"step": i, "t": list(s.direction),
                                     "lambda": s.length,
                                     "value": str(s.value_after)}))
        lines.append(json.dumps({"optimum": list(report.optimum),
                                 "value": str(report.value),
                                 "status": report.status.value}))
    else:
        for i, s in enumerate(report.steps, start=1):
            lines.append("step %d: t=%s lambda=%d value=%s"
                         % (i, _fmt_vec(s.direction), s.length, s.value_after))
        lines.append("optimum: %s" % " ".join(str(x) for x in report.optimum))
        lines.append("value: %s" % report.value)
        lines.append("status: %s" % report.status.value)
    return "\n".join(lines) + "\n"


def cmd_graver(args) -> int:
    _require_files(args.matrix)
    a = parse_int_matrix(_read(args.matrix))
    basis = compute_graver(a)
    if args.verify and not verify_against_oracle(a, basis):
        raise VerificationError("graver: enumeration disagrees with completion")
    rows = sorted(basis.directions)
    m = IntMatrix(len(rows), a.cols, tuple(rows))
    _emit(format_int_matrix(m), args.out)
    return 0


def cmd_testset(args) -> int:
    _require_files(args.matrix, args.compositions)
    a = parse_int_matrix(_read(args.matrix))
    c = parse_int_matrix(_read(args.compositions))
    t = compute_test_set(a, c)
    if args.verify:
        if not compute_graver(a).directions <= t.directions:
            raise VerificationError("testset: Graver basis not contained in result")
    _emit(format_test_set(t), args.out)
    return 0


def cmd_ak(args) -> int:
    _require_files(args.matrix, args.compositions)
    a = parse_int_matrix(_read(args.matrix))
    c = parse_int_matrix(_read(args.compositions))
    m = build_split_matrix(a, c, args.k)
    _emit(format_int_matrix(m), args.out)
    return 0


def _slack_view(report: SolveReport, upper: Vec) -> SolveReport:
    """The walk in the coordinates (z, u - z) of the slack lift z + s = u:
    the walk the lift would take on the mirrored set, since its bound
    rule on slack j is (u_j - z_j) // (-t_j), the plain instance's,
    (t, -t) sorts and canonicalises as t does, and f ignores s."""
    z = report.optimum
    steps = tuple(Step(s.direction + negate(s.direction), s.length, s.value_after)
                  for s in report.steps)
    return SolveReport(report.status, z + tuple(u - x for u, x in zip(upper, z)),
                       report.value, steps)


def cmd_solve(args) -> int:
    _require_files(args.instance, args.start, args.testset)
    inst = parse_instance(_read(args.instance))
    z0 = parse_int_vector(_read(args.start))
    if args.slack_bounds and inst.upper is None:
        raise ValueError("solve --slack-bounds: instance has no upper bounds")
    if args.testset is None:
        t_set = instance_test_set(inst)
    else:
        t_set = parse_test_set(_read(args.testset))
        if args.slack_bounds and t_set.dimension == 2 * inst.n:
            # a kernel vector (t, s) of the slack lift [[A, 0], [I, I]] has
            # s = -t; solve checks that t lies in ker A
            n = inst.n
            for d in t_set.directions:
                if d[n:] != negate(d[:n]):
                    raise ValueError("test set direction %s is not in the kernel of "
                                     "the slack-lifted constraint matrix" % (d,))
            # slack j moves by -t_j, so its bound holds t_j as well
            box = t_set.box and tuple(map(min, t_set.box[:n], t_set.box[n:]))
            t_set = TestSet(n, frozenset(d[:n] for d in t_set.directions), box=box)
    report = solve(inst, t_set, z0, best=args.best_improving, cap=args.cap)
    shown = _slack_view(report, inst.upper) if args.slack_bounds else report
    _emit(_report_text(shown, args.json), args.out)
    if args.verify:
        if report.status is not SolveStatus.OPTIMAL:
            raise VerificationError("solve: walk ended with status %s"
                                    % report.status.value)
        if args.box is not None:
            box = tuple(args.box)
        else:
            peak = [max(a, b) for a, b in zip(z0, report.optimum)]
            box = tuple(x + 5 for x in peak)
        _, best_val = brute_force_optimum(inst, box)
        if best_val != report.value:
            raise VerificationError("solve: endpoint value %s, exhaustive minimum %s"
                                    % (report.value, best_val))
    return 0


def cmd_quad(args) -> int:
    _require_files(args.q, args.c)
    text = _read(args.q)
    rows, cols, _ = split_matrix_text(text)
    if rows != cols:
        raise ParseError("quad: matrix must be square, got %d x %d" % (rows, cols))
    q = parse_rat_matrix(text)
    n = len(q)
    c = parse_rat_vector(_read(args.c)) if args.c else (Fraction(0),) * n
    if args.binary:
        terms, cbar = binary_rephrase(q, c)
        if not binary_identity_holds(q, c, terms, cbar):
            raise VerificationError("quad: binary identity check failed")
    else:
        if not is_psd(q):
            raise ParseError("quad: matrix is not positive semidefinite "
                             "(use --binary for 0/1 variables)")
        terms, cbar = to_separable(q), tuple(c)
        if reconstruct(terms, n) != rat_matrix(q):
            raise VerificationError("quad: reconstruction check failed")
    obj = SeparableObjective(n, tuple(Term(ScaledEvenPower(a, 2), cv, 0)
                                      for a, cv in terms), cbar)
    _emit(format_objective(obj), args.out)
    return 0


def cmd_qap(args) -> int:
    _require_files(args.file)
    q = read_qaplib(_read(args.file))
    perm, value, report = solve_qap(q, best=args.best_improving)
    if args.json:
        text = json.dumps({"permutation": [p + 1 for p in perm],
                           "value": str(value),
                           "steps": len(report.steps)}) + "\n"
    else:
        text = "permutation: %s, value: %s\n" % (
            " ".join(str(p + 1) for p in perm), value)
    _emit(text, args.out)
    if args.verify:
        _, oracle_value = permutation_oracle(q)
        if oracle_value != value:
            raise VerificationError("qap: walk value %s, oracle value %s"
                                    % (value, oracle_value))
    return 0


def _selftest_battery(seed: int):
    rng = random.Random(seed)
    yield "lawrence", _selftest_lawrence(rng)
    yield "psd-reconstruction", _selftest_psd(rng)
    yield "binary-rephrase", _selftest_binary(rng)
    yield "bounded-solve", _selftest_solve(rng)


def _selftest_lawrence(rng) -> bool:
    for _ in range(5):
        d, n = rng.randint(1, 2), rng.randint(2, 4)
        a = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                                 for _ in range(d)], cols=n)
        t = compute_test_set(a, IntMatrix.identity(n))
        if t.directions != compute_graver(a).directions:
            return False
    return True


def _selftest_psd(rng) -> bool:
    for _ in range(5):
        n = rng.randint(1, 4)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = rat_matrix([[sum(b[k][i] * b[k][j] for k in range(n))
                         for j in range(n)] for i in range(n)])
        if reconstruct(to_separable(q), n) != q:
            return False
    return True


def _selftest_binary(rng) -> bool:
    for _ in range(5):
        n = rng.randint(1, 4)
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q[i][j] = q[j][i] = rng.randint(-3, 3)
        c = [rng.randint(-2, 2) for _ in range(n)]
        terms, cbar = binary_rephrase(rat_matrix(q), c)
        if not binary_identity_holds(rat_matrix(q), c, terms, cbar):
            return False
    return True


def _selftest_solve(rng) -> bool:
    for _ in range(3):
        n = 3
        a = IntMatrix.from_rows([[rng.randint(-1, 2) for _ in range(n)]], cols=n)
        zstar = tuple(rng.randint(0, 2) for _ in range(n))
        upper = (3,) * n
        terms = tuple(Term(ScaledEvenPower(rng.randint(1, 3), 2),
                           tuple(rng.randint(-2, 2) for _ in range(n)),
                           rng.randint(-2, 2)) for _ in range(2))
        obj = SeparableObjective(n, terms,
                                 tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))
        inst = CipInstance(a, a.mat_vec(zstar), upper, obj)
        report = solve(inst, instance_test_set(inst), zstar)
        _, best_val = brute_force_optimum(inst, upper)
        if report.status is not SolveStatus.OPTIMAL or report.value != best_val:
            return False
    return True


def cmd_selftest(args) -> int:
    failures = 0
    for name, ok in _selftest_battery(args.seed):
        print("%s %s" % ("PASS" if ok else "FAIL", name))
        if not ok:
            failures += 1
    if failures:
        raise VerificationError("selftest: %d check(s) failed" % failures)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graveropt",
        description="Exact Graver test sets and augmentation for integer "
                    "programs with separable discrete-convex objectives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graver", help="Graver basis of an integer matrix")
    p.add_argument("matrix")
    p.add_argument("--verify", action="store_true",
                   help="re-derive by box enumeration and compare")
    p.add_argument("--out", help="write result to this path (atomic)")
    p.set_defaults(func=cmd_graver)

    p = sub.add_parser("testset", help="direction set for an (A, C) family")
    p.add_argument("matrix")
    p.add_argument("compositions")
    p.add_argument("--verify", action="store_true",
                   help="check the Graver basis of A is contained")
    p.add_argument("--out", help="write result to this path (atomic)")
    p.set_defaults(func=cmd_testset)

    p = sub.add_parser("ak", help="widened lift with k-column unit splits")
    p.add_argument("matrix")
    p.add_argument("compositions")
    p.add_argument("k", type=int)
    p.add_argument("--out", help="write result to this path (atomic)")
    p.set_defaults(func=cmd_ak)

    p = sub.add_parser("solve", help="augment an instance to optimality")
    p.add_argument("instance")
    p.add_argument("start")
    p.add_argument("--testset", help="precomputed direction set file")
    p.add_argument("--slack-bounds", action="store_true",
                   help="print the walk in the slack coordinates (z, u - z) of "
                        "z + s = u; a 2n-column --testset holds rows (t, -t)")
    p.add_argument("--best-improving", action="store_true")
    p.add_argument("--cap", type=int, default=10 ** 6,
                   help="bound on the walk's steps and on each step's length; past "
                        "it the walk ends unbounded-suspected (default 10^6)")
    p.add_argument("--verify", action="store_true",
                   help="compare against exhaustive minimum")
    p.add_argument("--box", type=int, nargs="+",
                   help="enumeration box for --verify")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write result to this path (atomic)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("quad", help="separable form of a rational quadratic")
    p.add_argument("q")
    p.add_argument("--c", help="linear part (one line of rationals)")
    p.add_argument("--binary", action="store_true",
                   help="allow the 0/1 identity z^2 = z")
    p.add_argument("--out", help="write result to this path (atomic)")
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("qap", help="solve a quadratic assignment file")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true",
                   help="compare against permutation enumeration")
    p.add_argument("--best-improving", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write result to this path (atomic)")
    p.set_defaults(func=cmd_qap)

    p = sub.add_parser("selftest", help="randomized internal cross-checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleStartError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except VerificationError as e:
        print("verification failed: %s" % e, file=sys.stderr)
        return 4
    except (ParseError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
