"""Same outputs: digests of the benchmark workloads' results.

    python3 tools/same_outputs.py [--record KEY [KEY ...]]

Run from anywhere; the tool imports graveropt from the checkout's src
and the workloads from perfbench/, which it only reads.  For each
workload and seed in SEEDS it draws the first PASSES passes as the
bench does (rng = random.Random("<workload>:<seed>"), state =
setup(None)), runs every instance untimed, and hashes the repr of each
result in order: sha256, first 16 hex digits.  For bounded-qp and
qap-n3 it also hashes every instance_test_set result of those passes
as (dimension, sorted directions, provenance, box).  For every
workload and seed it hashes, as the completion digest, the messages of
the DEBUG records that graveropt.graver and graveropt.testset emit over
set-up and those passes: start columns, |det|, candidates, rounds and
elements of each lift step, and each box search's candidates, kept
directions and sign-prefilter pairs, or the candidates of a family
that takes them all unfiltered.  Each workload and seed starts
with box_test_set's caches empty, so that digest does not depend on
which runs came before.  The entry qap-signed at each seed is no
bench workload: it hashes the solve_qap results on mixed-sign
assignment draws the tool makes itself (3 and 4 facilities, rng =
random.Random("qap-signed:<seed>")), the data on which no workload
runs to_cip.  The bases entry hashes compute_graver over a seeded set
of random matrices and some fixed ones (basis_matrices), as
(dimension, sorted directions), and, as its trace, the messages of the
DEBUG records graveropt.graver emits over them (start columns, |det|,
candidates, rounds and elements of each lift step): once at the
default graver._FAST_ABS_LIMIT and once with it lowered to 4, so that
the completion runs on object arrays from 1-norm 4 on.

It prints the digests as JSON and compares them with DIGESTS, the file
next to this one; any difference is listed on standard error and the
exit code is 1.  A change that alters outputs on purpose records the
new digests of just the entries it names, each KEY a kind and key as
the difference lines print them ("completion graver-lift 7"): --record
rewrites those entries of DIGESTS and compares the rest as before.  A
KEY that neither DIGESTS nor the tool's key scheme (keys) holds is
refused before any digest is computed, and one the run holds no digest
for after; either way the exit code is 2 and nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import random
import sys
from contextlib import contextmanager
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().with_name("same_outputs.json")
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "perfbench")]

from graveropt import augment, graver, qap, testset  # noqa: E402
from graveropt.core import IntMatrix  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SEEDS = (7, 8, 9)
PASSES = 8
# the workloads whose runs call instance_test_set
TEST_SET_WORKLOADS = ("bounded-qp", "qap-n3")
SIGNED = "qap-signed"
SIGNED_SIZES = (3,) * 8 + (4,) * 4  # facilities of each mixed-sign draw
# the forced int64 limits of the bases entry, None for the default
BASIS_LIMITS = (None, 4)
# the loggers whose DEBUG records trace the completion and the box search
COMPLETION_LOGGERS = ("graveropt.graver", "graveropt.testset")


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


@contextmanager
def recorded_test_sets():
    """A list that collects every instance_test_set result while open."""
    original = augment.instance_test_set
    seen = []

    def record(inst):
        t_set = original(inst)
        seen.append((t_set.dimension, sorted(t_set.directions), t_set.provenance,
                     t_set.box))
        return t_set

    augment.instance_test_set = qap.instance_test_set = record
    try:
        yield seen
    finally:
        augment.instance_test_set = qap.instance_test_set = original


@contextmanager
def recorded_completion():
    """A list that collects the messages of every DEBUG record of
    COMPLETION_LOGGERS while open."""
    seen = []

    class Record(logging.Handler):
        def emit(self, record):
            if record.levelno == logging.DEBUG:
                seen.append(record.getMessage())

    handler = Record(logging.DEBUG)
    loggers = [logging.getLogger(name) for name in COMPLETION_LOGGERS]
    levels = [log.level for log in loggers]
    for log in loggers:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        yield seen
    finally:
        for log, level in zip(loggers, levels):
            log.removeHandler(handler)
            log.setLevel(level)


def run(name: str, seed: int, passes: int) -> tuple[str, str, str]:
    """(results, instance_test_set, completion) digests of the first passes."""
    testset._box_family.cache_clear()
    testset._box_candidates.cache_clear()
    workload = WORKLOADS[name]()
    rng = random.Random("%s:%d" % (name, seed))
    with recorded_completion() as trace:
        state = workload.setup(None)
        with recorded_test_sets() as test_sets:
            results = [workload.run(state, spec, args)
                       for _ in range(passes) for spec, args in workload.draw(state, rng)]
    return digest(results), digest(test_sets), digest(trace)


def signed_draws(seed: int) -> list:
    """Hollow flow and distance with entries -3..5, and fixed costs in
    -3..5 on every other draw."""
    rng = random.Random("%s:%d" % (SIGNED, seed))
    draws = []
    for k, n in enumerate(SIGNED_SIZES):
        def square():
            return [[rng.randint(-3, 5) for _ in range(n)] for _ in range(n)]
        flow, distance = square(), square()
        for i in range(n):
            flow[i][i] = distance[i][i] = 0
        draws.append(qap.koopmans_beckmann(flow, distance, square() if k % 2 else None))
    return draws


def signed(seed: int) -> str:
    """Digest of the solve_qap results on the mixed-sign draws of seed."""
    return digest(qap.solve_qap(q) for q in signed_draws(seed))


def basis_matrices() -> list[IntMatrix]:
    """600 random matrices of 1 to 3 rows and 2 to 5 columns with
    entries in -3..3, 80 of 1 to 3 rows and 5 to 7 columns in -2..2, 26
    of 1 to 2 rows and 2 to 6 columns in -5..5 (rng =
    random.Random("bases")), six edge cases (a start lattice 3Z, a
    start of |det| above 1 on three columns, no rows, zero columns, a
    trivial kernel, a zero row) and four one-row matrices of 180 to 311
    elements with no unit entry, whose start index depends most on the
    start columns."""
    rng = random.Random("bases")
    out = []
    for count, rows, cols, mag in ((600, 3, (2, 5), 3), (80, 3, (5, 7), 2),
                                   (26, 2, (2, 6), 5)):
        for _ in range(count):
            r, c = rng.randint(1, rows), rng.randint(*cols)
            out.append(IntMatrix.from_rows(
                [[rng.randint(-mag, mag) for _ in range(c)] for _ in range(r)]))
    edges = [([[2, 3]], 2), ([[6, 10, 15]], 3), ([], 3), ([[0, 1, -1, 0], [0, 2, 1, 0]], 4),
             ([[1, 0], [0, 1]], 2), ([[1, 2, 0], [0, 0, 0]], 3)]
    one_row = [[2, 3, 5, 7, 11, 13], [4, 6, 9, 10, 15, 21], [3, 4, 5, 6, 7, 8],
               [11, 13, 17, 19, 23]]
    edges += [([row], len(row)) for row in one_row]
    return out + [IntMatrix.from_rows(rows, cols=cols) for rows, cols in edges]


def bases(limit: int | None) -> tuple[str, str]:
    """(bases, trace) digests of compute_graver over basis_matrices at
    an int64 limit."""
    original = graver._FAST_ABS_LIMIT
    graver._FAST_ABS_LIMIT = original if limit is None else limit
    try:
        with recorded_completion() as trace:
            sets = [(t.dimension, sorted(t.directions))
                    for t in map(graver.compute_graver, basis_matrices())]
        return digest(sets), digest(trace)
    finally:
        graver._FAST_ABS_LIMIT = original


def keys() -> dict:
    """The keys of each kind that digests() fills, computing nothing."""
    runs = ["%s %d" % (name, seed) for name in WORKLOADS for seed in SEEDS]
    return {"results": runs + ["%s %d" % (SIGNED, seed) for seed in SEEDS],
            "instance_test_set": ["%s %d" % (name, seed)
                                  for name in TEST_SET_WORKLOADS for seed in SEEDS],
            "completion": runs,
            "bases": ["%s %s" % (part, limit or "default")
                      for limit in BASIS_LIMITS for part in ("limit", "trace")]}


def digests() -> dict:
    out = {"results": {}, "instance_test_set": {}, "completion": {}, "bases": {}}
    for limit in BASIS_LIMITS:
        label = limit or "default"
        out["bases"]["limit %s" % label], out["bases"]["trace %s" % label] = bases(limit)
    for name in WORKLOADS:
        for seed in SEEDS:
            key = "%s %d" % (name, seed)
            out["results"][key], sets, out["completion"][key] = run(name, seed, PASSES)
            if name in TEST_SET_WORKLOADS:
                out["instance_test_set"][key] = sets
    for seed in SEEDS:
        out["results"]["%s %d" % (SIGNED, seed)] = signed(seed)
    return out


def mismatches(got: dict, want: dict) -> list[str]:
    """One line per digest that differs from, or is missing in, either."""
    return ["%s %s: %s, recorded %s" % (kind, key, ours.get(key), theirs.get(key))
            for kind in sorted(set(got) | set(want))
            for ours, theirs in [(got.get(kind, {}), want.get(kind, {}))]
            for key in sorted(set(ours) | set(theirs))
            if ours.get(key) != theirs.get(key)]


def record(got: dict, want: dict, names: list[str]) -> dict:
    """want with the digests named ("<kind> <key>") taken from got; a
    name that got holds no digest for is a ValueError."""
    out = {kind: dict(entries) for kind, entries in want.items()}
    for name in names:
        kind, _, key = name.partition(" ")
        if key not in got.get(kind, {}):
            raise ValueError("same_outputs: no digest %r to record" % name)
        out.setdefault(kind, {})[key] = got[kind][key]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Digests of the benchmark workloads' "
                                                 "results, compared with %s." % DIGESTS.name)
    parser.add_argument("--record", nargs="+", default=[], metavar="KEY",
                        help='record these digests, each "<kind> <key>" as a difference '
                             'line names it, and compare the rest')
    args = parser.parse_args(argv)
    want = json.loads(DIGESTS.read_text())
    known = {"%s %s" % (kind, key) for source in (want, keys())
             for kind, entries in source.items() for key in entries}
    for name in args.record:
        if name not in known:  # refused before any workload runs
            print("same_outputs: no digest %r to record" % name, file=sys.stderr)
            return 2
    got = digests()
    print(json.dumps(got, indent=1, sort_keys=True))
    if args.record:
        try:
            want = record(got, want, args.record)
        except ValueError as err:
            print(err, file=sys.stderr)
            return 2
        DIGESTS.write_text(json.dumps(want, indent=1, sort_keys=True) + "\n")
    bad = mismatches(got, want)
    for line in bad:
        print("same_outputs: %s" % line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
