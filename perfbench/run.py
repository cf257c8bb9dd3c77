"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a child
process of its own, importing the package from the checkout's src,
with the BLAS and OpenMP thread pools pinned to one thread.  The last
line of standard output is the result as one JSON object:
correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  See README.md in this
directory for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("graver-lift", "bounded-qp", "qap-n3", "walk-dense")
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="graveropt benchmark, one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    src = CHECKOUT / "src"
    if not (src / "graveropt" / "__init__.py").is_file():
        print("run.py: no package source at %s; run from a source checkout" % src,
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONPATH": str(src)})
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The child gets a process group of its own, so a timeout also ends
    # any interpreter it started.
    with subprocess.Popen(cmd, env=env, cwd=CHECKOUT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            _, err = child.communicate()
            sys.stderr.write(err)
            print("run.py: workload %s exceeded %ds" % (args.workload, CHILD_TIMEOUT_S),
                  file=sys.stderr)
            return 1
    sys.stderr.write(err)
    lines = out.rstrip("\n").splitlines()
    if child.returncode != 0 or not lines:
        print("run.py: workload %s exited with code %d"
              % (args.workload, child.returncode), file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("run.py: workload %s printed no result line" % args.workload,
              file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
