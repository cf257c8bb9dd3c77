"""Derandomized fuzz of cli.main over every subcommand's file arguments.

Each case writes token soups (headers, section names, huge and negative
numbers, rationals) or token-level mutations of a valid file, runs main
in-process under a wall-clock bound and a traced-memory cap, with
--verify for graver, testset, solve and qap, and demands an exit code
of 0, 2, 3 or 4: never an exception.

A huge matrix entry can give a Graver basis of about that many
elements (that of [1, 1, H] has H + 2).  Its completion
(graver._complete) may run past the wall-clock bound before its budget
(graver.COMPLETION_BUDGET) stops it: the budget has to admit larger
legitimate bases, such as the 865 elements of [2 3 5 7 11 13 17].  So
can a --verify oracle (graver.graver_oracle and its box search
graver.box_kernel_vectors, augment.brute_force_optimum) before its own
budget stops it.  A case overrunning inside the completion or an oracle
therefore runs again under BUDGET_SECONDS and must then end with exit
code 2 and the message of that budget: one naming COMPLETION_BUDGET, or
"could not verify within the budget".  Every other overrun fails.
"""

import io
import os
import signal
import tempfile
import time
import traceback
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graveropt.cli import main

SECONDS = 2.0
MAX_BYTES = 64 << 20
BUDGET_SECONDS = 60.0

HUGE = "9" * 30
TOKENS = [
    "0", "1", "2", "3", "4", "-1", "-2", "-3",
    HUGE, "-" + HUGE, str(1 << 63), str(-(1 << 61)), "1" + "0" * 22,
    "1/2", "-3/4", "7/3", "1/0", "0.5", "1e3", "nan", "x", "#",
    "A", "b", "upper", "objective", "linear", "|", "zero", "evenpower",
    "abs", "geomabs", "table", "extend", "0:1", "-1:2", "1:1/2",
]

# one valid file per argument kind; mutations start from these
VALID = {
    "matrix": "1 3\n1 1 -2\n",
    "compositions": "2 3\n1 0 0\n0 1 -1\n",
    "instance": ("A\n1 3\n1 1 1\nb\n2\nupper\n2 2 2\nobjective\n"
                 "evenpower 1 2 | 1 -1 0 | 0\nabs 2 | 0 1 1 | 1\nlinear | 0 1/2 0\n"),
    "start": "1 1 0\n",
    "testset": "# hcip n=3 s=0\n3 3\n1 -1 0\n1 0 -1\n0 1 -1\n",
    "q": "2 2\n2 1\n1 2\n",
    "c": "1/2 -1\n",
    "qap": "3\n0 2 1\n2 0 3\n1 3 0\n0 4 2\n4 0 1\n2 1 0\n",
}

# the subcommands that take --verify
VERIFY = ("graver", "testset", "solve", "qap")

# the functions whose overrun a budget ends, by file, and the message it
# ends with
BUDGETED = {
    ("graver.py", "_complete"): "COMPLETION_BUDGET",
    ("graver.py", "graver_oracle"): "could not verify within the budget",
    ("graver.py", "box_kernel_vectors"): "could not verify within the budget",
    ("augment.py", "brute_force_optimum"): "could not verify within the budget",
}

# file arguments per subcommand: (kind, option), option None when positional
COMMANDS = {
    "graver": [("matrix", None)],
    "testset": [("matrix", None), ("compositions", None)],
    "ak": [("matrix", None), ("compositions", None)],
    "solve": [("instance", None), ("start", None), ("testset", "--testset")],
    "quad": [("q", None), ("c", "--c")],
    "qap": [("qap", None)],
}

token = st.sampled_from(TOKENS)
separator = st.sampled_from([" ", " ", "\n"])


soup = st.lists(st.tuples(token, separator), max_size=40).map(
    lambda parts: "".join(t + s for t, s in parts))


def mutation(kind):
    """The valid file of this kind with a few tokens replaced, dropped
    or inserted, line breaks kept."""
    lines = [line.split(" ") for line in VALID[kind].splitlines()]
    spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    edit = st.tuples(st.sampled_from(spots), st.sampled_from(["set", "set", "drop", "add"]),
                     token)

    def apply(edits):
        out = [list(line) for line in lines]
        for (i, j), how, tok in sorted(edits, reverse=True):
            if how == "set":
                out[i][j] = tok
            elif how == "drop":
                del out[i][j]
            else:
                out[i].insert(j, tok)
        return "\n".join(" ".join(line) for line in out) + "\n"

    return st.lists(edit, min_size=1, max_size=3, unique_by=lambda e: e[0]).map(apply)


FILE_TEXT = {kind: st.one_of(mutation(kind), mutation(kind), soup) for kind in VALID}


class _Runaway(Exception):
    """Raised from the timer; main() does not catch it."""


@contextmanager
def bounded(seconds, max_bytes):
    """Interrupt the block once it runs past seconds or holds more than
    max_bytes of traced memory; a timer polls both every 10 ms."""
    deadline = time.monotonic() + seconds

    def poll(signum, frame):
        if time.monotonic() > deadline:
            raise _Runaway("still running after %s s" % seconds)
        if tracemalloc.get_traced_memory()[0] > max_bytes:
            raise _Runaway("more than %d bytes traced" % max_bytes)

    tracemalloc.start()
    previous = signal.signal(signal.SIGALRM, poll)
    signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= max_bytes, "peak of %d traced bytes" % peak


def run_cli(command, files, extra=()):
    """Run main on (option or None, file text) arguments plus extra, and
    --verify where the subcommand takes it."""
    argv = [command]
    with tempfile.TemporaryDirectory() as tmp:
        for i, (option, text) in enumerate(files):
            path = os.path.join(tmp, "arg%d" % i)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv += [option, path] if option else [path]
        argv += list(extra) + ["--verify"] * (command in VERIFY)
        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink), bounded(SECONDS, MAX_BYTES):
                code = main(argv)
        except _Runaway as e:
            message = budget_message(e)
            if message is None:
                raise
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink), bounded(BUDGET_SECONDS,
                                                                       MAX_BYTES):
                code = main(argv)
            assert code == 2 and message in sink.getvalue(), (files, extra, code)
    assert code in (0, 2, 3, 4), (files, extra, code)


def budget_message(exc):
    """The message of the budget that ends the innermost budgeted frame
    of the traceback, None if no frame is budgeted."""
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        for (name, func), message in BUDGETED.items():
            if frame.name == func and frame.filename.endswith(name):
                return message
    return None


FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestCliFuzz:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @FUZZ
    @given(data=st.data())
    def test_exit_code_without_exception(self, command, data):
        args = [(kind, option) for kind, option in COMMANDS[command]
                if option is None or data.draw(st.booleans(), label=option)]
        # one argument is fuzzed, the others stay valid so that it is
        # the one read to the end
        target = data.draw(st.sampled_from(range(len(args))), label="fuzzed argument")
        files = [(option, data.draw(FILE_TEXT[kind], label=kind) if i == target
                  else VALID[kind]) for i, (kind, option) in enumerate(args)]
        extra = [str(data.draw(st.integers(-2, 3), label="k"))] if command == "ak" else []
        run_cli(command, files, extra)
