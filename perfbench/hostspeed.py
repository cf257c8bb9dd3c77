"""Host speed, measured beside the workload, to scale its times by.

The benchmark runs on a few cores of a shared host, whose speed swings
by up to a factor of two within minutes as other tenants' load comes
and goes.  The same pass of instances then takes twice as long, and
that swing, not the library, would set the spread of a timing metric
across runs.  So a run interleaves a fixed probe with its instances and
scales every time it reports by REFERENCE_S over the probe's mean time
in that run: the times read as on a host where the probe takes
REFERENCE_S.

The probe is small int64 numpy operations driven from a Python loop,
the mix the library's completion and walk run on.  It shares no code
with the library, so a change to the library cannot move it.  Its mean
tracks the host's speed, where its median does not: the probe's times
are bimodal, and the median jumps between the modes.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Mean probe time on the 2-core host the nominal pass times come from.
REFERENCE_S = 0.0004
# A probe block is one untimed call, which brings the probe's data back
# into cache after the library's work, then PROBE_CALLS timed calls:
# about 2.5 ms at most every PROBE_EVERY_S of library time, at most
# about 2% of a run's wall time.
PROBE_CALLS = 4
PROBE_EVERY_S = 0.1

_MATRIX = np.arange(256 * 16, dtype=np.int64).reshape(256, 16) % 11 - 5


def probe() -> int:
    """A fixed piece of work: sign masks, a reduction test and packed bits
    over slices of a fixed 256 x 16 matrix."""
    hits = 0
    for i in range(20):
        block = _MATRIX[i * 8:i * 8 + 50]
        far = np.abs(block - _MATRIX[i]) > 3
        hits += len(np.nonzero(~far.all(axis=1))[0])
        hits += int(np.packbits(block > 0, axis=1)[0, 0])
    return hits


class HostSpeed:
    """Probe blocks taken between the timed calls of one phase; ``factor``
    is REFERENCE_S over the mean of every timed probe call."""

    def __init__(self) -> None:
        self.calls: list[float] = []
        self.probing = 0.0  # wall time spent in probe blocks
        self._last = None  # end of the last block

    def due(self) -> bool:
        return self._last is None or perf_counter() - self._last >= PROBE_EVERY_S

    def sample(self) -> float:
        """Run one probe block; its wall time, which the caller leaves out
        of what it times."""
        start = perf_counter()
        probe()
        for _ in range(PROBE_CALLS):
            t0 = perf_counter()
            probe()
            self.calls.append(perf_counter() - t0)
        self._last = perf_counter()
        spent = self._last - start
        self.probing += spent
        return spent

    def factor(self) -> float:
        return REFERENCE_S / (sum(self.calls) / len(self.calls))

    def facts(self) -> dict:
        return {"probe_calls": len(self.calls), "factor": self.factor(),
                "probe_mean_s": sum(self.calls) / len(self.calls),
                "probing_s": self.probing}
