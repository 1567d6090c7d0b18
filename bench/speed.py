"""A fixed probe of the host's speed, run between units of measured work.

The benchmark's host is shared: the same work runs up to a third slower
for seconds to minutes at a time, for every kind of work at once. A probe
that calls nothing of the library runs before the first unit and after
every unit; a unit's time is scaled by PROBE_NOMINAL_S over the probe
times around it. The scaled time is what the unit would take on a
host where the probe takes PROBE_NOMINAL_S, so a change to the library
moves it and a change in the host's load mostly does not.
"""

import statistics
import time

PROBE_LOOPS = 300_000
# The probe's time on an idle core of the 2-vCPU x86 host (2.0 GHz,
# Python 3.11) the benchmark was defined on; it sets the scale of every
# reported time, not its spread.
PROBE_NOMINAL_S = 0.026
SMOOTH = 2


def probe() -> float:
    """Wall time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


class Probes:
    """Probe times of one measured loop, the first taken on creation.

    Units of work run between probes; the units between probe k-1 and
    probe k are scaled by the median of the probes from k-1-SMOOTH to
    k+SMOOTH, which follows the host's drift but not the jitter of a
    single probe.
    """

    def __init__(self):
        self.times = [probe()]

    def take(self) -> int:
        """Probe after some units; the index that names their gap."""
        self.times.append(probe())
        return len(self.times) - 1

    def scale(self, k: int) -> float:
        """Factor from wall time to nominal time in gap k."""
        window = self.times[max(0, k - 1 - SMOOTH):k + 1 + SMOOTH]
        return PROBE_NOMINAL_S / statistics.median(window)

    def nominal_s(self, times, gaps) -> list:
        """Nominal time of each unit, given the gap it ran in."""
        return [t * self.scale(k) for t, k in zip(times, gaps)]

    def median(self) -> float:
        return statistics.median(self.times)
