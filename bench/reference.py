"""Reference work that measures the speed of the host, not of the program.

The benchmark shares a virtual machine with other tenants, and the speed of
that machine drifts with their load by a quarter and more over minutes.  So
the benchmark interleaves a fixed piece of work that does not touch
``veesys`` with its own operations, and scales every time it reports by how
long that work took in the same run.  The work is a fresh interpreter that
imports numpy: the kind of work a CLI call or a set-up start does, and, of
the references tried, the one whose time tracked the drift of the in-process
workloads most closely as well.

The speed changes within a run too (the host switches between states some
seconds apart), so each measured time is scaled by the reference starts
nearest to it: ``time * NOMINAL / median of the NEAREST closest reference
times``.  That is what the operation would have taken had the reference
taken its nominal time, about its median on the reference machine (a 2-vCPU
Intel Xeon VM, Python 3.11, numpy 2.4) when idle.
"""

import bisect
import resource
import statistics
import subprocess
import time

# Nominal wall and CPU seconds of one reference start.
NOMINAL = {"wall": 0.125, "cpu": 0.12}
NEAREST = 5
_TIMEOUT_S = 120


class Reference:
    """Starts ``python -c 'import numpy'`` and keeps its wall and CPU times."""

    def __init__(self, python, env):
        self.python, self.env = python, env
        self.stamps, self.walls, self.cpus = [], [], []

    def run(self):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        self.stamps.append(start)
        subprocess.run([self.python, "-c", "import numpy"], env=self.env,
                       capture_output=True, check=True, timeout=_TIMEOUT_S)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.walls.append(wall)
        self.cpus.append((after.ru_utime - before.ru_utime)
                         + (after.ru_stime - before.ru_stime))
        return wall

    def factor(self, column="wall"):
        """Nominal over the median reference time of the whole run: < 1 on
        a host slower than the reference machine, > 1 on a faster one."""
        values = self.walls if column == "wall" else self.cpus
        return NOMINAL[column] / statistics.median(values)

    def factors(self, stamps, column="wall"):
        """The factor at each time stamp, from the ``NEAREST`` reference
        starts around it."""
        values = self.walls if column == "wall" else self.cpus
        last = max(0, len(values) - NEAREST)
        out = []
        for stamp in stamps:
            lo = min(max(0, bisect.bisect(self.stamps, stamp) - NEAREST // 2), last)
            out.append(NOMINAL[column] / statistics.median(values[lo:lo + NEAREST]))
        return out
