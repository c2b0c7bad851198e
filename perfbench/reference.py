"""The benchmark's reference kernel, timed in a helper process of its own.

The end-to-end times are scaled by the time of a fixed reference kernel, so
that the speed of a shared host, which drifts by up to half over minutes,
divides out.  The kernel runs here, in a child process that the program never
touches, for two reasons.  Its allocations stay out of the benchmark
process's peak resident set, which is the program's figure.  And whatever
the program does to its own process (a thread that holds the GIL, a grown
heap, large buffers left behind) slows the program but not the kernel, so it
shows in the scaled rate instead of dividing out.

Protocol, one line each way: the parent writes a count n and reads back a
JSON list of n kernel times in seconds; it writes "peak" and reads back the
resident set the kernel added to this process, in MB; it closes stdin to
end the helper.  The parent blocks while the kernel runs, so the two never
run at once.

Run by run.py as ``python3 perfbench/reference.py``; not meant to be run by
hand.
"""

import json
import resource
import sys
import time

import numpy as np


def kernel() -> None:
    """Fixed work, about 50 ms on a quiet 2-core x86 VM: half 64 x 100
    matrix products with tanh, as in BPTT and the forward pass, half dict
    updates in the interpreter, as in merging and imports."""
    rng = np.random.default_rng(0)
    h, w = rng.standard_normal((64, 100)), 0.1 * rng.standard_normal((100, 100))
    for _ in range(600):
        h = np.tanh(h @ w)
    counts: dict[int, int] = {}
    for i in range(200_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1


def timed() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def serve() -> None:
    before = max_rss_mb()
    for line in sys.stdin:
        request = line.strip()
        if request == "peak":
            reply = max_rss_mb() - before
        else:
            reply = [timed() for _ in range(int(request))]
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
