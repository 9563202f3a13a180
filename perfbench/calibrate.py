"""The benchmark's reference loops, served from a process of its own.

run.py starts this file as a child interpreter, naming one loop:

    python3 perfbench/calibrate.py python|numpy

and writes one line to its stdin each time it wants the machine's current
speed; the child answers with the seconds one pass of the loop took. The
loops are the benchmark's own code and never call colorproof. Because the
child is a process of its own, nothing the program leaves behind in the
benchmark's process (heap, garbage-collector state, threads, caches it
fills) can slow it. The child is idle between requests. End of input ends
it.

`python` is shaped like a round: random draws, a small tuple, a dict lookup.
`numpy` is shaped like a certificate-sweep sample: Kronecker products,
products and norms of small complex matrices, and a Hermitian eigensolve.
The host's slow state slows the two by different factors (perfbench/README.md),
so each workload is scaled by the loop shaped like its own work.
"""

from __future__ import annotations

import random
import sys
import time

PYTHON_ITERS = 1250  # a pass takes 2 to 4 ms on the 2-vCPU VM the README describes
NUMPY_ITERS = 60  # likewise


def python_pass() -> float:
    """Seconds for one pass of a fixed pure-Python loop shaped like a round."""
    rng = random.Random(7)
    table = {i: i % 3 for i in range(81)}
    acc = 0
    t0 = time.perf_counter()
    for _ in range(PYTHON_ITERS):
        w = tuple(rng.randrange(3) for _ in range(4))
        acc += table[w[0] * 27 + w[1] * 9 + w[2] * 3 + w[3]] + len(w)
    return time.perf_counter() - t0


def numpy_pass_factory():
    import numpy as np

    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]

    def numpy_pass() -> float:
        """Seconds for one pass of a fixed small-matrix loop shaped like a sweep sample."""
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(NUMPY_ITERS):
            k = np.kron(mats[i % 4], mats[(i + 1) % 4])
            h = k @ k.conj().T
            acc += float(np.linalg.norm(h - k @ k.conj().T)) + float(np.linalg.eigvalsh(h)[0])
        return time.perf_counter() - t0

    return numpy_pass


def main() -> None:
    passes = {"python": lambda: python_pass, "numpy": numpy_pass_factory}
    if len(sys.argv) != 2 or sys.argv[1] not in passes:
        sys.exit(f"usage: calibrate.py {'|'.join(passes)}")
    one_pass = passes[sys.argv[1]]()
    for _ in sys.stdin:
        print(repr(one_pass()), flush=True)


if __name__ == "__main__":
    main()
