"""A fixed CPU loop that shows how fast the shared host runs right now.

On a shared host the speed of a core swings by a quarter within seconds
(other tenants, SMT siblings, clock changes), and timings of the program
swing with it. The benchmark times this loop right after each round (or
command, or set-up) and reports CPU times scaled by NOMINAL_S / loop
time: the time the work would take when the loop takes NOMINAL_S.
The loop mixes what the program's own time is made of: small complex
LAPACK calls and interpreted Python.

A command-line run is mostly interpreter start-up and imports, which the
host speeds up and slows down differently; cli-fixtures therefore pairs
each command with IMPORT_PROBE, a fresh interpreter that imports numpy
and scipy.linalg, and scales by NOMINAL_IMPORT_S / probe CPU time.
"""

from __future__ import annotations

import time

import numpy as np

#: the loop's median CPU time on the reference host (see README.md)
NOMINAL_S = 1.2e-3

#: code of the command-line probe, and its median CPU time (start-up
#: included) on the reference host
IMPORT_PROBE = "import numpy, scipy.linalg"
NOMINAL_IMPORT_S = 0.45

_A = np.linspace(0.0, 1.0, 144).reshape(12, 12) + 0.5j


def loop_seconds(reps: int = 1) -> float:
    """CPU seconds of one pass of the loop (averaged over ``reps`` passes)."""
    start = time.process_time()
    for _ in range(60 * reps):
        np.linalg.slogdet(_A @ _A)
    sum(i * i for i in range(2000 * reps))
    return (time.process_time() - start) / reps
