"""Host speed probe, so that runs minutes apart can be compared.

On the 2-vCPU x86_64 host this benchmark was written on, the same fixed
block of ops took anywhere from 0.78 s to 1.39 s within a minute, with the
process alone in its machine: the host runs all Python work up to 1.7x
slower for stretches that last from seconds to minutes.  Raw wall times
of whole 30 s runs then spread by 20-25% between seeds, and the spread
came from the host, not from the inputs.

So `probe()`, a fixed ~2 ms task made of the same kinds of work as the
program (argparse, exact rationals, text building, small numpy arrays)
but touching no `fbasis` code, runs before every op, outside the op's
time.  Each op's wall time is scaled by NOMINAL_S over the median probe
time of the ops around it: seconds at the host's nominal speed.  A
change to the program moves scaled and wall times alike; only the
host's speed drops out.  On the three workloads' blocks this cut the
block-to-block spread of op time from 16-19% to 8-13%.
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 0.002  # probe time on that host when it runs fast
WINDOW = 5  # ops on each side whose probes set an op's scale


def probe() -> float:
    """Seconds one fixed task takes right now."""
    start = perf_counter()
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    for i in range(3):
        cmd = sub.add_parser(f"c{i}")
        for j in range(10):
            cmd.add_argument(f"--o{j}")
    parser.parse_args(["c1", "--o3", "x"])
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i * i)
    json.dumps({f"k{i}": [i, str(i), i / 7] for i in range(300)})
    float((np.arange(1, 2000, dtype=float) ** -1.5).sum())
    return perf_counter() - start


def scale(seconds: float, probes: list[float]) -> float:
    return seconds * NOMINAL_S / statistics.median(probes)


def normalized(walls: list[float], probes: list[float]) -> list[float]:
    """Each wall time at nominal host speed, judged by its neighbours' probes."""
    return [scale(w, probes[max(0, i - WINDOW): i + WINDOW + 1]) for i, w in enumerate(walls)]
