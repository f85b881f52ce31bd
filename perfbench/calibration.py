"""Host-speed calibration: every reported time is in reference seconds.

On a shared host the same Python code can run at half speed for seconds at
a time while other tenants are busy; on the 2-core host this benchmark was
built on, raw wall-clock figures of identical runs spread by 15-30%.  So
six fixed kernels, one for each kind of work the program does (bytecode
and dict updates, Fraction sums, 3,000-bit and 20,000-bit integer
arithmetic, a small recursive integer count, string formatting and
splitting), are timed between consecutive jobs.  The host's slowness at a
moment is the mean over the kernels of measured time / nominal time, and a
job's wall time divided by the mean slowness measured just before and just
after it is its time in reference seconds: the time it would take on a
host where each kernel takes exactly its nominal time.  The kernels are
fixed, so a change to the program moves the reported time and a change in
host speed mostly does not.  Wall-clock figures are printed next to the
reported ones.

Set-up time is scaled differently, because the warm kernels above do not
track what slows a cold start: interpreter start-up and imports swung by
up to 50% between minutes on the build host while the kernels read the
same.  ``setup_time`` starts the program's set-up probe and then a
reference process, a fresh interpreter that imports a fixed set of
standard modules, and reports probe time / reference time times the
reference's nominal time.  Both are cold starts, so a slow host slows both.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

_MODULUS = 3**2000 + 1


def _bytecode() -> int:
    x, table = 1, {}
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        table[i & 63] = table.get(i & 63, 0) + x
    return len(table)


def _fractions() -> int:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i * 7 % 997 + i, i)
    return total.numerator


def _big_ints() -> int:
    big = 7**1500
    for _ in range(7):
        big = big * _MODULUS % (_MODULUS * _MODULUS + 2) + 1
    return big


_WIDE = 7**7000 + 3  # about 20,000 bits


def _wide_ints() -> int:
    wide = _WIDE
    for _ in range(2):
        wide = (wide * _WIDE) >> 19_000
    return wide


def _recursion() -> int:
    def count(level: int, remaining: int) -> int:
        if level == 5:
            return 2 * (remaining // 3) + 1
        total = count(level + 1, remaining)
        for k in range(1, remaining // (level + 2) + 1):
            total += 2 * count(level + 1, remaining - k * (level + 2))
        return total

    return count(0, 26)


def _strings() -> int:
    lines = [",".join(str(a) for a in (i, -i, 3 * i)) for i in range(300)]
    return len("\n".join(lines).splitlines())


# kernel -> its nominal time: the median measured on the build host
KERNELS = {
    _bytecode: 0.00052,
    _fractions: 0.00057,
    _big_ints: 0.00057,
    _wide_ints: 0.00052,
    _recursion: 0.00046,
    _strings: 0.00048,
}


def slowness() -> float:
    """Mean over the kernels of measured time / nominal time, measured now."""
    total = 0.0
    for kernel, nominal in KERNELS.items():
        start = time.perf_counter()
        kernel()
        total += (time.perf_counter() - start) / nominal
    return total / len(KERNELS)


# Each prints the nanoseconds from argv[1], read from the system-wide
# monotonic clock just before the process was started, to its own end of
# import: interpreter start-up plus imports.
SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[2]); import laurentreal.cli; "
               "print(time.monotonic_ns() - int(sys.argv[1]))")
SETUP_REFERENCE = ("import sys, time; import argparse, dataclasses, fractions, inspect, json; "
                   "print(time.monotonic_ns() - int(sys.argv[1]))")
SETUP_REFERENCE_S = 0.064  # its nominal time: the median measured on the build host


def _start_ns(code: str, src: Path) -> int:
    t0 = time.monotonic_ns()
    done = subprocess.run([sys.executable, "-c", code, str(t0), str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    return int(done.stdout)


def setup_time(src: Path) -> tuple[float, float]:
    """One set-up measurement of the program in ``src``: (reference s, wall-clock s)."""
    probe = _start_ns(SETUP_PROBE, src)
    reference = _start_ns(SETUP_REFERENCE, src)
    return probe / reference * SETUP_REFERENCE_S, probe / 1e9
