"""Resident-set growth of one call, numpy's sort buffers included.

tracemalloc does not see numpy's sort buffers (radix and timsort work
arrays are plain ``malloc``), so a bound on a tracemalloc peak passes while
a sort allocates more. These bounds read the kernel's count instead, in a
fresh interpreter: the growth is the peak resident set after the call
(``VmHWM``) less the resident set before it (``VmRSS``), in bytes a row.
The peak is the process's own ``VmHWM``: ``ru_maxrss`` keeps the resident
set of the process that started it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
ROWS = 1_000_000

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads /proc/self/status")

# runs after the caller's source, which defines ``inputs(n)`` and ``call(x)``;
# ``call`` may call ``mark()``
_MEASURE = f"""

def status_kb(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

marks = []

def mark():
    marks.append(status_kb("VmHWM"))

call(inputs(1_000))  # the first call's one-off costs
x = inputs({ROWS})
marks.clear()
before = status_kb("VmRSS")
call(x)
mark()
print(*((kb - before) * 1024 / {ROWS} for kb in marks))
"""


def growths_per_row(source, *argv):
    """Bytes a row by which ``call(inputs(n))`` has grown the resident set
    at ``ROWS`` rows, after one warm-up call on 1,000 rows: at each
    ``mark()`` the call makes, then at its end. ``source`` defines both
    functions and reads ``argv`` as ``sys.argv[1:]``. The inputs are made
    before the resident set is read; making them must not peak above the
    call's own peak, or the growth reads high."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", source + _MEASURE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [float(g) for g in proc.stdout.split()]


def growth_per_row(source, *argv):
    """Bytes a row by which ``call(inputs(n))`` grows the resident set (see
    :func:`growths_per_row`)."""
    return growths_per_row(source, *argv)[-1]
