"""Reference work that measures how fast the host runs at the moment.

The CPUs of this kind of host are shared with other tenants, and the same
pure-Python loop takes from 1x to 2x its usual CPU time depending on what
the neighbours do, in spells that last seconds to minutes.  CPU time leaves
out the time the scheduler gives to others, but not that slowdown.  So the
benchmark times a fixed piece of reference work between its items and
reports each item's CPU time scaled to a nominal reference speed:

    normalised ms = item CPU ms * NOMINAL_NS / (reference CPU ns near the item)

The reference uses only the standard library, never ``axc``, so a change to
the program moves the item times and not the reference.  There are two:

* ``kernel``: in-process, a product of two dense three-variable polynomials
  with ``Fraction`` coefficients held in dicts, the kind of work the
  ``fields`` and ``identities`` items do;
* ``child``: a fresh interpreter that runs the kernel once, the kind of
  work a ``cli-offcenter`` item or a set-up process does (interpreter start,
  imports, then Python arithmetic).
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time

KERNEL = '''
from fractions import Fraction

def kernel():
    p = {(i, j, k): Fraction(i + 1, j + k + 2)
         for i in range(5) for j in range(5) for k in range(5) if i + j + k <= 4}
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in p.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, 0) + c1 * c2
    return out
'''

# Typical CPU times of the two references on a 2-vCPU 2.1 GHz Xeon VM.  They
# only set the scale of the reported figures; any fixed value would do.
NOMINAL_NS = {"kernel": 5_000_000, "child": 55_000_000}

_namespace: dict = {}
exec(KERNEL, _namespace)
kernel = _namespace["kernel"]


def cpu_ns() -> int:
    """CPU time (user + system) of this process and of every child it has
    waited for, in ns."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((kids.ru_utime + kids.ru_stime) * 1e9)


def kernel_ns() -> int:
    start = cpu_ns()
    kernel()
    return cpu_ns() - start


def child_ns() -> int:
    start = cpu_ns()
    subprocess.run([sys.executable, "-c", KERNEL + "kernel()"], check=True,
                   stdout=subprocess.DEVNULL)
    return cpu_ns() - start


SAMPLERS = {"kernel": kernel_ns, "child": child_ns}
