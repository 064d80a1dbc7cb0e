"""Build and load the compiled kernels of ``_kernels.c``: the binary64
twins of every scheme's Python kernel, one entry that takes the scheme's
number, the midpoint scheme's integer kernel, which steps at any p up to
113 bits, and the residual keys that ``analysis.residual_summary`` ranks a
binary64 record's step pairs by.

The library is built on first use, never at import: ``gcc`` compiles the
package's own C source into ``${XDG_CACHE_HOME:-~/.cache}/roundtrap/``,
under a name keyed by a digest of the source, the compiler, its flags and
the machine.  The build writes a temporary file and publishes it with
``os.replace``, so processes that build at the same time (a sweep's pool
workers) cannot load a half-written library.  ``load`` returns None when
anything fails -- no compiler, a compile error, an unwritable cache, no
``unsigned __int128``, a library that will not load -- and the caller then
keeps the Python kernels.  ``schemes`` checks the kernels against the Python
kernels, and the keys against the exact ones, before it uses them.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from array import array
from itertools import repeat
from operator import lshift, or_
from typing import Optional

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
CC = "gcc"
# -ffp-contract=off: no fused multiply-add; no -ffast-math: no reassociation
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")

_LOW = (1 << 63) - 1  # a 113-bit significand crosses as m >> 63 and m & _LOW
_MAX_K = (1 << 63) - 1  # the largest index of a plan; the emulator steps beyond it


def _build() -> str:
    """The path of the built library, building it if it is not cached."""
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    # os.uname().machine is platform.machine() without the platform module's memory
    key = zlib.crc32("\0".join((CC, *CFLAGS, os.uname().machine)).encode(), zlib.crc32(source))
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(cache, "roundtrap", f"kernels-{key:08x}.so")
    if not os.path.exists(path):
        import subprocess

        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            subprocess.run([CC, *CFLAGS, "-o", tmp, SOURCE], check=True, capture_output=True,
                           timeout=300)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return path


def load() -> Optional["Kernels"]:
    """The compiled kernels, or None when they cannot be built or loaded."""
    try:
        return Kernels(_build())
    except Exception:  # any failure leaves the Python kernels in charge
        return None


class Kernels:
    """The loaded library.  ``binary64`` and ``midpoint_int`` run a
    channel's kernel once, through its sampling plan: the ascending step
    indices ``plan``, an ``array('q')`` of indices up to ``_MAX_K``.  Each
    steps from the start state to each index in the kernel's own loop and
    appends the state there to ``out``, as floats x, y to an ``array('d')``
    or as the raw pairs mx, ex, my, ey to a list.  It returns (samples done,
    steps done, the last in-range state); it stops early only when a step
    leaves the state window."""

    SCHEMES = {"euler": 0, "midpoint": 1, "rk3": 2}  # rt_binary64's scheme numbers

    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        i64, ptr = ctypes.c_int64, ctypes.c_void_p  # buffers pass as addresses, the fastest way
        self._b64 = lib.rt_binary64
        self._b64.argtypes, self._b64.restype = (ctypes.c_int, ptr, ptr, ctypes.c_double, ptr, i64, ptr, ptr), i64
        self._int = lib.rt_midpoint_int
        self._int.argtypes, self._int.restype = (ctypes.c_int, ptr, ptr, ptr, i64, ptr, ptr), i64
        self._keys = lib.rt_residual_keys
        self._keys.argtypes, self._keys.restype = (ptr, i64, ptr, ptr), i64

    def binary64(self, name: str, xy, c, C: float, plan, out):
        """The binary64 kernel of the scheme called name, from the float
        state xy with float constants c; it writes into room made at the end
        of out."""
        st, consts, steps = (ctypes.c_double * 2)(*xy), (ctypes.c_double * len(c))(*c), ctypes.c_int64()
        start = len(out)
        out.frombytes(bytes(16 * len(plan)))
        done = self._b64(self.SCHEMES[name], ctypes.addressof(st), ctypes.addressof(consts), C,
                         plan.buffer_info()[0], len(plan), out.buffer_info()[0] + 8 * start, ctypes.addressof(steps))
        del out[start + 2 * done:]
        return done, steps.value, (st[0], st[1])

    def midpoint_int(self, p: int, st, c, plan, out):
        """The integer midpoint kernel at p bits from the raw state st with
        raw constants c, each of at most p bits."""
        raws = (*st, *c)
        words = array("q", (w for m, e in zip(raws[::2], raws[1::2]) for w in (m >> 63, m & _LOW, e)))
        got, steps = array("q", bytes(48 * len(plan))), ctypes.c_int64()
        address = words.buffer_info()[0]
        done = self._int(p, address, address + 48, plan.buffer_info()[0], len(plan), got.buffer_info()[0],
                         ctypes.addressof(steps))
        got, raw = got[:6 * done], [0] * (4 * done)
        raw[::2] = map(or_, map(lshift, got[::3], repeat(63)), got[1::3])  # m = hi << 63 | lo
        raw[1::2] = got[2::3]
        out += raw
        w = words  # the state's words now hold the last in-range state
        return done, steps.value, (w[0] << 63 | w[1], w[2], w[3] << 63 | w[4], w[5])

    def residual_keys(self, xy, m, keys) -> int:
        """The residual keys of the n adjacent states in the array('d') xy
        (x then y, as ``binary64`` writes them) into the first n - 1 places
        of the array('d') keys, one per pair: |M (x1, y1, x0, y0)|**2
        correctly rounded, or NaN where the kernel cannot prove the
        rounding.  m holds hi = float(e) and lo = float(e - hi) of each
        entry e of M's rows.  Returns the number of NaN keys written."""
        n = len(xy) // 2
        if n < 2:
            return 0
        if xy.typecode != "d" or keys.typecode != "d" or len(keys) < n - 1 or len(m) != 16:
            raise ValueError("the states and keys must be arrays of doubles, with room for n - 1 keys, "
                             "and m 16 doubles")
        consts = (ctypes.c_double * 16)(*m)
        return self._keys(xy.buffer_info()[0], n, ctypes.addressof(consts), keys.buffer_info()[0])
