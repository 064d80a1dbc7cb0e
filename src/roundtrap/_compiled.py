"""Build and load the compiled midpoint kernels of ``_kernels.c``.

The library is built on first use, never at import: ``gcc`` compiles the
package's own C source into ``${XDG_CACHE_HOME:-~/.cache}/roundtrap/``,
under a name keyed by a digest of the source, the compiler, its flags and
the machine.  The build writes a temporary file and publishes it with
``os.replace``, so processes that build at the same time (a sweep's pool
workers) cannot load a half-written library.  ``load`` returns None when
anything fails -- no compiler, a compile error, an unwritable cache, no
``_Float128``, a library that will not load -- and the caller then keeps
the Python kernels.  ``schemes`` checks the kernels against the Python
kernels before it uses them.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from fractions import Fraction
from typing import Optional

from .fpcore import _raw_to_fraction

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
CC = "gcc"
# -ffp-contract=off: no fused multiply-add; no -ffast-math: no reassociation
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")

_B128_BIAS = 16383
_B128_FRACTION = (1 << 112) - 1  # the stored significand bits
_WORD = (1 << 64) - 1
_MAX_K = (1 << 63) - 1  # a longer stretch stops early and the emulator finishes it


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


def _to_bits(m: int, e: int) -> int:
    """The binary128 bits of the raw pair (m, e): |m| < 2**113 and a value
    in binary128's normal range."""
    if not m:
        return 0
    n = abs(m).bit_length()
    sign = 1 << 127 if m < 0 else 0
    return sign | (e + n - 1 + _B128_BIAS) << 112 | (abs(m) << (113 - n)) & _B128_FRACTION


def _from_bits(lo: int, hi: int) -> Fraction:
    """The value of binary128 bits that encode zero or a normal number."""
    biased = hi >> 48 & 0x7FFF
    if not biased:
        return Fraction(0)
    m = (hi << 64 | lo) & _B128_FRACTION | 1 << 112
    return _raw_to_fraction(-m if hi >> 63 else m, biased - _B128_BIAS - 112)


class Kernels:
    """The loaded library.  Each method returns a channel's kernel: a
    function k -> (steps done, x, y) that advances the channel's state up to
    k steps, x and y being the last in-range state as Fractions.  The
    state and constant buffers are allocated once per channel."""

    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        i64, ptr = ctypes.c_int64, ctypes.c_void_p  # buffers pass as addresses, the fastest way
        self._b64 = lib.rt_midpoint_b64
        self._b64.argtypes, self._b64.restype = (ptr, ptr, i64, ctypes.c_double), i64
        self._b128 = lib.rt_midpoint_b128
        self._b128.argtypes, self._b128.restype = (ptr, ptr, i64), i64

    def midpoint_b64(self, xy, c, C: float):
        """The binary64 kernel from the float state xy with float constants c."""
        fn = self._b64
        st, consts = (ctypes.c_double * 2)(*xy), (ctypes.c_double * 4)(*c)
        st_p, c_p = ctypes.addressof(st), ctypes.addressof(consts)

        def advance(k):
            done = fn(st_p, c_p, k if k < _MAX_K else _MAX_K, C)
            return done, Fraction(*st[0].as_integer_ratio()), Fraction(*st[1].as_integer_ratio())

        advance.buffers = st, consts  # kept alive with the function
        return advance

    def midpoint_b128(self, st, c):
        """The binary128 kernel from the raw state st with raw constants c."""
        fn = self._b128
        words = []
        for m, e in zip(st[::2] + c[::2], st[1::2] + c[1::2]):
            bits = _to_bits(m, e)
            words += (bits & _WORD, bits >> 64)
        state, consts = (ctypes.c_uint64 * 4)(*words[:4]), (ctypes.c_uint64 * 8)(*words[4:])
        st_p, c_p = ctypes.addressof(state), ctypes.addressof(consts)

        def advance(k):
            done = fn(st_p, c_p, k if k < _MAX_K else _MAX_K)
            w = state[:]
            return done, _from_bits(w[0], w[1]), _from_bits(w[2], w[3])

        advance.buffers = state, consts
        return advance
