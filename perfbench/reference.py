"""A fixed computation that measures how fast the machine is running right now.

On a shared host the same op can take a third longer for seconds at a
time while a co-tenant competes for the core. The benchmark therefore times
this computation beside the ops and reports op times as multiples of it
(unit ``ref``) alongside the raw wall times. It imports no sienna code, so a
change to sienna cannot move it. Like the ops, it is interpreter work around
small numpy calls, in two halves: float arithmetic of the kind the
fingerprint pipeline does, and the integer table lookups and XOR reductions
of the RS codec. Slow periods do not slow both kinds equally, and the
workloads mix them, so the reference holds both.
"""

from __future__ import annotations

import time

import numpy as np

_WORDS = np.arange(256, dtype=np.float64) % 17 - 8
_MATRIX = np.eye(8) + 0.1
_GATHER = np.arange(255) % 200
_EXP = np.arange(510, dtype=np.int64) % 255 + 1
_LOG = np.arange(256, dtype=np.int64) % 255
_TABLE = (np.arange(54 * 255, dtype=np.int64) * 7 % 256).reshape(54, 255)
_SYMBOLS = np.arange(255, dtype=np.int64) * 13 % 256


def _float_work() -> float:
    acc = 0.0
    for i in range(12):
        x = _WORDS * 3.0 + i
        acc += np.sort(x)[3] + np.where(x > 0, x, 0.0).std()
        acc += float((x[:64].reshape(8, 8) @ _MATRIX).sum())
        acc += int(((x.astype(np.int64) & 0xFF)[_GATHER]).sum())
        for v in range(40):
            acc += v * 0.5
    return acc


def _table_work() -> int:
    acc = 0
    for _ in range(2):
        prod = _EXP[_LOG[_TABLE] + _LOG[_SYMBOLS][None, :]]
        prod = np.where((_TABLE == 0) | (_SYMBOLS == 0)[None, :], 0, prod)
        acc += int(np.bitwise_xor.reduce(prod, axis=1).sum())
        reg = np.zeros(54, dtype=np.int64)
        for sym in _SYMBOLS[:40]:
            feedback = int(sym) ^ int(reg[0])
            reg[:-1] = reg[1:]
            reg[-1] = 0
            if feedback:
                reg ^= _EXP[_LOG[feedback] + _LOG[_SYMBOLS[:54]]]
        acc += int(reg.sum())
    return acc


def reference_work() -> float:
    """About a millisecond: half float work, half table lookups."""
    return _float_work() + _table_work()


def time_reference(repeats: int = 3) -> int:
    """Median wall nanoseconds of ``repeats`` back-to-back reference runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        reference_work()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[len(times) // 2]
