"""Storage-seam overhead: what fault injectability costs a durable write.

Every durable write the result cache makes goes through the
:mod:`repro.faults.storage` seams (``shim_write``, ``shim_fsync``,
``shim_replace``) so a seeded fault plan can reach it. With no injector
installed each seam is one ``is None`` test in front of the real
syscall, and this benchmark holds that to at most 2% of the raw
``os.write`` + ``os.fsync`` pair.
"""

import os
import statistics
import time

from repro.faults.storage import (
    active_storage_injector,
    shim_fsync,
    shim_write,
)

from conftest import once

#: Interleaved shim/raw write+fsync pairs in the comparison.
SEAM_OPS = 1500
#: The fault seams may cost at most 2% when no injector is installed.
SEAM_OVERHEAD_LIMIT = 1.02
#: Absolute per-op floor: the seam is a constant couple of Python
#: frames (~1µs); on a disk so fast that fsync stops dominating, that
#: constant is still fine even though a pure ratio would flag it.
SEAM_EPSILON_S = 2e-6


def test_disabled_seam_overhead(benchmark, tmp_path):
    """With no injector installed, the fault seams must be free.

    Compares ``shim_write`` + ``shim_fsync`` against ``os.write`` +
    ``os.fsync``, each on its own open fd. The two sides are
    interleaved *per operation* and compared by median, so disk latency
    drift (which dwarfs the seam) lands on both sides equally instead
    of deciding the verdict.
    """
    assert active_storage_injector() is None
    data = b'{"cell": "fmm/thrifty", "energy_joules": 0.0487}\n'
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    shim_fd = os.open(str(tmp_path / "shim.bin"), flags, 0o644)
    raw_fd = os.open(str(tmp_path / "raw.bin"), flags, 0o644)

    def compare():
        shim_times, raw_times = [], []
        for _ in range(SEAM_OPS):
            start = time.perf_counter()
            os.write(raw_fd, data)
            os.fsync(raw_fd)
            raw_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            shim_write(shim_fd, data)
            shim_fsync(shim_fd)
            shim_times.append(time.perf_counter() - start)
        return statistics.median(shim_times), statistics.median(raw_times)

    try:
        shim_med, raw_med = once(benchmark, compare)
    finally:
        os.close(shim_fd)
        os.close(raw_fd)
    benchmark.extra_info["shim_op_us"] = round(shim_med * 1e6, 2)
    benchmark.extra_info["raw_op_us"] = round(raw_med * 1e6, 2)
    benchmark.extra_info["overhead_pct"] = round(
        (shim_med / raw_med - 1.0) * 100, 2
    )
    assert shim_med <= raw_med * SEAM_OVERHEAD_LIMIT + SEAM_EPSILON_S, (
        "disabled fault seams cost {:.2%} over the raw syscalls "
        "(budget 2%)".format(shim_med / raw_med - 1.0)
    )
