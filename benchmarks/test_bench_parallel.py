"""Parallel-executor benchmarks: serial/parallel equality and speedup.

The equality checks are the acceptance criterion for the executor: a
Figure 2 panel sweep and a Table VI defense scan must tally identically
for any worker count. The speedup benchmark times a 4-worker Fig. 2
panel sweep against the serial run and requires >= 2x on a machine with
at least 4 cores (it skips on smaller machines, where the comparison is
meaningless).

``REPRO_BENCH_PARALLEL_KS`` overrides the flip-count slice used for the
speedup workload (comma-separated k values; the default mid-range slice
is ~24k masks per branch — large enough to dwarf process start-up).
"""

import os
import time

import pytest

from repro.exec import ExecOptions
from repro.firmware.loops import build_guard_firmware
from repro.glitchsim.campaign import run_branch_campaign
from repro.hw.scan import run_defense_scan

WORKERS = 4


def _speedup_ks() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_PARALLEL_KS", "5,6,7")
    return tuple(int(k) for k in raw.split(","))


def test_campaign_parallel_equality():
    serial = run_branch_campaign("and", k_values=(1, 2), execution=ExecOptions(workers=1))
    parallel = run_branch_campaign("and", k_values=(1, 2),
                                   execution=ExecOptions(workers=WORKERS))
    assert serial == parallel
    assert repr(serial) == repr(parallel)


def test_defense_scan_parallel_equality(stride):
    image = build_guard_firmware("not_a", "single")
    effective = max(stride, 8)
    serial = run_defense_scan(image, "single", stride=effective,
                              execution=ExecOptions(workers=1))
    parallel = run_defense_scan(image, "single", stride=effective,
                                execution=ExecOptions(workers=WORKERS))
    assert serial == parallel
    assert repr(serial) == repr(parallel)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"speedup measurement needs >= {WORKERS} cores",
)
def test_fig2_panel_parallel_speedup():
    ks = _speedup_ks()
    start = time.perf_counter()
    serial = run_branch_campaign("and", k_values=ks, execution=ExecOptions(workers=1))
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_branch_campaign("and", k_values=ks, execution=ExecOptions(workers=WORKERS))
    parallel_seconds = time.perf_counter() - start

    assert serial == parallel
    speedup = serial_seconds / parallel_seconds
    print(
        f"\nfig2 AND panel (k={ks}): serial {serial_seconds:.2f}s, "
        f"{WORKERS} workers {parallel_seconds:.2f}s -> {speedup:.2f}x"
    )
    assert speedup >= 2.0, f"expected >= 2x speedup with {WORKERS} workers, got {speedup:.2f}x"
