"""Repository benchmark: regenerate paper artifacts, time them, check them.

Run from the repository root::

    python3 perfbench/run.py --workload fig2-cold --seed 1 --seconds 10 --trace 0

The workloads (``fig2-cold``, ``table6-defense``) are described in
``perfbench/workloads.py``.  One run imports the program from ``src/``,
sets the workload up at least ``MIN_SETUPS`` times and for at least
``SETUP_SECONDS``, then regenerates the workload's artifact back to back,
one closed-loop client, until ``--seconds`` have passed and at least
``MIN_RUNS`` regenerations are done, checking every one.

Host-speed correction: on shared virtual machines the speed of the
whole host can drift by up to 1.8x within seconds, unseen by the guest
as steal time.  So a fixed pure-Python loop, the *probe*, is timed
between every two timed steps, and each step's wall time is rescaled to
a host on which the probe takes ``PROBE_NOMINAL_S``, by the mean of the
probes on either side of the step.  On a 2-vCPU host, ten 30-second
Figure 2 runs spread (interquartile range over median) 0.18 by raw
median and 0.05 rescaled; five Table VI runs 0.15 and 0.04.

End-to-end metrics (``--trace 0``):

- ``artifact_s``: median rescaled time of one regeneration (a tail
  percentile is not reported: host interference, not the program, sets
  the tail);
- ``setup_s``: median rescaled time of one set-up;
- ``peak_rss_mb``: the process's peak resident memory.

The raw and rescaled regeneration medians also go to stderr.

``--trace 1`` runs the same loop with the layer wrappers of
``perfbench/layers.py`` installed and a program ``Observer`` passed in,
and reports per-layer self times (raw wall seconds) and counts per
regeneration.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything the program writes goes to ``.perfbench_work/`` in the
checkout, which is removed on exit.  Without ``src/repro`` the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: set-ups repeat until both are reached; short ones repeat more for a steady median
MIN_SETUPS = 3
SETUP_SECONDS = 4.0
MIN_RUNS = 3
PROBE_ITERATIONS = 150_000
#: probe time of a quiet 2 GHz Xeon vCPU; rescaled times are seconds there
PROBE_NOMINAL_S = 0.011

#: program Observer counter behind each per-layer count metric
OBS_COUNTERS = {
    "attempts": "attempts",
    "words_emulated": "algebra.words_emulated",
    "vector_lanes": "vector.lanes",
    "table_rows_decoded": "vector.table_rows_decoded",
}
#: LayerClock counter behind each per-layer count metric
CLOCK_COUNTERS = (
    "fastpath_attempts", "simulated_attempts", "full_boots",
    "baseline_replays", "cycles", "decode_calls",
)


def _probe() -> float:
    """Probe time: five chunks, median chunk, so one interrupt cannot skew it."""
    chunks = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS // 5):
            acc += i * i % 7
        chunks.append(time.perf_counter() - start)
    return 5 * statistics.median(chunks)


class Stopwatch:
    """Times calls in wall seconds, both raw and rescaled by the probe."""

    def __init__(self):
        self._last_probe = _probe()

    def time(self, fn):
        """``(result, raw seconds, rescaled seconds)`` of ``fn()``."""
        gc.collect()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        probe = _probe()
        scale = PROBE_NOMINAL_S / ((self._last_probe + probe) / 2)
        self._last_probe = probe
        return result, raw, raw * scale


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload, seed: int, seconds: float, clock) -> dict:
    """Set up, regenerate for ``seconds`` and compute the metric values.

    ``clock`` is a :class:`layers.LayerClock` whose wrappers are installed
    (the traced run) or a :class:`layers.NullClock`.
    """
    import layers
    from repro.obs import Observer

    trace = isinstance(clock, layers.LayerClock)
    watch = Stopwatch()
    setup_times = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
        state, _, rescaled = watch.time(lambda: workload.setup(seed, clock))
        setup_times.append(rescaled)
    if trace:
        build_s = clock.self_s["build"] / len(setup_times)
        clock.reset()

    raw_times, times, failed, runs = [], [], 0, 0
    counters: Counter = Counter()
    deadline = time.perf_counter() + seconds
    while runs < MIN_RUNS or time.perf_counter() < deadline:
        runs += 1
        obs = Observer() if trace else None
        outputs, raw, rescaled = [], 0.0, 0.0
        try:
            for step in workload.steps(state, obs):
                output, step_raw, step_rescaled = watch.time(step)
                outputs.append(output)
                raw += step_raw
                rescaled += step_rescaled
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        raw_times.append(raw)
        times.append(rescaled)
        with clock.excluded():
            problem = workload.check(state, outputs)
        if problem is not None:
            print(f"perfbench: regeneration {runs}: {problem}", file=sys.stderr)
            failed += 1
        if obs is not None:
            counters.update(obs.counters)
    if not times:
        raise RuntimeError("no regeneration completed")
    print(f"perfbench: {len(times)} regenerations, median {statistics.median(raw_times):.4f} s "
          f"raw, {statistics.median(times):.4f} s rescaled", file=sys.stderr)

    if not trace:
        values = {
            "artifact_s": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        n = len(raw_times)
        values = {f"{layer}_s": clock.self_s[layer] / n for layer in layers.LAYERS}
        values["build_s"] = build_s
        values["other_s"] = (sum(raw_times) - sum(clock.self_s.values())) / n
        values["artifact_traced_s"] = statistics.median(raw_times)
        for name, counter in OBS_COUNTERS.items():
            values[name] = counters[counter] / n
        for name in CLOCK_COUNTERS:
            values[name] = clock.counts[name] / n
        hw_attempts = values["fastpath_attempts"] + values["simulated_attempts"]
        values["fastpath_share"] = values["fastpath_attempts"] / hw_attempts if hw_attempts else 0.0
    return {"runs": runs, "failed": failed, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    os.environ["REPRO_CACHE_DIR"] = str(work / "repro-cache")
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = _declared(bool(args.trace))
    workload = workloads.WORKLOADS[args.workload]()
    try:
        if args.trace:
            with layers.attributed(layers.LayerClock()) as clock:
                result = measure(workload, args.seed, args.seconds, clock)
        else:
            result = measure(workload, args.seed, args.seconds, layers.NullClock())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    values = result["values"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["runs"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
