"""Seeded benchmark for courantlab.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Drives the CLI in-process through `courantlab.cli.main(argv)`: a closed
loop with one client, one op at a time, each op with fresh generated
inputs (see workloads.py).  Every op's output is checked against its known
answer.  Every timed interval is rescaled to a reference CPU speed
measured by a probe around and during it (see Speedometer), because the
shared machine's speed drifts.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (layers.py).
The lines before it print every metric by name with its unit, the
environment, and every failed op with its expected and actual answer.

Run from the root of a source checkout; the package is imported from src/.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Seconds one cycle of each mix takes on the reference machine (2 cores,
# Python 3.11).  A run executes round(--seconds / cycle) whole cycles, so
# every run of every version does the same work and the latency
# percentiles of two versions cover the same ops.  A version so slow that
# the run passes OVERRUN x --seconds stops after the current cycle, which
# keeps a run's wall time bounded.
CYCLE_SECONDS = {"certify": 8.5, "pipeline": 8.0, "simulate": 5.0}
OVERRUN = 1.4
SETUP_REPEATS = 9
TAIL_BEYOND = 10          # op_tail_ms: highest percentile with >= 10 samples beyond it
CHILD_TIMEOUT_S = 150

# Speed probe.  On a shared 2-core VM the CPU's speed drifts by +-25 %
# over seconds (other tenants), which no amount of ops per run averages
# away.  So every timed interval is rescaled to a reference speed: a fixed
# pure-Python loop is timed before, during (every PROBE_PERIOD_S, from
# SIGALRM) and after the interval, and the interval's time is multiplied
# by PROBE_REF_S / median(probe).  PROBE_REF_S is the probe's time on the
# reference machine (2-core Xeon VM, Python 3.11) in a quiet moment, so
# reported times read as milliseconds on that machine.  The probe is the
# benchmark's own code: a change to courantlab cannot move it.  A short
# probe taken often (~3.5 % of the time) estimates the speed better than a
# long one taken rarely; see README.md.
PROBE_LOOPS = 2_500
PROBE_REF_S = 0.000175
PROBE_PERIOD_S = 0.005
PROBE_EDGE = 3            # probes before and after each interval
# Probe times go into one array allocated up front: a list grown from the
# signal handler would take heap blocks at moments that vary from run to
# run, and so move the program's peak RSS by a few MB.  80 s of samples.
PROBE_CAPACITY = 16_384


def probe() -> float:
    """Seconds the fixed probe loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Speedometer:
    """Samples the probe around and during one timed interval.

    `spent` is the time the in-interval probes took, which the caller
    subtracts from the interval; `scale()` turns the rest into seconds at
    the reference speed.  `sample=False` probes only before and after, so
    that a traced pass sees no interruptions inside its spans.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples = array("d", bytes(8 * PROBE_CAPACITY))
        self.count = 0
        self.spent = 0.0
        self._previous = None

    def _record(self) -> None:
        seconds = probe()
        if self.count < PROBE_CAPACITY:
            self.samples[self.count] = seconds
            self.count += 1

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._record()
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.count = 0
        for _ in range(PROBE_EDGE):
            self._record()
        self.spent = 0.0
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(PROBE_EDGE):
            self._record()

    def scale(self) -> float:
        return PROBE_REF_S / statistics.median(self.samples[:self.count])


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process, and so the child interpreters it starts, to one
    CPU, so that the probe samples the CPU the timed code runs on.
    Returns (nproc before pinning, the CPU pinned to)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus), cpus[-1]


def _environment(nproc: int, cpu: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median seconds from a fresh interpreter to `import courantlab.cli`
    done: (at the reference speed, as read on the clock).

    No subprocess timeout here: with one, the wait polls in sleeps of up to
    50 ms, which would quantize the measurement.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import courantlab.cli"]
    subprocess.run(command, env=env, check=True, stdin=subprocess.DEVNULL)   # bytecode cache warm
    meter = Speedometer(sample=False)
    scaled, raw = [], []
    for _ in range(repeats):
        meter.start()
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, stdin=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        meter.stop()
        raw.append(elapsed)
        scaled.append(elapsed * meter.scale())
    return statistics.median(scaled), statistics.median(raw)


class Loop:
    """Closed loop over generated ops: runs, times and checks each one."""

    def __init__(self, cli, workdir: Path, sample: bool = True):
        self.cli = cli
        self.workdir = workdir
        self.meter = Speedometer(sample)
        self.latency: dict[str, list[float]] = {}       # at the reference speed
        self.raw_latency: dict[str, list[float]] = {}   # as read on the clock
        self.attempted = 0
        self.failures: list[dict] = []
        self.selftest_ops = 0       # ops re-checked against a corrupted answer
        self.selftest_missed: list[str] = []   # ... where the corruption went unnoticed

    def run_cycle(self, ops, cycle: int, selftest: bool) -> tuple[float, float]:
        """Run one cycle; returns the seconds spent inside cli.main, at the
        reference speed and as read on the clock."""
        from workloads import SCENE, corrupted, mismatches
        busy = raw_busy = 0.0
        outputs: dict[str, str] = {}
        for op in ops:
            path = self.workdir / f"{op.slot}.json"
            if op.scene is not None:
                path.write_bytes(op.scene)
            argv = [str(path) if arg == SCENE else arg for arg in op.argv]
            out, err = io.StringIO(), io.StringIO()
            gc.collect()   # every op starts from the same collector state
            error = None
            self.meter.start()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except Exception:
                code, error = None, traceback.format_exc(limit=3)
            finally:
                elapsed = time.perf_counter() - start
                self.meter.stop()
            elapsed -= self.meter.spent
            scaled = elapsed * self.meter.scale()
            busy += scaled
            raw_busy += elapsed
            self.attempted += 1
            self.latency.setdefault(op.slot, []).append(scaled)
            self.raw_latency.setdefault(op.slot, []).append(elapsed)
            text = out.getvalue()
            outputs[op.slot] = text
            wrong = {"exception": ("none", error)} if error else mismatches(
                op, code, text, outputs)
            if wrong:
                self.failures.append({
                    "slot": op.slot, "cycle": cycle, "argv": op.argv,
                    "expected": {k: v[0] for k, v in wrong.items()},
                    "actual": {k: v[1] for k, v in wrong.items()},
                    "reasons": {k: op.reasons.get(k, "") for k in wrong},
                    "stderr": err.getvalue()[-500:],
                })
            elif selftest:
                self.selftest_ops += 1
                if not mismatches(op, code, text, outputs, corrupted(op.expect)):
                    self.selftest_missed.append(op.slot)
        return busy, raw_busy


def _tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it; the maximum if none does."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    beyond = len(ordered) - index - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def _check_generator(workload: str, seed: int) -> list[str]:
    """Same seed: byte-identical inputs.  Other seed: other values, same sizes."""
    from workloads import fingerprint, make_cycle
    problems = []
    for cycle in (0, 1):
        first = fingerprint(make_cycle(workload, seed, cycle))
        again = fingerprint(make_cycle(workload, seed, cycle))
        other = fingerprint(make_cycle(workload, seed + 1, cycle))
        if first != again:
            problems.append(f"cycle {cycle}: the same seed generated different inputs")
        if first[1] != other[1]:
            problems.append(f"cycle {cycle}: another seed changed a slot's sizes")
        if first[0] == other[0]:
            problems.append(f"cycle {cycle}: another seed drew the same values")
    return problems


def end_to_end(cli, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    from workloads import make_cycle
    setup_s, raw_setup_s = measure_setup(SETUP_REPEATS)
    planned = max(1, round(seconds / CYCLE_SECONDS[workload]))
    loop = Loop(cli, workdir)
    busy = raw_busy = 0.0
    started = time.perf_counter()
    for cycles in range(1, planned + 1):
        scaled, raw = loop.run_cycle(make_cycle(workload, seed, cycles - 1), cycles - 1,
                                     selftest=(cycles == 1))
        busy += scaled
        raw_busy += raw
        if time.perf_counter() - started >= OVERRUN * seconds:
            break

    def latency_metrics(latency: dict[str, list[float]], busy: float) -> dict:
        every = [t for times in latency.values() for t in times]
        slot_medians = [statistics.median(times) for times in latency.values()]
        return {
            "ops_per_s": (len(every) / busy, "op/s"),
            "op_p50_ms": (statistics.median(every) * 1e3, "ms"),
            "op_tail_ms": (_tail(every)[0] * 1e3, "ms"),
            "op_geomean_ms": (math.exp(statistics.fmean(map(math.log, slot_medians))) * 1e3,
                              "ms"),
        }

    every = [t for times in loop.latency.values() for t in times]
    _, tail_pct, beyond = _tail(every)
    metrics = {
        "setup_s": (setup_s, "s"),
        **latency_metrics(loop.latency, busy),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {"setup_s": raw_setup_s, **{name: value for name, (value, _) in
                                      latency_metrics(loop.raw_latency, raw_busy).items()}}
    details = {
        "cycles": cycles, "cycles_planned": planned, "busy_s": busy, "raw_busy_s": raw_busy,
        "op_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(every)},
        "slot_p50_ms": {slot: statistics.median(t) * 1e3 for slot, t in loop.latency.items()},
        # the same metrics without the speed rescaling, for reference
        "raw_metrics": raw,
        "probe_ref_s": PROBE_REF_S,
    }
    return {"loop": loop, "metrics": metrics, "details": details}


def traced_pass(cli, workload: str, seed: int, workdir: Path):
    from layers import Tracer
    from workloads import make_cycle
    tracer = Tracer()
    loop = Loop(cli, workdir, sample=False)
    tracer.install()
    try:
        busy, _ = loop.run_cycle(make_cycle(workload, seed, 0), 0, selftest=False)
    finally:
        tracer.uninstall()
    return tracer, loop, busy


def per_layer(cli, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """One cycle untraced, the same cycle traced, and again traced in a fresh
    interpreter: the two traced runs must report identical work counts.
    Neither pass samples the probe inside an op, so spans see no
    interruptions; the overhead compares the two passes' rescaled times."""
    from workloads import make_cycle
    plain = Loop(cli, workdir, sample=False)
    plain_busy, _ = plain.run_cycle(make_cycle(workload, seed, 0), 0, selftest=True)
    tracer, loop, traced_busy = traced_pass(cli, workload, seed, workdir)
    loop.failures += plain.failures
    loop.attempted += plain.attempted
    loop.selftest_ops += plain.selftest_ops
    loop.selftest_missed += plain.selftest_missed
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1", "--counts-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    again = json.loads(child.stdout.splitlines()[-1])
    counts = tracer.counts()
    drift = {name: (value, again.get(name)) for name, value in counts.items()
             if again.get(name) != value}
    metrics = tracer.metrics()
    overhead = traced_busy / plain_busy - 1.0
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    details = {
        "untraced_busy_s": plain_busy, "traced_busy_s": traced_busy,
        "trace_overhead_frac": overhead, "count_drift": drift,
    }
    return {"loop": loop, "metrics": metrics, "details": details, "drift": drift}


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "courantlab" / "cli.py").is_file():
        sys.stderr.write(f"error: no courantlab sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    # a terminated run still removes its work directory (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc, cpu = _pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from courantlab import cli

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.counts_only:
            tracer, _, _ = traced_pass(cli, args.workload, args.seed, workdir)
            print(json.dumps(tracer.counts(), sort_keys=True))
            return 0
        generator_problems = _check_generator(args.workload, args.seed)
        if args.trace:
            result = per_layer(cli, args.workload, args.seed, args.seconds, workdir)
        else:
            result = end_to_end(cli, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    loop = result["loop"]
    correct = (not loop.failures and not loop.selftest_missed
               and not generator_problems and not result.get("drift"))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": _environment(nproc, cpu), **result["details"],
        "generator_problems": generator_problems,
        "failed_frac": {"value": len(loop.failures) / loop.attempted, "unit": "ratio"},
        # failed_frac the same ops would show against corrupted answers (must be 1)
        "checker_selftest": {
            "ops": loop.selftest_ops,
            "corrupted_failed_frac": (loop.selftest_ops - len(loop.selftest_missed))
            / max(1, loop.selftest_ops),
            "missed": loop.selftest_missed,
        },
        "failures": loop.failures,
    }, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
