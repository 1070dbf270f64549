"""Benchmark of the guardzone library, CLI and Monte Carlo oracle.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

It imports guardzone from ``src/``, runs whole passes of the workload's
fixed operation list for at least ``--seconds`` seconds (and at least two
passes), checks every output against independent references, and prints
one JSON object as its last line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from a traced run
and writes the spans to ``.bench_build/perfbench/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
NPROC = len(os.sched_getaffinity(0))
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

# numpy/BLAS threads: pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

END_TO_END = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_RUNS = 5
# This box's speed drifts by up to 2x over seconds (other tenants share its
# cores), which no bound can absorb. Times are therefore scaled to a
# reference speed: by CAL_NOMINAL_S over the calibration loop's median time
# measured before, during and after the operation, never while program
# code runs (see Sampler). The nominal times are the loops' medians over
# 120 s on the reference box under its usual load, so that both kinds of
# code read at the same, usual speed (see README.md).
CAL_NOMINAL_S = {"python": 0.00227, "numpy": 0.0978}
CAL_SAMPLES = 3   # loop runs just before and just after each operation
SAMPLE_PERIOD_S = {"python": 0.05, "numpy": 1.0}  # loop runs during it
SETUP_CODE = """\
import json
from importlib import resources
import guardzone.cli
from guardzone import ModelParams
for f in sorted(resources.files("guardzone").joinpath("scenarios").iterdir()):
    d = json.loads(f.read_text())
    if "lambda" in d:
        ModelParams.from_dict(d)
import time
done = time.perf_counter()
from run import speed_scale
print(done, speed_scale("python"))
"""


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def calibration_loop(kind: str) -> float:
    """Seconds a fixed piece of work takes now: the box's speed for ``kind``.

    ``"python"`` is ~2 ms of interpreter work: float arithmetic, QUADPACK
    calling back into Python, small numpy calls, dict lookups with math
    calls. ``"numpy"`` is ~90 ms of the bulk array work of a Monte Carlo
    chunk, at 1.5M points in 1024 trials: Poisson counts, float32 uniforms,
    a power, exponentials and bincounts over arrays of 6-12 MB, which
    spill out of cache as the simulator's arrays do. Neither calls
    guardzone.
    """
    import numpy as np
    from scipy import integrate
    t0 = time.perf_counter()
    if kind == "numpy":
        rng = np.random.Generator(np.random.Philox(0))
        counts = rng.poisson(1_500_000 / 1024, size=1024)
        trial_of = np.repeat(np.arange(1024), counts)
        u = 1.0 - rng.random(int(counts.sum()), dtype=np.float32)
        contrib = u.astype(np.float64) ** -1.5 * rng.exponential(size=len(u))
        np.bincount(trial_of, weights=contrib, minlength=1024)
        for threshold in (1e-3, 1e-2, 0.05, 0.2):
            np.bincount(trial_of[u < threshold], minlength=1024)
        return time.perf_counter() - t0
    acc = 0.0
    for i in range(1, 10_001):
        acc += 1.0 / i
    integrate.quad(lambda v: 1.0 / (1.0 + v**1.5), 0.0, 2.0,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    x = np.linspace(0.1, 1.0, 64)
    for _ in range(100):
        x = np.sqrt(x * 1.0001 + 1e-9)
    seen = {}
    for i in range(2_000):
        seen[i % 97] = seen.get(i % 97, 0.0) + math.exp(-i * 1e-6)
    return time.perf_counter() - t0


def loop_times(kind: str) -> list[float]:
    return [calibration_loop(kind) for _ in range(CAL_SAMPLES)]


def speed_scale(kind: str) -> float:
    """The box's speed now for code like the ``kind`` calibration loop,
    relative to the reference box: nominal over median loop time."""
    return CAL_NOMINAL_S[kind] / statistics.median(loop_times(kind))


class Sampler:
    """Runs the calibration loop of one kind every SAMPLE_PERIOD_S[kind]
    seconds from SIGALRM while an operation runs, so that the speed of a
    long operation is tracked from start to end.

    The handler runs between bytecodes of the main thread, so the
    operation's own code is paused meanwhile. It skips the loop while
    another thread of this process or a descendant process is runnable:
    the loop never competes with program code, such as a pool's workers.
    ``inside_s`` sums the handler's time, which is not the operation's.
    An inactive Sampler takes no samples, so that traced spans hold no
    loop time.
    """

    def __init__(self, kind: str, active: bool = True):
        self.kind = kind
        self.active = active
        self.durations: list[float] = []
        self.inside_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if not _others_runnable():
            self.durations.append(calibration_loop(self.kind))
        self.inside_s += time.perf_counter() - t0

    def __enter__(self):
        if self.active:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            period = SAMPLE_PERIOD_S[self.kind]
            signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)


def setup_seconds() -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh interpreter importing
    guardzone.cli and loading every shipped preset.

    Each interpreter reports the monotonic time at which its set-up ended,
    then its own ``python`` speed_scale(), which scales its set-up time.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                               cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
                               capture_output=True, text=True)
        done, scale = map(float, child.stdout.split())
        raw.append(done - t0)
        scaled.append(raw[-1] * scale)
    return statistics.median(scaled), statistics.median(raw)


def _stat_fields(path) -> list[str] | None:
    """Fields of a /proc stat file after the command name; None once the
    task has ended."""
    try:
        return Path(path).read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _live_descendants():
    """Stat fields of each live descendant process of this one."""
    todo = [os.getpid()]
    while todo:
        pid = todo.pop()
        for task in Path(f"/proc/{pid}/task").glob("*/children"):
            try:
                kids = task.read_text().split()
            except OSError:  # the task has ended
                continue
            for kid in kids:
                fields = _stat_fields(f"/proc/{kid}/stat")
                if fields is not None:
                    yield fields
                    todo.append(int(kid))


def _live_descendants_cpu() -> float:
    """User + system CPU of the live descendants, each with what it has
    reaped itself: utime, stime, cutime and cstime, the 12th to 15th stat
    fields after the command name."""
    return sum(sum(map(int, f[11:15])) for f in _live_descendants()) / CLOCK_TICKS


def _others_runnable() -> bool:
    """Whether another thread of this process, or a descendant process, is
    running or waiting for a CPU now (state R)."""
    me = str(threading.get_native_id())
    for stat in Path("/proc/self/task").glob("*/stat"):
        if stat.parent.name != me and (_stat_fields(stat) or ["?"])[0] == "R":
            return True
    return any(f[0] == "R" for f in _live_descendants())


def cpu_seconds() -> float:
    """User + system CPU of this process and all its descendants: those
    reaped, and those still alive, such as the workers of a pool that
    lives across operations."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
            + _live_descendants_cpu())


@dataclass
class Passes:
    walls: list = field(default_factory=list)      # scaled seconds per pass
    cpus: list = field(default_factory=list)       # scaled CPU seconds per pass
    raw_walls: list = field(default_factory=list)  # unscaled seconds per pass
    outputs: list = field(default_factory=list)    # per pass, one per op


def run_passes(ops, seconds: float, min_passes: int, tracer=None) -> Passes:
    """Whole passes until ``seconds`` have elapsed and ``min_passes`` ran.

    Each operation's wall and CPU time, less the Sampler's, is multiplied
    by its kind's nominal loop time over the median loop time measured
    just before, during (untraced passes only) and just after it. The loop
    times measured after one operation serve as those before the next.
    """
    res = Passes()
    t_start = time.perf_counter()
    before = {kind: loop_times(kind) for kind in {op.kind for op in ops}}
    while len(res.walls) < min_passes or time.perf_counter() - t_start < seconds:
        wall = cpu = raw = 0.0
        outs = []
        if tracer is not None:
            tracer.run_id += 1
        for op in ops:
            sampler = Sampler(op.kind, active=tracer is None)
            c0, t0 = cpu_seconds(), time.perf_counter()
            with sampler:
                if tracer is None:
                    outs.append(op.call())
                else:
                    with tracer.span(f"op:{op.name}"):
                        outs.append(op.call())
            dt = time.perf_counter() - t0 - sampler.inside_s
            dc = cpu_seconds() - c0 - sampler.inside_s
            after = {kind: loop_times(kind) for kind in before}
            took = before[op.kind] + sampler.durations + after[op.kind]
            scale = CAL_NOMINAL_S[op.kind] / statistics.median(took)
            wall, cpu, raw = wall + dt * scale, cpu + dc * scale, raw + dt
            before = after
        res.walls.append(wall)
        res.cpus.append(cpu)
        res.raw_walls.append(raw)
        res.outputs.append(outs)
    return res


def judge(ops, outputs) -> tuple[list[str], int]:
    """Check the first pass and require every other pass to repeat it
    byte for byte. Returns (problems, failing ops per pass)."""
    import checks
    first = {op.name: repr(out) for op, out in zip(ops, outputs[0])}
    problems, failing = [], 0
    for i, outs in enumerate(outputs[1:], start=1):
        again = {op.name: repr(out) for op, out in zip(ops, outs)}
        problems += checks.same_bytes(first, again, f"pass {i}")
    for op, out in zip(ops, outputs[0]):
        found = op.check(out)
        if found and op.fault:
            failing += 1
            print(f"perfbench: {op.name} failed (known fault: {op.fault}): "
                  f"{found[0]}", file=sys.stderr)
        elif found:
            problems += [f"{op.name}: {p}" for p in found]
    return problems, failing


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "guardzone" / "__init__.py").is_file():
        fail(f"no guardzone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import guardzone
    if Path(guardzone.__file__).resolve().parent != SRC / "guardzone":
        fail(f"imported guardzone from {guardzone.__file__}, not {SRC}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be nonnegative and --seconds positive")
    WORK.mkdir(parents=True, exist_ok=True)

    setup = setup_seconds() if args.trace == 0 else None
    ops = workloads.build(args.workload, args.seed, WORK)

    if args.trace == 0:
        runs = run_passes(ops, args.seconds, 2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, failing = judge(ops, runs.outputs)
        values = {"setup_s": setup[0], "pass_s": statistics.median(runs.walls),
                  "cpu_s": statistics.median(runs.cpus), "peak_rss_mb": peak_rss_mb}
        metrics = {k: metric(values[k], unit) for k, unit in END_TO_END.items()}
        print(f"perfbench: unscaled setup_s {setup[1]:.4f}, pass_s "
              f"{statistics.median(runs.raw_walls):.4f} over {len(runs.walls)} "
              "passes", file=sys.stderr)
        outputs = runs.outputs
    else:
        import layers
        half = args.seconds / 2.0
        plain = run_passes(ops, half, 1)
        traced, metrics = layers.traced_passes(ops, half, args, WORK, run_passes)
        outputs = plain.outputs + traced.outputs
        problems, failing = judge(ops, outputs)
        overhead = statistics.median(traced.walls) - statistics.median(plain.walls)
        metrics["trace.overhead_s"] = metric(overhead, "s")

    for p in problems:
        print(f"perfbench: INCORRECT {p}", file=sys.stderr)
    attempted = len(outputs) * len(ops)
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(outputs) * failing, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
