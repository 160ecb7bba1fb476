"""liegates benchmark: end-to-end metrics per workload, or a per-layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload closure_table --seed 1 --seconds 25 --trace 0

Workloads are defined in bench/workloads.py and documented in
bench/README.md.  One process issues the operations in a closed loop: each
operation starts when the previous one has returned.  Whole passes over the
workload's operation list repeat until --seconds have elapsed; outputs are
checked after the timed phase.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  End-to-end
times are scaled to a reference machine speed measured by a calibration
kernel between operations (see SpeedClock).  The library is imported from
src/ next to this directory and from nowhere else.
"""

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# one caller on a 2-core machine: BLAS stays single-threaded, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / ".work"

sys.path.insert(0, str(BENCH_DIR))
from tracer import LAYERS, Tracer, layer_metrics, setup_metrics  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

# A shared machine runs all work 1.3-1.9x slower in stretches of 5 s to
# longer than a run.  A fixed calibration kernel, which calls nothing of the
# library, runs between operations: products of 16x16 and 64x64 complex
# matrices and an interpreter loop, all in cache and allocating little,
# like the library's own work.  Its parts slow down in different degrees
# and together track the library's slowdown better than any one of them.
# After each operation it runs until it has had CAL_SHARE of the time since
# the run began, about a dozen samples a second whatever the operations'
# length.  One sample varies by +-15%, so each timing is scaled by
# CAL_NOMINAL_S over the median of the samples from CAL_WINDOW_S before it
# to CAL_WINDOW_S after it (at least the CAL_NEAREST nearest), and times
# read as at the speed at which the kernel takes CAL_NOMINAL_S.  Kernel
# time is left out of the timed phase.
CAL_SHARE = 0.05
CAL_WINDOW_S = 1.0
CAL_NEAREST = 10
CAL_NOMINAL_S = 0.004
_CAL_RNG = np.random.default_rng(0)
CAL_SMALL = (_CAL_RNG.standard_normal((16, 16)) + 1j * _CAL_RNG.standard_normal((16, 16))) / 8
CAL_MEDIUM = (_CAL_RNG.standard_normal((64, 64)) + 1j * _CAL_RNG.standard_normal((64, 64))) / 16

# Set-up repeats are spread over the whole run: the machine's speed drifts
# over 5-25 s, so repeats made back to back all see the same speed.  After
# an operation returns, one repeat runs once --seconds / SETUP_SAMPLES have
# passed since the last one, and no sooner than keeps repeats to SETUP_SHARE
# of the time; at least SETUP_REPS are made.  Their time is not counted in
# the timed phase.
SETUP_REPS = 3
SETUP_SAMPLES = 20
SETUP_SHARE = 0.25

# name -> (unit, better); BENCHMARK.json lists the same end-to-end metrics
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "accuracy_met_frac": ("ratio", "higher"),
    "gates_p50": ("count", "lower"),
    "err_max": ("norm", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Record:
    op: object
    start: float
    seconds: float
    out: object
    error: str | None
    scaled: float = math.nan      # seconds at the reference speed
    verdict: Verdict | None = None


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

def calibration_kernel() -> float:
    total = 0.0
    for m, reps in ((CAL_SMALL, 150), (CAL_MEDIUM, 15)):
        a = m
        for _ in range(reps):
            a = a @ m
            a = a / np.abs(a).max()
        total += abs(a[0, 0])
    k = 0
    for i in range(15_000):
        k += i * i % 7
    return total + k


class SpeedClock:
    """Calibration kernel samples over a run, and the scale they give."""

    def __init__(self):
        self.start = time.perf_counter()
        self.spent = 0.0
        self.mid: list[float] = []
        self.dur: list[float] = []

    def catch_up(self) -> None:
        """Run the kernel until it has had CAL_SHARE of the time so far."""
        while self.spent < CAL_SHARE * (time.perf_counter() - self.start):
            t0 = time.perf_counter()
            calibration_kernel()
            t1 = time.perf_counter()
            self.mid.append((t0 + t1) / 2)
            self.dur.append(t1 - t0)
            self.spent += t1 - t0

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference speed."""
        mid, dur = np.array(self.mid), np.array(self.dur)
        near = (mid >= start - CAL_WINDOW_S) & (mid <= start + seconds + CAL_WINDOW_S)
        if near.sum() < CAL_NEAREST:
            near = np.argsort(np.abs(mid - (start + seconds / 2)))[:CAL_NEAREST]
        return seconds * CAL_NOMINAL_S / float(np.median(dur[near]))

    def speed(self) -> float:
        """Median kernel time over the run, as a share of CAL_NOMINAL_S."""
        return float(np.median(self.dur)) / CAL_NOMINAL_S


# ---------------------------------------------------------------------------
# library loading and set-up
# ---------------------------------------------------------------------------

def import_library() -> SimpleNamespace:
    """Fresh import of the package and its layers (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "liegates" or m.startswith("liegates.")]:
        del sys.modules[name]
    pkg = importlib.import_module("liegates")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"liegates imported from {pkg.__file__}, not from {SRC}")
    mods = {layer: importlib.import_module(f"liegates.{layer}") for layer in LAYERS}
    return SimpleNamespace(pkg=pkg, **mods)


def run_setup(workload: str, seed: int, size: str, tracer: Tracer | None = None):
    """Import, build families, compute closures and generate targets.

    Returns the library, the plan, and the set-up's start and duration.
    """
    start = time.perf_counter()
    lib = import_library()
    if tracer is not None:
        tracer.install(lib)
    try:
        plan = WORKLOADS[workload](lib, np.random.default_rng(seed), size, WORKDIR)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return lib, plan, (start, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# timed phase and checks
# ---------------------------------------------------------------------------

def timed_phase(plan, seconds: float, between, tracer: Tracer | None = None):
    """Closed loop over whole passes until `seconds` have elapsed.

    `between` is called with each operation's record after it returns; the
    time it takes is left out of the `seconds` budget.
    """
    records: list[Record] = []
    passes = 0
    excluded = 0.0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start - excluded < seconds:
        for op in plan.pass_ops(passes):
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = time.perf_counter()
            try:
                out, error = op.fn(), None
            except Exception as exc:  # a raising operation counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            records.append(Record(op, t0, t1 - t0, out, error))
            between(records[-1])
            excluded += time.perf_counter() - t1
        passes += 1
    return records, passes


def check_record(r: Record) -> None:
    """Check the operation's output, keep the verdict and drop the output."""
    if r.error is not None:
        r.verdict = Verdict(failed=r.error)
    else:
        try:
            r.verdict = r.op.check(r.out)
        except Exception as exc:  # a check that cannot read the output
            r.verdict = Verdict(failed=f"output check raised {type(exc).__name__}: {exc}")
    r.out = None


def compare_repeats(records: list[Record]) -> list[Verdict]:
    """Every repeat of an operation must reproduce its first output byte for byte."""
    verdicts = [r.verdict for r in records]
    first: dict[str, str] = {}
    differs = set()
    for r, v in zip(records, verdicts):
        if v.payload is None:
            continue
        if first.setdefault(r.op.key, v.payload) != v.payload:
            differs.add(r.op.key)
    for r, v in zip(records, verdicts):
        if r.op.key in differs and v.missed is None:
            v.missed = "output differs on repeat"
    return verdicts


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def position_medians(records: list[Record], raw: bool = False) -> dict[str, float]:
    """Median latency (scaled, or raw) of each distinct operation of the pass.

    Operations repeated within a pass (closure_table's cheap rows, the two
    SU(4) compiles of compile_haar) share a key and count once.
    """
    by_key: dict[str, list[float]] = {}
    for r in records:
        by_key.setdefault(r.op.key, []).append(r.seconds if raw else r.scaled)
    return {k: float(np.median(v)) for k, v in by_key.items()}


def pass_wall(records: list[Record], raw: bool = False) -> float:
    """One of each distinct operation: the sum of their median latencies."""
    return sum(position_medians(records, raw).values())


def end_to_end_metrics(records, verdicts, setups, rss_mb, tail_pct):
    lat_ms = np.array([r.scaled * 1e3 for r in records])
    met = sum(1 for v in verdicts if v.failed is None and v.missed is None)
    gates = [v.gates for v in verdicts if v.gates is not None]
    errs = [v.err for v in verdicts if v.err is not None]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": pass_wall(records),
        # nearest rank: a fixed op list leaves gaps between op types that
        # an interpolated percentile would straddle
        "op_p50_ms": float(np.percentile(lat_ms, 50, method="inverted_cdf")),
        "op_tail_ms": float(np.percentile(lat_ms, tail_pct, method="inverted_cdf")),
        "accuracy_met_frac": met / len(verdicts),
        "gates_p50": float(statistics.median(gates)) if gates else 0.0,
        # floored so that the metric is never 0 (an exact identity compile)
        "err_max": max(max(errs), 1e-16) if errs else 1e-16,
        "peak_rss_mb": rss_mb,
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in END_TO_END.items()}
    samples = {
        "setup_s": len(setups), "wall_s": len({r.op.key for r in records}),
        "op_p50_ms": len(lat_ms), "op_tail_ms": len(lat_ms),
        "accuracy_met_frac": len(verdicts), "gates_p50": len(gates),
        "err_max": len(errs), "peak_rss_mb": 1,
    }
    return metrics, samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the configured value."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_version(), "blas_threads": blas_threads(),
        "git_commit": git_commit(), "load": "closed loop, 1 caller",
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def summarize(records, verdicts) -> dict:
    failures = [f"{r.op.key}: {v.failed}" for r, v in zip(records, verdicts) if v.failed]
    misses = sorted({f"{r.op.key}: {v.missed}" for r, v in zip(records, verdicts)
                     if v.missed and not v.failed})
    return {"failures": failures[:20], "misses": misses}


def result_line(records, verdicts, metrics) -> str:
    failed = sum(1 for v in verdicts if v.failed)
    return json.dumps({"correct": failed == 0, "attempted": len(verdicts),
                       "failed": failed, "metrics": metrics})


class Between:
    """Called after each timed operation: output check, calibration and
    set-up repeats.

    Outputs are checked as they come, so that the run holds none of them
    and peak_rss_mb does not grow with the number of passes.
    """

    def __init__(self, args, clock: SpeedClock, first_setup):
        self.args = args
        self.clock = clock
        self.setups = [first_setup]                  # (start, seconds)
        self.last_setup_end = time.perf_counter()

    def repeat_setup(self) -> None:
        self.setups.append(run_setup(self.args.workload, self.args.seed, self.args.size)[2])
        self.clock.catch_up()
        self.last_setup_end = time.perf_counter()

    def __call__(self, record: Record) -> None:
        check_record(record)
        self.clock.catch_up()
        gap = max(self.args.seconds / SETUP_SAMPLES,
                  self.setups[-1][1] * (1 / SETUP_SHARE - 1))
        if time.perf_counter() - self.last_setup_end >= gap:
            self.repeat_setup()


def scale_records(records: list[Record], clock: SpeedClock) -> None:
    for r in records:
        r.scaled = clock.scaled(r.start, r.seconds)


def run_untraced(args, meta) -> str:
    clock = SpeedClock()
    _, plan, first = run_setup(args.workload, args.seed, args.size)
    clock.catch_up()
    between = Between(args, clock, first)
    records, passes = timed_phase(plan, args.seconds, between)
    rss = peak_rss_mb()
    while len(between.setups) < SETUP_REPS:
        between.repeat_setup()
    scale_records(records, clock)
    setups = [clock.scaled(start, secs) for start, secs in between.setups]
    verdicts = compare_repeats(records)
    metrics, samples = end_to_end_metrics(
        records, verdicts, setups, rss, plan.tail_pct)
    for name, m in metrics.items():
        better = END_TO_END[name][1]
        print(f"{args.workload:14s} {name:18s} {m['value']:14.6g} {m['unit']:6s} "
              f"({better} is better, n={samples[name]})")
    meta.update(passes=passes, tail_percentile=plan.tail_pct,
                speed=clock.speed(), calibrations=len(clock.dur),
                raw_wall_s=pass_wall(records, raw=True),
                wall_by_op_ms={k: round(v * 1e3, 3)
                               for k, v in position_medians(records).items()},
                raw_setup_s=statistics.median(secs for _, secs in between.setups),
                err_log10_max=math.log10(metrics["err_max"]["value"]),
                **summarize(records, verdicts))
    print("# meta " + json.dumps(meta))
    return result_line(records, verdicts, metrics)


def run_traced(args, meta) -> str:
    setup_tracer = Tracer()
    lib, plan, _ = run_setup(args.workload, args.seed, args.size, setup_tracer)
    clock = SpeedClock()

    def between(record):
        # outputs are checked after tracing, which must not see the checks
        clock.catch_up()

    plain, plain_passes = timed_phase(plan, args.seconds / 2, between)
    tracer = Tracer()
    tracer.install(lib)
    try:
        traced, passes = timed_phase(plan, args.seconds / 2, between, tracer)
    finally:
        tracer.uninstall()
    records = plain + traced
    scale_records(records, clock)
    for r in records:
        check_record(r)
    verdicts = compare_repeats(records)
    wall_plain, wall_traced = pass_wall(plain), pass_wall(traced)
    values = layer_metrics(tracer, passes)
    values.update(setup_metrics(setup_tracer))
    values.update({
        "trace.untraced_wall_s": (wall_plain, "s"),
        "trace.traced_wall_s": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - wall_plain, "s"),
        "trace.overhead_frac": ((wall_traced - wall_plain) / wall_plain, "ratio"),
        "trace.spans": (float(len(tracer.spans) + tracer.dropped), "count"),
    })
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:44s} {m['value']:14.6g} {m['unit']}")
    meta.update(passes_untraced=plain_passes, passes_traced=passes,
                spans_kept=len(tracer.spans), spans_dropped=tracer.dropped,
                speed=clock.speed(), **summarize(records, verdicts))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    path = WORKDIR / f"trace-{args.workload}.json"
    tracer.write(path, meta)
    print(f"# trace written to {path.relative_to(ROOT)}")
    print("# meta " + json.dumps(meta))
    return result_line(records, verdicts, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small operations, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "liegates" / "__init__.py").is_file():
        print(f"error: liegates sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meta = run_metadata(args)
    line = run_traced(args, meta) if args.trace else run_untraced(args, meta)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
