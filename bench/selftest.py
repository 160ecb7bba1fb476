"""Self-test of the benchmark, at tiny sizes.

    python3 bench/selftest.py

Runs every workload named in BENCHMARK.json once untraced and once traced,
with a few small operations each, and checks that the result line has the
agreed keys and carries every metric BENCHMARK.json names, with its unit,
and no other.  It also checks that the tracer sees a builder the library
calls through a dict (torus families), and that the benchmark refuses to
run, with a non-zero exit code and no result line, when the library sources
are absent.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(line: str, expected: dict[str, str]) -> list[str]:
    res = json.loads(line)
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append(f"attempted {res.get('attempted')!r}")
    if not isinstance(res.get("failed"), int):
        problems.append(f"failed {res.get('failed')!r}")
    if res.get("correct") is not True:
        problems.append("correct is not true")
    got = res.get("metrics", {})
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r}")
    problems += [f"unexpected metric {name}" for name in sorted(set(got) - set(expected))]
    return problems


def bare_checkout_refuses() -> list[str]:
    """Only BENCHMARK.json and the benchmark's own files: must exit non-zero."""
    bare = BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        out = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return [f"bare checkout: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def tracer_sees_dict_builders() -> list[str]:
    """lieclosure.build_family reaches the torus builders through a dict."""
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    from run import import_library
    from tracer import Tracer

    lib = import_library()
    orig = lib.lieclosure._BUILDERS["torus_splits"]
    tracer = Tracer()
    tracer.install(lib)
    try:
        lib.lieclosure.build_family("torus_splits", 1, 3)
    finally:
        tracer.uninstall()
    problems = []
    if tracer.stats.get("generators.torus_split_set", [0])[0] != 1:
        problems.append(f"torus build traced as {sorted(tracer.stats)}")
    if lib.lieclosure._BUILDERS["torus_splits"] is not orig:
        problems.append("uninstall left a wrapper in lieclosure._BUILDERS")
    return problems


def main() -> int:
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in SPEC["workloads"]:
            out = run(ROOT, w["name"], trace)
            if out.returncode != 0:
                problems = [f"exit {out.returncode}: {out.stderr[-500:]}"]
            else:
                problems = check_result(out.stdout.strip().splitlines()[-1], expected)
            status = "ok" if not problems else "FAIL"
            print(f"{w['name']:14s} trace={trace} {status}")
            failures += [f"{w['name']} trace={trace}: {p}" for p in problems]
    problems = tracer_sees_dict_builders()
    print(f"{'tracer':14s} dict builders {'ok' if not problems else 'FAIL'}")
    failures += problems
    problems = bare_checkout_refuses()
    print(f"{'bare checkout':14s} refuses {'ok' if not problems else 'FAIL'}")
    failures += problems
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
