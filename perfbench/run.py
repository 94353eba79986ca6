"""Benchmark runner: repeats one workload in fresh interpreters and reports.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a new interpreter (perfbench/child.py), so lru caches and
the package's intern table start cold, as they do for a command-line user.
Repetitions run one after another while the next one is expected to end
within S seconds, and at least MIN_REPS times (MIN_TRACE_REPS of each kind
when traced).  The last line of standard output is one JSON object whose
metrics are the ones BENCHMARK.json lists:

* ``--trace 0``: the end-to-end metrics, each the median over repetitions:
  ``wall_s`` (the workload's steps), ``setup_s`` (interpreter start, package
  import and input generation) and ``peak_rss_mb``.
* ``--trace 1``: repetitions alternate untraced and traced.  The per-layer
  metrics come from the traced ones: the median seconds per outside call
  name, exact counts, the tracing overhead and the unattributed time.  The
  spans of every traced repetition are written to
  ``.perfbench-out/trace-<workload>-<seed>.json``.

Every time is speed-corrected.  The child times a fixed probe loop every
10 ms, between bytecodes of its own work, and a time measured while the
probe took ``p`` seconds (harmonic mean) is reported as ``time *
PROBE_NOMINAL_S / p``: the time the same work takes when the probe runs at
its nominal speed.  This takes out the changing speed of a shared host,
whose cores switch between full and about half speed and so move plain
wall times by up to 1.6x within a minute.  The probes' own time is left
out, and the lines before the JSON give the plain medians too.

``attempted`` and ``failed`` count output checks over all repetitions; the
error rate is failed / attempted.  Exit status 2 means the benchmark could
not run (no package source, or a repetition crashed) and no result is
printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_REPS = 3
MIN_TRACE_REPS = 2
REP_TIMEOUT_S = 150
# About the probe loop's time on the 2-vCPU Xeon where the benchmark was first
# recorded, at full speed.  It fixes the unit of the corrected times and
# nothing else.
PROBE_NOMINAL_S = 0.00012


class RepFailed(Exception):
    pass


def speed(r: dict) -> float:
    """Factor that turns a time measured in repetition `r` into a corrected one."""
    return PROBE_NOMINAL_S / r["probe_s"]


def run_rep(workload: str, seed: int, size: str, trace: bool) -> dict:
    """One repetition in a fresh interpreter; adds its set-up time, plain and corrected."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), size, str(int(trace))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:  # interrupted before the child ended
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0 or not rest.strip():
        raise RepFailed(f"{workload} repetition exited with status {code}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_plain_s"] = setup - result["setup_probes_s"]
    result["setup_s"] = result["setup_plain_s"] * PROBE_NOMINAL_S / result["setup_probe_s"]
    return result


def measure(workload: str, seed: int, seconds: float, size: str, trace: bool):
    """Repeat while the next repetition is expected to end within `seconds`.

    With trace, plain and traced repetitions alternate.  The minimum number
    of repetitions runs even when it takes longer.
    """
    plain, traced = [], []
    need_plain, need_traced = (MIN_TRACE_REPS, MIN_TRACE_REPS) if trace else (MIN_REPS, 0)
    start = perf_counter()
    while True:
        want_traced = trace and len(traced) < len(plain)
        (traced if want_traced else plain).append(run_rep(workload, seed, size, want_traced))
        elapsed = perf_counter() - start
        per_rep = elapsed / (len(plain) + len(traced))
        if len(plain) >= need_plain and len(traced) >= need_traced and elapsed + per_rep > seconds:
            return plain, traced


def end_to_end(plain: list):
    """Median of each end-to-end metric over the repetitions, and summary lines."""
    series = {
        "wall_s": [r["wall_s"] * speed(r) for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["rss_mb"] for r in plain],
    }
    values, lines = {}, []
    for name, xs in series.items():
        values[name] = statistics.median(xs)
        q = statistics.quantiles(xs, n=4)
        lines.append(
            f"{name:<12} median {values[name]:.4f}  quartiles {q[0]:.4f}..{q[2]:.4f}  "
            f"over {len(xs)} repetitions"
        )
    lines.append(
        f"plain medians, not speed-corrected: wall {statistics.median(r['wall_s'] for r in plain):.4f} s, "
        f"setup {statistics.median(r['setup_plain_s'] for r in plain):.4f} s; probe median "
        f"{statistics.median(r['probe_s'] for r in plain) * 1e6:.1f} us "
        f"(nominal {PROBE_NOMINAL_S * 1e6:.0f} us)"
    )
    return values, lines


def per_layer(plain: list, traced: list):
    """Per-layer values from the traced repetitions, and summary lines.

    A call name's value is the median over traced repetitions of the
    corrected seconds its spans cover, probes left out; a layer the
    workload never calls reads 0.
    """
    per_rep = []
    for r in traced:
        seconds = {}
        for name, start, end, _step, probes in r["spans"]:
            seconds[name + "_s"] = seconds.get(name + "_s", 0.0) + (end - start - probes) * speed(r)
        seconds["trace.unattributed_s"] = r["wall_s"] * speed(r) - sum(seconds.values())
        per_rep.append(seconds)
    values = {
        name: statistics.median(s.get(name, 0.0) for s in per_rep)
        for name in set().union(*per_rep)
    }
    # Counts repeat exactly across repetitions (main checks that), so take the first.
    values.update(traced[0]["counts"])
    values["trace.spans"] = len(traced[0]["spans"])
    # Each traced repetition runs right after a plain one; comparing within
    # those pairs keeps slow drift of the machine out of the overhead.
    overhead = statistics.median(
        t["wall_s"] * speed(t) / (p["wall_s"] * speed(p)) - 1 for p, t in zip(plain, traced)
    )
    values["trace.overhead_ratio"] = overhead
    traced_wall = statistics.median(r["wall_s"] * speed(r) for r in traced)
    lines = [
        f"untraced wall median {statistics.median(r['wall_s'] * speed(r) for r in plain):.4f} s over "
        f"{len(plain)}, traced {traced_wall:.4f} s over {len(traced)}; "
        f"tracing overhead {overhead:+.2%} (median over adjacent pairs)",
        f"unattributed (wall minus outside calls) {values['trace.unattributed_s']:.4f} s "
        f"of {traced_wall:.4f} s",
    ]
    return values, lines


def write_trace(workload: str, seed: int, traced: list) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    fields = ("name", "start", "end", "step", "probe_s")
    doc = {
        "workload": workload,
        "seed": seed,
        "repetitions": [
            {"wall_s": r["wall_s"], "probe_s": r["probe_s"],
             "spans": [dict(zip(fields, s)) for s in r["spans"]]}
            for r in traced
        ],
    }
    path.write_text(json.dumps(doc) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "substreetution" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once so every repetition imports as an installed package would.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    # On SIGTERM, unwind so that run_rep stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    trace = bool(args.trace)
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, args.size, trace)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    checks = [c for r in plain + traced for c in r["checks"]]
    if trace:
        values, lines = per_layer(plain, traced)
        listed = BENCH["per_layer"]
        # Exact counts must be identical in every repetition of one seed.
        checks.append(("counts-repeat", all(r["counts"] == traced[0]["counts"] for r in traced)))
        lines.append(f"spans written to {write_trace(args.workload, args.seed, traced)}")
    else:
        values, lines = end_to_end(plain)
        listed = BENCH["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed}
    unlisted = sorted(set(values) - set(metrics))
    if unlisted:
        print(f"perfbench: measured but not in BENCHMARK.json: {unlisted}", file=sys.stderr)
        return 2
    failures = [name for name, ok in checks if not ok]

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    for line in lines:
        print(line)
    if trace:
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"error rate {len(failures)}/{len(checks)} checks failed"
          + (f": {', '.join(sorted(set(failures)))}" if failures else ""))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
