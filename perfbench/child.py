"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED SIZE TRACE

Starts the speed probes, imports the package and builds the inputs, prints
``ready``, runs the workload's steps in the timed region, then checks the
outputs and prints one JSON line: wall time, probe times, peak resident
memory, check results, exact counts and (with TRACE 1) one span per outside
call.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from bisect import bisect_left
from pathlib import Path
from statistics import harmonic_mean
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

PROBE_EVERY_S = 0.01
_TEXT = {i: str(i) for i in range(64)}


class _Cell:
    __slots__ = ("key", "text")

    def __init__(self, key, text):
        self.key, self.text = key, text

    def step(self, x):
        return (self.key + x) & 63


def probe_loop():
    """Fixed work of about 0.2 ms: an arithmetic loop, then a loop of calls,
    dict lookups and short-lived objects.

    Neither half alone follows the workloads' slow-downs well: the arithmetic
    loop slows less than they do and the object loop more.  Together they
    roughly halve the repetition-to-repetition spread of the corrected times.
    """
    s = 0
    for i in range(1000):
        s += i * i % 7
    cell = _Cell(3, "")
    for i in range(120):
        text = _TEXT.get(cell.step(i), "")
        s += len(text) + len(str(i))
        cell = _Cell(i, text)
    return s


class Probes:
    """Times a fixed loop every PROBE_EVERY_S seconds of wall time.

    The loop runs from a SIGALRM handler, so it runs between two bytecodes
    of whatever the process is doing, on the same processor.  Its duration
    says how fast the machine was then; the runner divides that speed out
    of the workload's time.
    """

    def __init__(self):
        self.starts, self.durations = [], []

    def tick(self, *_):
        t = perf_counter()
        probe_loop()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def within(self, a: float, b: float) -> list:
        """Durations of the probes that started in [a, b)."""
        return self.durations[bisect_left(self.starts, a):bisect_left(self.starts, b)]


class Calls:
    """Makes the workload's calls into the package.

    With tracing on, each call leaves a span (name, start, end, step) with
    times relative to the start of the timed region; spans stay in memory
    until the repetition ends, when ``run`` adds the probes' time inside
    each one as a fifth field.
    """

    def __init__(self, trace: bool, origin: float):
        self.spans = [] if trace else None
        self.step = None
        self.origin = origin

    def __call__(self, name, fn, *args):
        if self.spans is None:
            return fn(*args)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, t0 - self.origin, perf_counter() - self.origin, self.step))


def run(name: str, seed: int, size: str, trace: bool, ready=lambda: None, probes=None) -> dict:
    """One repetition.  With `probes`, the probes' own time is left out of
    ``wall_s``, and their harmonic mean durations in set-up and around the
    timed region are reported, as is their time inside each span."""
    import workloads  # here, so that the probes also cover the package import

    make_inputs, steps, check, counts = workloads.WORKLOADS[name]
    params = workloads.PARAMS[name][size]
    state = make_inputs(seed, params)
    state.update(params=params, size=size)
    t_ready = perf_counter()
    ready()
    if probes is not None:
        probes.tick()  # so that even a very short timed region has a probe on each side

    t0 = perf_counter()
    call = Calls(trace, t0)
    for step, fn in steps:
        call.step = step
        fn(state, call)
    t1 = perf_counter()
    # ru_maxrss is in KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"wall_s": t1 - t0, "rss_mb": rss_mb}
    spans = call.spans
    if probes is not None:
        probes.stop()
        probes.tick()
        setup = probes.within(0.0, t_ready)
        around = probes.within(t_ready, float("inf"))
        # Harmonic means: the work done in a stretch of time is the integral
        # of the speed, 1 / probe duration, and a probe that was preempted
        # then barely counts.
        out.update(
            wall_s=t1 - t0 - sum(probes.within(t0, t1)),
            probe_s=harmonic_mean(around),
            setup_probes_s=sum(setup),
            setup_probe_s=harmonic_mean(setup or around),
        )
    if spans is not None:
        # The fifth field is the probes' time inside the span.
        within = probes.within if probes is not None else lambda a, b: ()
        spans = [(n, a, b, s, sum(within(t0 + a, t0 + b))) for n, a, b, s in spans]

    expected = json.loads((HERE / "expected.json").read_text())
    out.update(
        checks=check(state, params, expected),
        counts=counts(state, expected),
        spans=spans,
        state=state,
    )
    return out


def main(argv):
    probes = Probes()
    probes.start()
    name, seed, size, trace = argv
    out = run(name, int(seed), size, trace == "1",
              ready=lambda: print("ready", flush=True), probes=probes)
    del out["state"]
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
