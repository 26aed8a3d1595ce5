"""One benchmark process: set up a workload, run it, report as JSON.

run.py starts this file once per measurement so that the lru_cache tables of
kaccrystal start cold, as they do for each CLI invocation, and so that peak
RSS belongs to one run.  Usage:

    python3 bench/worker.py --src SRC --workload NAME --seed N --mode setup
    python3 bench/worker.py --src SRC --workload NAME --seed N --mode run \
        (--seconds S | --units N) [--trace PATH] [--out-dir DIR]

The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

# Shared hosts change speed by half or more within seconds.  A timer signal
# runs a fixed piece of reference work every TICK_S of wall-clock time, also
# in the middle of a call into kaccrystal.  Each measured time, minus the
# time spent in the signal handler, is scaled by REFERENCE_S over the median
# reference time during it and, for short calls, in the few ticks around it,
# so it reads as if the machine had run at the speed that gives the
# reference work REFERENCE_S.
REFERENCE_S = 100e-6
TICK_S = 0.005
WINDOW = 9


_REF_TABLE = {(i % 17, i % 5, i): i for i in range(1200)}
_REF_KEYS = tuple(_REF_TABLE)


def reference_work():
    """Fixed interpreter work: tuple hashing and dict lookups, as in
    kaccrystal, but no new containers, so it never starts the garbage
    collector and its time does not depend on the size of the heap."""
    total = 0
    for key in _REF_KEYS:
        total += _REF_TABLE[key] if key[0] < 8 else key[1]
    return total


class SpeedMeter:
    """Reference timings taken from a SIGALRM handler."""

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def start(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """(clock, handler time, sample count) for scaling a later interval."""
        return time.perf_counter(), self.handler_s, len(self.samples)

    def interval(self, mark):
        """Raw seconds since `mark` without handler time, and its sample range."""
        t, h, n = mark
        return time.perf_counter() - t - (self.handler_s - h), (n, len(self.samples))

    def factor(self, span):
        """REFERENCE_S over the median of the samples during an interval,
        widened on both sides to at least WINDOW samples."""
        lo, hi = span
        pad = max(1, (WINDOW - (hi - lo) + 1) // 2)
        return REFERENCE_S / statistics.median(self.samples[max(0, lo - pad): hi + pad])


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--units", type=int, default=None)
    p.add_argument("--trace", default=None, help="write spans to this file")
    p.add_argument("--out-dir", default=None)
    return p.parse_args(argv)


def measure(workload, meter, seconds=None, units=None, tracer=None):
    """Run whole rounds until `seconds` of scaled busy time, or `units` units.

    Only the calls into kaccrystal are timed; each output is checked right
    after its call with the clock stopped.  Times are scaled once the run
    ends, when the samples after every call are known; the stopping rule
    uses the samples known so far.  A run holds whole rounds only, but how
    many fit follows the program's speed and, through the meter's residual
    error, the host's: two runs may hold different numbers of rounds and so
    a different mix of items.  Throughput compares whole stratified rounds,
    not identical sets of calls.
    """
    records = []
    attempted = failed = 0
    errors = []
    outputs = []
    raw_busy = handler = 0.0
    running_scaled = 0.0
    done = 0
    r = 0
    while seconds is None or running_scaled < seconds:
        for unit in workload.round(r):
            if units is not None and done >= units:
                break
            if tracer is not None:
                tracer.item_id = done
            done += 1
            mark = meter.mark()
            try:
                output = workload.run(unit)
                reason = None
            except Exception as exc:  # one bad unit must not end the run
                output = None
                reason = "%s: %s: %s" % (unit.data, type(exc).__name__, exc)
            dt, span = meter.interval(mark)
            raw_busy += dt
            handler += meter.handler_s - mark[1]
            running_scaled += dt * meter.factor(span)
            records.append((dt, span, unit.items))
            attempted += unit.items
            if reason is None:
                reason = workload.check(unit, output)
                if unit.kind == "crystal":
                    outputs.append([unit.data, output])
            if reason is not None:
                failed += unit.items
                if len(errors) < 5:
                    errors.append(reason)
        else:
            r += 1
            continue
        break
    latencies = []
    scaled_busy = 0.0
    for dt, span, items in records:
        scaled = dt * meter.factor(span)
        scaled_busy += scaled
        # a call that counts several items has no latency per item
        if items == 1:
            latencies.append(scaled * 1000.0)
    return {
        "busy_s": scaled_busy,
        "raw_busy_s": raw_busy,
        "handler_s": handler,
        "units": done,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "latencies_ms": latencies,
        "outputs": outputs,
    }


def main(argv=None):
    meter = SpeedMeter()
    meter.start()
    setup_mark = meter.mark()
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import kaccrystal

    if not os.path.abspath(kaccrystal.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.stderr.write("kaccrystal imported from %s, not %s\n" % (kaccrystal.__file__, args.src))
        return 2
    import workloads

    workload = workloads.make(args.workload, args.seed, args.out_dir)
    raw_setup, span = meter.interval(setup_mark)
    result = {"setup_s": raw_setup * meter.factor(span), "raw_setup_s": raw_setup}
    if args.mode == "run":
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(args.workload)
            tracer.install()
        result.update(measure(workload, meter, args.seconds, args.units, tracer))
        if tracer is not None:
            totals, top = tracing.self_times(tracer)
            result["layers"] = {name: list(v) for name, v in totals.items()}
            result["counts"] = tracer.counts
            result["top_s"] = top
            result["spans"] = len(tracer.start)
            tracer.write(args.trace)
    meter.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
