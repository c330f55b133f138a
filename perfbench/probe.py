"""One rfactor CLI invocation in a fresh interpreter, measured from outside.

    python probe.py SRC_DIR MODE RFACTOR_ARG...

MODE is ``setup`` (stop as soon as ``verify.run_suite`` is entered), ``run``
(untraced) or ``trace`` (layer spans from ``spans.py`` installed).  The CLI's
own output is captured; the last line on stdout is one JSON record with the
process CPU time at ``run_suite`` entry (interpreter start, imports and
argument handling), the CPU time inside ``run_suite`` plus report
serialization, the CPU time of every ``verify.run_one`` call, the peak RSS,
the exit code and the report text.

The record also carries timestamped readings of a host-speed gauge
(``Gauge``), taken from the probe's first line on: their mean during set-up
and, for a full invocation, every reading during the suite.  On a shared, virtualised host the CPU time of identical work
swings by up to 2x between regimes that last a fraction of a second, and
drifts by tens of percent over tens of seconds.  A fixed ``Fraction`` kernel
read at uniform intervals (``SIGALRM``; the probe is CPU-bound, so wall and
CPU intervals agree) runs in the same regimes as the work around it, so
dividing by it cancels them.  The CPU spent in readings is subtracted from
every timed region.  (``ITIMER_PROF`` is not used: on Linux it coarsens
``time.process_time`` to scheduler ticks while it is armed.)
"""

import contextlib
import gc
import io
import json
import random
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

# The kernel's size fixes the unit of bench.GAUGE_NOMINAL_S: change both.
GAUGE_PERIOD_S = 0.02
GAUGE_SIZE = 10
GAUGE_NNZ = 4


class Gauge:
    """Readings of one fixed sparse product of random ``Fraction`` matrices,
    shaped like ``linop.compose``.  gc is paused during a reading so that
    the heap of the program under test does not leak into it."""

    def __init__(self):
        rng = random.Random(1)
        self.a, self.b = (
            {
                i: {
                    rng.randrange(GAUGE_SIZE): Fraction(
                        rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.randint(1, 12)
                    )
                    for _ in range(GAUGE_NNZ)
                }
                for i in range(GAUGE_SIZE)
            }
            for _ in range(2)
        )
        self.readings = []
        self.spent = 0.0
        self._busy = False

    def read(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        t0 = time.process_time()
        enabled = gc.isenabled()
        gc.disable()
        t1 = time.process_time()
        a = self.a
        for bc in self.b.values():
            out = {}
            for k, c in bc.items():
                for r, v in a[k].items():
                    out[r] = out.get(r, 0) + c * v
        t2 = time.process_time()
        if enabled:
            gc.enable()
        self.readings.append((t1, t2 - t1))
        self.spent += time.process_time() - t0
        self._busy = False

    def mean(self):
        return sum(r for _, r in self.readings) / len(self.readings)

    def start(self):
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class _SetupDone(Exception):
    pass


def main(argv):
    src, mode, cli_args = argv[0], argv[1], argv[2:]
    clock = time.process_time
    gauge = Gauge()
    gauge.read()
    gauge.start()
    sys.path.insert(0, src)
    import rfactor.cli as cli
    import rfactor.verify as verify

    record = {"mode": mode, "rfactor": verify.__file__, "suite_cpu_s": 0.0}
    instances = []
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    suite, serialize, run_one = cli.run_suite, cli.report_to_json, verify.run_one

    def net(t0, spent0):
        return clock() - t0 - (gauge.spent - spent0)

    def run_suite(config):
        record["setup_s"] = clock() - gauge.spent
        gauge.read()
        record["setup_gauge_s"] = gauge.mean()
        if mode == "setup":
            raise _SetupDone
        gauge.readings.clear()
        gauge.read()
        t0, spent0 = clock(), gauge.spent
        try:
            return suite(config)
        finally:
            gauge.stop()
            record["suite_cpu_s"] += net(t0, spent0)

    def report_to_json(report):
        t0 = clock()
        record["report"] = serialize(report)
        record["suite_cpu_s"] += clock() - t0
        return record["report"]

    def timed_run_one(algebra, name, *rest):
        t0, spent0 = clock(), gauge.spent
        try:
            return run_one(algebra, name, *rest)
        finally:
            instances.append((name, net(t0, spent0), t0, clock()))

    cli.run_suite, cli.report_to_json = run_suite, report_to_json
    verify.run_one = timed_run_one
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            record["exit"] = cli.main(cli_args)
    except _SetupDone:
        record["exit"] = 0
    except Exception:
        # a crash of the program under test is a result, not a probe failure
        record["exit"] = None
        record["error"] = traceback.format_exc()[-4000:]
    gauge.stop()
    if mode != "setup":
        record["instances"] = instances
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        if tracer is not None:
            record["layers"] = tracer.summary()
        record["gauge_s"] = gauge.mean()
        record["gauge_readings"] = gauge.readings
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
