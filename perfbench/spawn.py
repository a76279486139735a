"""Runs the CLI commands of the benchmark from a small helper process.

Linux starts a child's `ru_maxrss` at the peak RSS of the process that
spawned it, so children of the benchmark process, which holds numpy and
the traced in-process run, would report its peak instead of their own.
The helper holds nothing but the standard library.  It reads one JSON
request per line on stdin, `{"argv", "stdout", "stderr", "cpus"}`, runs the
command on those CPUs with its own environment and working directory, and
answers with one line `{"wall_s", "maxrss_kb", "code", "probe_s"}`.  It
exits at the end of its input.

The CPUs of a shared host change speed by up to 1.7x, in spells of seconds
to minutes, in CPU time as much as in wall time.  While a command runs, one
thread of the helper per CPU of the command, pinned there, times a short
fixed loop every PROBE_PERIOD_S; `probe_s` is the mean of those times,
which follows the speed of the CPUs the command ran on.  The probe takes
about 2% of each CPU.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 120.0
PROBE_LOOPS = 15_000  # about 1 ms of interpreted integer arithmetic
PROBE_PERIOD_S = 0.05
PROBE_REPEATS = 11  # loops per CPU in probe()


def probe_once():
    """Seconds one probe loop takes on the calling thread's CPU."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def probe(cpus):
    """Median probe loop time on each of `cpus`, averaged over them.

    The calling thread is pinned to each CPU in turn and its affinity is
    restored afterwards.
    """
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.median(probe_once()
                                           for _ in range(PROBE_REPEATS)))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


class Sampler(threading.Thread):
    """Times the probe loop on one CPU, from start to stop and in between."""

    def __init__(self, cpu):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples = []
        self.stopped = threading.Event()

    def run(self):
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        self.samples.append(probe_once())
        while not self.stopped.wait(PROBE_PERIOD_S):
            self.samples.append(probe_once())
        self.samples.append(probe_once())

    def stop(self):
        self.stopped.set()
        self.join()


def run(argv, stdout, stderr, cpus):
    """Run one command on `cpus`, which its process inherits, and probe them."""
    samplers = [Sampler(cpu) for cpu in cpus]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            for sampler in samplers:
                sampler.start()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
    finally:
        for sampler in samplers:
            if sampler.is_alive():
                sampler.stop()
        os.sched_setaffinity(0, allowed)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode,
            "probe_s": statistics.fmean(t for s in samplers for t in s.samples)}


class Spawner:
    """Client side: starts the helper and sends it commands one at a time."""

    def __init__(self, env, cwd):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], env=env, cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout, stderr, cpus):
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "cpus": sorted(cpus)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        if not answer:
            raise RuntimeError("command helper exited")
        return json.loads(answer)

    def close(self):
        self._proc.terminate()  # kills the running command, if any
        self._proc.communicate(timeout=CHILD_TIMEOUT_S)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(**request)), flush=True)


if __name__ == "__main__":
    main()
