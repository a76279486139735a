"""The process pool that runs crofton._run_chunks's chunks with more than
one worker.  Only a call that asks for several workers loads this module,
so a one-worker run never compiles it.

With w workers, w - 1 children forked with os.fork run the chunks
i = j mod w, j = 1, ..., w - 1, and the calling process runs those with
j = 0: numpy's short calls on a chunk's arrays hand the interpreter lock
over about as often as they compute, so threads would not overlap.  The
caller stays on its CPU, and child j first moves to the j-th other CPU of
the affinity mask (_cpu_order, _place): where the host balances no load,
a forked child would otherwise stay on its parent's CPU, and the two
would take turns on it.  Each child sends its results, or the first
exception of its chunks, as one pickle over a pipe and leaves through
os._exit, so it flushes none of the caller's buffers and runs none of its
code.
"""

import contextlib
import os
import pickle
import threading


def usable_cpus():
    """The CPUs this process may run on, or all of the machine's where the
    platform keeps no affinity mask; 1 where it cannot fork, and while
    other threads run: a forked child holds only the calling thread, so a
    lock that another thread held at the fork would never be released in
    it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run(chunk_fn, shifts, sizes, workers):
    """chunk_fn(shifts[i], sizes[i]) for every chunk i, in chunk order, run
    by `workers` processes.  Of the chunks that raise, the lowest index's
    exception is re-raised here; a child that ends without sending its
    outcome raises ChildProcessError.  Every child is reaped before the
    call returns or raises, and killed first if the calling process raises
    (KeyboardInterrupt included).  The caller leaves with its affinity
    mask as it found it."""

    def share(j):
        """({index: result}, None) for the chunks i = j mod workers, or
        with (index, exception) of the first that raises."""
        done = {}
        for i in range(j, len(sizes), workers):
            try:
                done[i] = chunk_fn(shifts[i], sizes[i])
            except Exception as exc:  # re-raised by the calling process
                return done, (i, exc)
        return done, None

    cpus = _cpu_order()
    _place(cpus, 0)  # moves only where the caller's CPU is unknown
    pipes = {}  # child pid -> the read end of its pipe
    try:
        for j in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve_share(share, j, write, cpus)
            pipes[pid] = open(read, "rb")
            os.close(write)
        outcomes = [share(0)]
        for pid, pipe in list(pipes.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            pipe.close()
            if code:
                raise ChildProcessError(
                    f"a chunk worker (pid {pid}) ended without its results: "
                    f"{_exit_status(code)}")
            outcomes.append(pickle.loads(data))
    finally:
        _kill_and_reap(pipes)
    failures = [failure for _, failure in outcomes if failure]
    if failures:
        raise min(failures)[1]  # (index, exception): indices are distinct
    results = [None] * len(sizes)
    for done, _ in outcomes:
        for i, result in done.items():
            results[i] = result
    return results


def _cpu_order():
    """The CPUs of this process's affinity mask in the order the shares
    take them: the one it runs on first (field 39 of /proc/self/stat,
    where there is one), then the others in ascending order.  Empty where
    os has no affinity calls."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/self/stat", "rb") as stat:
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])
        cpus.sort(key=lambda cpu: cpu != here)
    return cpus


def _place(cpus, j):
    """Move this process to cpus[j], then restore its affinity mask at
    once: the kernel migrates a process whose mask leaves out its CPU, and
    the restored mask lets it move on only where the host balances load.
    Best-effort: where os has no affinity calls, or the move raises
    OSError, the process stays where it is."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[j]})
    except (AttributeError, OSError):
        return
    os.sched_setaffinity(0, allowed)


def _serve_share(share, j, write, cpus):
    """A forked chunk worker: moves to cpus[j], writes the pickle of
    share(j) to the file descriptor `write` and exits, with status 0 only
    once all of it is written."""
    status = 1
    try:
        _place(cpus, j)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(share(j), pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _exit_status(code):
    """A child's exit code (os.waitstatus_to_exitcode) in words."""
    if code < 0:
        import signal  # only a child killed by a signal needs its name

        return f"killed by {signal.Signals(-code).name}"
    return f"exit status {code}"


def _kill_and_reap(pipes):
    """Close each pipe of `pipes`, {pid: read end}, and kill and reap its
    child."""
    if not pipes:
        return
    import signal  # only a call that fails with children running needs it

    for pid, pipe in pipes.items():
        pipe.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
