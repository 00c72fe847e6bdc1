"""Child processes of the benchmark: timed one-shot runs, set-up
timing, and closed-loop line-protocol clients.

Every child is reaped with ``os.wait4`` so its peak resident set and
its CPU time come from the OS, and every child has a watchdog that
kills it when its time budget runs out; nothing outlives the call that
started it.

Times are the analysing process's CPU time (user + system), not wall
time: on a shared virtual machine wall time also counts the moments the
host ran something else, which no commit can change.  Resident
processes are read through ``/proc/<pid>/task/*/schedstat``
(nanoseconds of CPU per thread), so the benchmark needs Linux.

CPU time still follows the host: how fast a virtual CPU runs swings by
up to 2x from one second to the next, independently on each CPU.  So
the client and the analyser share one CPU, a :class:`SpeedProbe` thread
in the client runs :func:`calibrate` on it every
``CALIBRATION_INTERVAL_S``, and each operation's CPU time is restated
at the reference speed from the calibrations taken while it ran.
"""

from __future__ import annotations

import json
import os
import bisect
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYTHON = sys.executable
#: A child that has not finished after this many seconds is killed.
CHILD_TIMEOUT_S = 120.0
#: CPU seconds :func:`calibrate` takes at the reference speed: its median
#: on the machine of the baseline in NOTES.md.
REFERENCE_CALIBRATION_S = 0.0033
#: Seconds between two calibrations of a :class:`SpeedProbe`.
CALIBRATION_INTERVAL_S = 0.05


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU, so that
    :func:`calibrate` measures the CPU the analyser runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibrate() -> float:
    """CPU seconds of a fixed piece of pure-Python work (string, dict and
    list churn, like the analyser's): how fast the host runs this CPU
    right now."""
    start = time.thread_time()
    table: dict[str, list[int]] = {}
    for i in range(6000):
        key = "k%d" % (i % 700)
        bucket = table.get(key, [])
        table[key] = bucket + [i] if i % 7 == 0 else bucket
    sorted(table)
    return time.thread_time() - start


class SpeedProbe:
    """A thread that runs :func:`calibrate` every ``CALIBRATION_INTERVAL_S``
    while the probe is entered, on the CPU the analyser shares with the
    client."""

    def __init__(self) -> None:
        #: (``perf_counter`` when it ended, CPU seconds) of each calibration.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> SpeedProbe:
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            seconds = calibrate()
            self.samples.append((perf_counter(), seconds))
            self._stop.wait(CALIBRATION_INTERVAL_S)

    def scaled(self, cpu_s: float, start: float, end: float) -> float:
        """``cpu_s``, spent between ``start`` and ``end`` (``perf_counter``
        times), restated at the reference speed.  The speed is the
        harmonic mean of the calibrations that ended in that span or in
        the interval before it; without any, one is taken now."""
        samples = self.samples[:]
        first = bisect.bisect_left(samples, start - CALIBRATION_INTERVAL_S, key=lambda s: s[0])
        window = [seconds for ended, seconds in samples[first:] if ended <= end]
        if not window:
            window = [calibrate()]
        return cpu_s * REFERENCE_CALIBRATION_S / statistics.harmonic_mean(window)

    def median(self) -> float:
        """The median calibration so far (0 without any)."""
        return statistics.median(s for _, s in self.samples) if self.samples else 0.0


#: The probe of this process; ``run.py`` enters it for the whole run.
SPEED = SpeedProbe()


def child_env(work: Path) -> dict[str, str]:
    """The analyser's environment: sources from this checkout, temporary
    files inside the work directory, and a fixed hash seed so that runs
    of one benchmark seed do the same work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class Finished:
    """One reaped child."""

    returncode: int
    wall_s: float
    #: CPU time of the child, user + system, from spawn to exit.
    cpu_s: float
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


def _reap(proc: subprocess.Popen) -> tuple[int, float, float]:
    """Wait for ``proc``; returns its exit status, peak RSS in MB and
    CPU seconds (both 0 when ``Popen`` already reaped it and the usage
    is lost)."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except ChildProcessError:
        return proc.wait(), 0.0, 0.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def cpu_seconds(pid: int) -> float:
    """CPU time a running process has used so far, summed over its
    threads, to the nanosecond."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        total += int((task / "schedstat").read_text().split()[0])
    return total / 1e9


def _killer(proc: subprocess.Popen):
    """A watchdog action that signals ``proc`` without reaping it, so
    the caller's ``wait4`` still gets its resource usage."""

    def kill() -> None:
        try:
            os.kill(proc.pid, 9)
        except ProcessLookupError:
            pass

    return kill


def _watchdog(seconds: float, proc: subprocess.Popen) -> threading.Timer:
    """Kill ``proc`` after ``seconds`` unless cancelled first.  The timer
    thread is a daemon, so it never holds up the benchmark's exit."""
    timer = threading.Timer(seconds, _killer(proc))
    timer.daemon = True
    timer.start()
    return timer


def run_once(argv: list[str], env: dict[str, str], work: Path) -> Finished:
    """Run one analyser process to completion, timed from spawn to exit.
    Output goes to files so no pipe can stall the child."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        watchdog = _watchdog(CHILD_TIMEOUT_S, proc)
        try:
            code, rss, cpu = _reap(proc)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    return Finished(code, wall, cpu, out_path.read_bytes(), err_path.read_bytes(), rss)


def import_seconds(modules: list[str], env: dict[str, str], repeats: int) -> float:
    """Median CPU time, at the reference speed, that a fresh interpreter
    spends from its start until it has imported ``modules`` (it reports
    its process time on stdout).  One untimed run first compiles the
    bytecode and warms the file cache."""
    code = (
        "".join(f"import {m}\n" for m in modules)
        + "import time\nprint('ready', time.process_time(), flush=True)\n"
    )
    samples = []
    for attempt in range(repeats + 1):
        start = perf_counter()
        proc = subprocess.Popen(
            [PYTHON, "-c", code], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            env=env, cwd=ROOT,
        )
        watchdog = _watchdog(CHILD_TIMEOUT_S, proc)
        try:
            line = proc.stdout.readline().split()
            end = perf_counter()
            proc.stdout.close()
            code_, _, _ = _reap(proc)
        finally:
            watchdog.cancel()
        if len(line) != 2 or line[0] != b"ready" or code_ != 0:
            raise RuntimeError(f"importing {', '.join(modules)} failed")
        if attempt:
            samples.append(SPEED.scaled(float(line[1]), start, end))
    return statistics.median(samples)


class LineClient:
    """A closed-loop client of a child that answers one JSON line per
    request line: the next request goes out only after the previous
    answer is in.  A watchdog kills the child after ``budget_s``."""

    def __init__(self, argv: list[str], env: dict[str, str], budget_s: float) -> None:
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, cwd=ROOT,
        )
        self.watchdog = _watchdog(budget_s, self.proc)
        self.peak_rss_mb = 0.0
        self._next_id = 0

    def cpu_s(self) -> float:
        """The child's CPU time so far."""
        return cpu_seconds(self.proc.pid)

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child closed its output")
        return json.loads(line)

    def send(self, text: str) -> tuple[dict, float]:
        """Write one line, read one JSON line; returns it with the
        client-observed latency."""
        start = perf_counter()
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()
        answer = self.read()
        return answer, perf_counter() - start

    def call(self, method: str, params: dict | None = None) -> tuple[dict, float]:
        """One JSON-RPC request; raises on an error response."""
        self._next_id += 1
        request = {"jsonrpc": "2.0", "id": self._next_id, "method": method}
        if params is not None:
            request["params"] = params
        response, elapsed = self.send(json.dumps(request))
        if "error" in response:
            raise RuntimeError(f"{method}: {response['error']}")
        return response["result"], elapsed

    def close(self, shutdown: bool = False) -> int:
        """End the child (politely first) and reap it."""
        try:
            if shutdown:
                self.call("shutdown")
        except (RuntimeError, OSError, ValueError):
            _killer(self.proc)()
        finally:
            for stream in (self.proc.stdin, self.proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
            code, self.peak_rss_mb, _ = _reap(self.proc)
            self.watchdog.cancel()
        return code
