"""The five workloads, their output checks, and their metrics.

Each workload is one closed-loop client: it sends the next operation
only after the previous one has finished, and the analyser runs with
``jobs=1`` on the client's CPU.  An operation's time is the analysing
process's CPU time, restated at the reference speed (see :mod:`procs`).

* ``qlint-cold`` - fresh ``python -m repro.checker`` runs over a cgen
  corpus (SARIF, default checks): import and the C front end.
* ``whole-program`` - fresh ``--whole-program --best-effort`` runs with
  all seven checks over cross-TU resource programs: the preprocessor,
  linker, ownership fixpoint and the flow-sensitive pack.
* ``daemon-edit`` - one resident ``python -m repro.serve``; each
  operation is an edit: ``didChange`` of a unit, then ``analyze`` (one
  cache miss, the other units read from the memory tier).  Each round
  of edits changes every unit once, in a seeded order, so every run
  edits the same mix of small and large units.
* ``daemon-reanalyze`` - the same daemon and corpus; each operation is
  an ``analyze`` of the unchanged tree (every unit read from the memory
  tier, then rendered).  It is a workload of its own so the read path
  is gated by its own median, whatever mix of edits and reads an editor
  sends: a change that speeds up edits by slowing reads shows here.
* ``table1`` - the six Table 1 programs through parse, ``run_mono`` and
  ``run_poly``: the only workload whose constraint systems reach the
  flat solver kernel and ``qual.poly`` generalisation.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs
import layers
from procs import (
    HERE, PYTHON, ROOT, SPEED, Finished, LineClient, child_env, import_seconds, run_once,
)

ALL_CHECKS = (
    "tainted-format,casts-away-const,nonnull-deref,binding-time,"
    "double-free,use-after-free,resource-leak"
)
PACK_CHECKS = frozenset({"double-free", "use-after-free", "resource-leak"})
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The end-to-end metrics, the same on every workload: (name, unit).
#: ``op_ms.p50`` is the median of the workload's operation: one cold CLI
#: run, one daemon edit or re-analysis, or one Table 1 pass.
END_TO_END = tuple((m["name"], m["unit"]) for m in BENCHMARK["end_to_end"])
#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: Daemons started for ``setup_s`` on the daemon workloads.
DAEMON_SETUPS = 3
#: Timed Table 1 passes per run, after an untimed warm-up over the
#: first program.  A pass takes about 14 s, so the count is fixed rather
#: than set by how many passes fit in ``--seconds`` on a given host.
TABLE1_PASSES = 1
#: Traced runs do a fixed amount of work so their counts repeat exactly:
#: this many untraced/traced pairs of cold CLI runs, this many daemon
#: operations in each of an untraced and a traced daemon, and one
#: untraced and one traced Table 1 pass.
TRACE_PAIRS = 4
TRACE_OPS = 60
#: Watchdog budget for a resident child (daemon or Table 1 process).
CHILD_BUDGET_S = 170.0


@dataclass
class Run:
    """One benchmark run's settings."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    size: str = "full"

    @property
    def trace_path(self) -> Path:
        """Where a traced child writes its aggregates (kept after the run)."""
        return self.work.parent / "traces" / f"{self.workload}-seed{self.seed}.json"


@dataclass
class Result:
    """What one run measured and how many operations failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Problems with the run as a whole (an input fingerprint mismatch).
    run_problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.run_problems


# -- output checks --------------------------------------------------------


def cli_problems(done: Finished) -> list[str]:
    """A cold CLI run failed if it exited with a status other than 0 or
    1, printed a traceback, or reported a unit it could not analyse."""
    problems = []
    if done.returncode not in (0, 1):
        problems.append(f"exit status {done.returncode}")
    err = done.stderr.decode("utf-8", "replace")
    if "Traceback" in err:
        problems.append("traceback on stderr")
    problems += [
        line
        for line in err.splitlines()
        if line.startswith(("qlint: error:", "qlint: partial:", "qlint: skipped:"))
    ]
    return problems


def pack_problems(sarif: bytes, expected: dict[str, frozenset[str]]) -> list[str]:
    """Each program's linearity-pack finding kinds (grouped by file
    prefix) must equal what the generator planted."""
    found: dict[str, set[str]] = {prefix: set() for prefix in expected}
    for result in json.loads(sarif)["runs"][0]["results"]:
        if result["ruleId"] in PACK_CHECKS:
            uri = result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            found.setdefault(uri.rsplit("/", 1)[-1].split("_", 1)[0], set()).add(result["ruleId"])
    return [
        f"{prefix}: pack findings {sorted(kinds)} but planted {sorted(expected.get(prefix, ()))}"
        for prefix, kinds in sorted(found.items())
        if kinds != set(expected.get(prefix, ()))
    ]


def table2_problems(counts: dict[str, list[int]], reference) -> list[str]:
    """Every program of ``reference`` (rows of the paper's Table 2) has
    counts, and its Declared / Mono / Poly / Total equal its row."""
    rows = {row[0]: list(row[3:]) for row in reference}
    return [
        f"{name}: counts {counts.get(name)} but Table 2 has {row}"
        for name, row in rows.items()
        if counts.get(name) != row
    ]


def edit_problems(change: dict, analyzed: dict) -> list[str]:
    """After an edit exactly one unit is re-analysed, with no errors."""
    problems = []
    if "parse_diagnostics" in change:
        problems.append(f"edit of {change.get('file')} did not parse")
    if analyzed["errors"]:
        problems.append(f"analyze errors: {analyzed['errors']}")
    if analyzed["cache_misses"] != 1:
        problems.append(f"post-edit analyze had {analyzed['cache_misses']} cache misses, not 1")
    return problems


def reanalyze_problems(again: dict, reference: str) -> list[str]:
    """A re-analysis of the unchanged tree hits the cache for every unit
    and answers the one-shot CLI's report."""
    problems = []
    if again["errors"]:
        problems.append(f"analyze errors: {again['errors']}")
    if again["cache_misses"] != 0:
        problems.append(f"re-analysis had {again['cache_misses']} cache misses, not 0")
    if again["report"] != reference:
        problems.append("re-analysis of the unchanged tree answered another report")
    return problems


# -- shared pieces ----------------------------------------------------------


def _write(files: dict[str, str], directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def _fingerprint(run: Run, result: Result) -> None:
    if run.size != "full":
        return
    mismatch = inputs.check_fingerprint(run.workload, run.seed)
    if mismatch:
        result.run_problems.append(mismatch)


def _launch(run: Run, mode: str, args: list[str]) -> list[str]:
    run.trace_path.parent.mkdir(parents=True, exist_ok=True)
    return [PYTHON, str(HERE / "launch.py"), "--out", str(run.trace_path), mode, "--", *args]


def _load_summary(run: Run) -> dict:
    return json.loads(run.trace_path.read_text())


def _timed_loop(
    run: Run, result: Result, op: Callable[[], float], count: int | None = None
) -> list[float]:
    """Run ``op`` back to back ``count`` times, or until ``run.seconds``
    have passed.  ``op`` returns its CPU seconds; the result is each one
    at the reference speed.  A note line gives the medians as measured."""
    cpu, at_reference = [], []
    began = perf_counter()
    while (len(cpu) < count) if count is not None else (perf_counter() - began < run.seconds):
        start = perf_counter()
        cpu.append(op())
        at_reference.append(SPEED.scaled(cpu[-1], start, perf_counter()))
    if cpu:
        _speed_note(run, result, cpu, at_reference)
    return at_reference


def _speed_note(run: Run, result: Result, cpu: list[float], at_reference: list[float]) -> None:
    result.notes.append(
        f"{run.workload}: {len(cpu)} timed operations; CPU p50 "
        f"{statistics.median(cpu) * 1000:.2f} ms as measured, "
        f"{statistics.median(at_reference) * 1000:.2f} ms at the reference speed; "
        f"calibration p50 {SPEED.median() * 1000:.3f} ms"
    )


def _end_to_end(result: Result, setup_s: float, op_s: list[float], rss_mb: float) -> None:
    values = (setup_s, statistics.median(op_s) * 1000 if op_s else 0.0, rss_mb)
    result.metrics = {name: (v, unit) for (name, unit), v in zip(END_TO_END, values)}


def _per_layer(result: Result, values: dict[str, float]) -> None:
    result.metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in BENCHMARK["per_layer"]}


# -- the CLI workloads -------------------------------------------------------


def _cli(
    run: Run, result: Result, files: dict[str, str], flags: list[str],
    check: Callable[[bytes], list[str]],
) -> None:
    _fingerprint(run, result)
    corpus = _write(files, run.work / "corpus")
    env = child_env(run.work)
    args = [str(corpus), *flags, "--format", "sarif"]
    reference: list[bytes] = []

    def op(traced: bool) -> Finished:
        argv = _launch(run, "cli", args) if traced else [PYTHON, "-m", "repro.checker", *args]
        done = run_once(argv, env, run.work)
        problems = cli_problems(done)
        if not reference:
            reference.append(done.stdout)
        elif done.stdout != reference[0]:
            problems.append("report bytes differ from this seed's first run")
        if not problems:
            problems += check(done.stdout)
        result.op(problems)
        return done

    op(False)  # untimed: warms the file cache and gives the reference report
    if not run.trace:
        setup_s = import_seconds(["repro.checker.cli"], env, SETUP_REPEATS)
        finished: list[Finished] = []

        def timed() -> float:
            finished.append(op(False))
            return finished[-1].cpu_s

        cpu = _timed_loop(run, result, timed)
        _end_to_end(result, setup_s, cpu, statistics.median(f.peak_rss_mb for f in finished))
        return

    walls, summaries, cpu = [], [], {False: [], True: []}
    for _ in range(TRACE_PAIRS):
        for traced in (False, True):
            start = perf_counter()
            done = op(traced)
            cpu[traced].append(SPEED.scaled(done.cpu_s, start, perf_counter()))
        walls.append(done.wall_s)  # of the traced run
        summaries.append(_load_summary(run))
    _per_layer(result, layers.per_layer(summaries, TRACE_PAIRS, walls, cpu[True], cpu[False]))


def qlint_cold(run: Run, result: Result) -> None:
    files = inputs.qlint_corpus(run.seed, run.size)
    _cli(run, result, files, [], lambda sarif: [])


def whole_program(run: Run, result: Result) -> None:
    files, expected = inputs.xtu_corpus(run.seed, run.size)
    flags = ["--whole-program", "--best-effort", "--checks", ALL_CHECKS]
    _cli(run, result, files, flags, lambda sarif: pack_problems(sarif, expected))


# -- the daemon ---------------------------------------------------------------


def _daemon(run: Run, result: Result, edits: bool) -> None:
    files = inputs.qlint_corpus(run.seed, run.size)
    _fingerprint(run, result)
    corpus = _write(files, run.work / "corpus")
    env = child_env(run.work)
    params = {"paths": [str(corpus)], "format": "json"}
    units = sorted(str(corpus / name) for name in files)
    base = {str(corpus / name): text for name, text in files.items()}

    oneshot = run_once([PYTHON, "-m", "repro.checker", str(corpus), "--format", "json"], env, run.work)
    result.op(cli_problems(oneshot))
    reference = oneshot.stdout.decode("utf-8")

    def start(traced: bool) -> tuple[LineClient, float]:
        argv = _launch(run, "serve", []) if traced else [PYTHON, "-m", "repro.serve"]
        spawned = perf_counter()
        client = LineClient(argv, env, CHILD_BUDGET_S)
        try:
            first, _ = client.call("analyze", params)
            setup_s = SPEED.scaled(client.cpu_s(), spawned, perf_counter())
        except BaseException:
            client.close()
            raise
        problems = [] if first["report"] == reference else [
            "first daemon report differs from the one-shot CLI JSON report"
        ]
        if first["errors"]:
            problems.append(f"analyze errors: {first['errors']}")
        result.op(problems)
        return client, setup_s

    def serve(client: LineClient, count: int | None) -> tuple[list, list[float]]:
        """Operations until ``count`` are done or the run's time is up;
        returns the client-observed latency of every request, as
        (method, seconds), and the daemon's CPU time of each operation
        at the reference speed."""
        rng = random.Random(run.seed)
        order = list(units)
        requests: list[tuple[str, float]] = []
        done = 0

        def op() -> float:
            nonlocal done
            before = client.cpu_s()
            if edits:
                if done % len(order) == 0:
                    rng.shuffle(order)
                unit = order[done % len(order)]
                change, change_s = client.call(
                    "didChange", {"file": unit, "text": inputs.edit_text(base[unit], done, rng)}
                )
                analyzed, analyze_s = client.call("analyze", params)
                cpu = client.cpu_s() - before
                result.op(edit_problems(change, analyzed))
                requests.extend([("did_change", change_s), ("analyze", analyze_s)])
            else:
                again, again_s = client.call("analyze", params)
                cpu = client.cpu_s() - before
                result.op(reanalyze_problems(again, reference))
                requests.append(("analyze", again_s))
            done += 1
            return cpu

        return requests, _timed_loop(run, result, op, count)

    def walls(requests: list[tuple[str, float]]) -> list[float]:
        """Client-observed time of each operation: what the editor sees."""
        per_op = 2 if edits else 1
        return [sum(s for _, s in requests[i : i + per_op]) for i in range(0, len(requests), per_op)]

    if not run.trace:
        setups = []
        for attempt in range(DAEMON_SETUPS):
            client, setup_s = start(False)
            setups.append(setup_s)
            if attempt < DAEMON_SETUPS - 1:
                client.close(shutdown=True)
        try:
            requests, cpu = serve(client, None)
        finally:
            client.close(shutdown=True)
        _end_to_end(result, statistics.median(setups), cpu, client.peak_rss_mb)
        if cpu:
            ops = sorted(walls(requests))
            name = "edit_ms" if edits else "reanalyze_ms"
            result.notes.append(
                f"{run.workload}: {len(ops)} operations; client-observed {name}.p50 "
                f"{statistics.median(ops) * 1000:.2f} ms, {name}.p90 "
                f"{ops[int(0.9 * (len(ops) - 1))] * 1000:.2f} ms"
            )
        return

    client, _ = start(False)
    try:
        _, plain = serve(client, TRACE_OPS)
    finally:
        client.close(shutdown=True)
    client, _ = start(True)
    try:
        traced, traced_cpu = serve(client, TRACE_OPS)
        stats, _ = client.call("stats")
    finally:
        client.close(shutdown=True)
    summary = _load_summary(run)
    values = layers.per_layer(
        [summary], TRACE_OPS, walls(traced), traced_cpu, plain, requests=traced, edits=edits
    )
    _per_layer(result, values)
    # The daemon's own counters, kept beside the external spans for
    # comparison only (see NOTES.md for their known mislabels).
    summary["daemon_stats"] = stats
    run.trace_path.write_text(json.dumps(summary))
    result.notes.append("daemon stats: " + json.dumps(stats, sort_keys=True))


def daemon_edit(run: Run, result: Result) -> None:
    _daemon(run, result, edits=True)


def daemon_reanalyze(run: Run, result: Result) -> None:
    _daemon(run, result, edits=False)


# -- Table 1 ------------------------------------------------------------------


def table1(run: Run, result: Result) -> None:
    _fingerprint(run, result)
    env = child_env(run.work)
    args = ["--seed", str(run.seed), "--size", run.size]
    reference = inputs.TABLE2[: inputs.SIZES[run.size]["table1"]]

    def session(traced: bool) -> tuple[list[float], list[float], float]:
        """One Table 1 process: a warm-up over the first program, then
        the timed passes; their wall times, CPU times at the reference
        speed, and the peak RSS."""
        argv = _launch(run, "table1", args) if traced else [PYTHON, str(HERE / "table1_child.py"), *args]
        client = LineClient(argv, env, CHILD_BUDGET_S)
        walls, cpu, at_reference = [], [], []
        try:
            warm, _ = client.send("warmup")
            result.op(table2_problems(warm["counts"], reference[:1]))
            for _ in range(TABLE1_PASSES):
                start = perf_counter()
                answer, elapsed = client.send("pass")
                result.op(table2_problems(answer["counts"], reference))
                walls.append(elapsed)
                cpu.append(answer["cpu_s"])
                at_reference.append(SPEED.scaled(cpu[-1], start, perf_counter()))
        finally:
            client.close()
        _speed_note(run, result, cpu, at_reference)
        return walls, at_reference, client.peak_rss_mb

    if not run.trace:
        setup_s = import_seconds(["repro.cfront.sema", "repro.constinfer.engine"], env, SETUP_REPEATS)
        _, cpu, rss = session(False)
        _end_to_end(result, setup_s, cpu, rss)
        return
    _, plain, _ = session(False)
    walls, traced, _ = session(True)
    _per_layer(result, layers.per_layer([_load_summary(run)], len(traced), walls, traced, plain))


WORKLOADS: dict[str, Callable[[Run, Result], None]] = {
    "qlint-cold": qlint_cold,
    "whole-program": whole_program,
    "daemon-edit": daemon_edit,
    "daemon-reanalyze": daemon_reanalyze,
    "table1": table1,
}
