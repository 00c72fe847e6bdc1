"""Self-tests of the benchmark (not part of the tier-1 suite):

    python3 -m pytest perfbench -q

They run the workloads at ``--size tiny``, show that every output check
can fail, and check that a traced run leaves no wrapper behind.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import procs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _tiny(workload: str, tmp: Path, seconds: float = 0.5) -> workloads.Result:
    """Run ``workload`` in this process at tiny size."""
    result = workloads.Result()
    run = workloads.Run(workload, 1, seconds, False, tmp / "work", "tiny")
    workloads.WORKLOADS[workload](run, result)
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, done.stderr
    wanted = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in last["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())


def test_table2_off_by_one_fails(monkeypatch, tmp_path):
    name, lines, description, declared, *rest = inputs.TABLE2[0]
    wrong = ((name, lines, description, declared + 1, *rest), *inputs.TABLE2[1:])
    monkeypatch.setattr(inputs, "TABLE2", wrong)
    result = _tiny("table1", tmp_path)
    assert result.failed / result.attempted > 0
    assert any("Table 2" in p for p in result.problems)


def test_wrong_planted_findings_fail(monkeypatch, tmp_path):
    real = inputs.xtu_corpus

    def planted_wrong(seed, size="full"):
        files, expected = real(seed, size)
        first = sorted(expected)[0]
        return files, {**expected, first: expected[first] | {"use-after-free", "double-free"}}

    monkeypatch.setattr(inputs, "xtu_corpus", planted_wrong)
    result = _tiny("whole-program", tmp_path)
    assert result.failed / result.attempted > 0
    assert any("planted" in p for p in result.problems)


def test_unparseable_unit_fails_cold_qlint(monkeypatch, tmp_path):
    real = inputs.qlint_corpus
    monkeypatch.setattr(
        inputs, "qlint_corpus", lambda seed, size="full": {**real(seed, size), "broken.c": "int f( {\n"}
    )
    result = _tiny("qlint-cold", tmp_path)
    assert result.failed / result.attempted > 0
    assert any("qlint: error:" in p for p in result.problems)


def test_edit_that_changes_nothing_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(inputs, "edit_text", lambda base, op, rng: base)
    result = _tiny("daemon-edit", tmp_path)
    assert result.failed / result.attempted > 0
    assert any("cache misses, not 1" in p for p in result.problems)


@pytest.mark.parametrize("workload", ["daemon-edit", "daemon-reanalyze"])
def test_daemon_report_must_match_the_one_shot_report(workload, monkeypatch, tmp_path):
    real = workloads.run_once

    def tampered(argv, env, work):
        done = real(argv, env, work)
        if "repro.checker" in argv and "json" in argv:
            done.stdout += b" "
        return done

    monkeypatch.setattr(workloads, "run_once", tampered)
    result = _tiny(workload, tmp_path, seconds=0.1)
    assert any("one-shot CLI JSON report" in p for p in result.problems)
    if workload == "daemon-reanalyze":
        assert any("answered another report" in p for p in result.problems)


def test_fingerprint_mismatch_is_reported(monkeypatch, tmp_path):
    assert inputs.check_fingerprint("table1", 3) is None
    table = json.loads(inputs.FINGERPRINTS.read_text())
    table["table1"]["3"] = "0" * 16
    tampered = tmp_path / "fingerprints.json"
    tampered.write_text(json.dumps(table))
    monkeypatch.setattr(inputs, "FINGERPRINTS", tampered)
    assert "mismatch" in inputs.check_fingerprint("table1", 3)
    assert inputs.check_fingerprint("daemon-edit", 3) is None


@pytest.mark.parametrize("seed", [3, 103, 7003])
def test_a_changed_generator_makes_any_seed_incorrect(seed, monkeypatch, tmp_path):
    """Seeds outside the recorded range are checked through ``seed % 100``."""
    monkeypatch.setitem(inputs.GENERATORS, "cgen-corpus", lambda s: "f" * 16)
    result = workloads.Result()
    workloads._fingerprint(workloads.Run("qlint-cold", seed, 1, False, tmp_path), result)
    assert not result.correct
    assert "mismatch" in result.run_problems[0]


def test_cpu_time_is_restated_at_the_reference_speed():
    reference = procs.REFERENCE_CALIBRATION_S
    probe = procs.SpeedProbe()
    probe.samples = [(1.0, reference), (2.0, 2 * reference), (3.0, 2 * reference), (9.0, reference)]
    # Calibrations during the operation took twice as long as at the
    # reference speed: the CPU ran at half speed, so 1 s of CPU time is
    # 0.5 s at the reference speed.
    assert probe.scaled(1.0, 1.99, 3.0) == pytest.approx(0.5)
    # Half the time at full speed and half at half speed: the work of
    # 0.75 s at full speed.
    assert probe.scaled(1.0, 0.99, 2.0) == pytest.approx(0.75)
    with procs.SpeedProbe() as running:
        while not running.samples:
            time.sleep(0.01)
    assert running.samples[0][1] > 0


def _bindings():
    """Every module or class attribute that refers to a traced function."""
    originals = []
    for _layer, module, path, *_ in (*tracer.SPANS, *tracer.COUNTS):
        owner, attr, value = tracer._resolve(module, path)
        originals.append((owner, attr, value))
    targets = {id(value) for _o, _a, value in originals}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and module is not None:
            for attr, value in vars(module).items():
                if id(value) in targets:
                    originals.append((module, attr, value))
    return originals


def test_traced_run_restores_every_wrapped_function():
    from repro.cfront import cparser

    before = _bindings()
    original = cparser.parse_c
    trace = tracer.Tracer()
    records = tracer.install(trace)
    try:
        assert cparser.parse_c is not original
        cparser.parse_c("int f(int x) { return x; }\n", "t.c")
        assert trace.counts["cfront.cparser"]["calls"] == 1
        assert trace.counts["cfront.clexer"]["tokens"] > 0
    finally:
        tracer.restore(records)
    for owner, attr, value in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is value, f"{owner!r}.{attr} was not restored"


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "qlint-cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
