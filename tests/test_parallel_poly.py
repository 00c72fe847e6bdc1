"""Determinism of the polymorphic engine (repeat runs and hash-seed
independence), the uid-band machinery the whole-program engine numbers
its variables with, and the suite's process pool."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cfront.sema import Program
from repro.constinfer.engine import run_poly
from repro.qual import qtypes
from repro.qual.qtypes import (
    UidBand,
    UidBandExhausted,
    fresh_qual_var,
    use_uid_band,
)

SOURCE = """
int *shared;
struct node { int *payload; };
int leaf_a(int *p) { return *p; }
int leaf_b(const char *s) { return s ? 1 : 0; }
int pong(int n);
int ping(int n) { return n ? pong(n - 1) : leaf_a(shared); }
int pong(int n) { return ping(n); }
void store(struct node *n, int *v) { n->payload = v; }
int top(struct node *n) { store(n, shared); return ping(3) + leaf_b("x"); }
"""


@pytest.fixture
def program():
    return Program.from_source(SOURCE)


def pinned_run(program):
    """Run poly inference from a fixed uid base so variable numbering
    can be compared byte-for-byte between runs."""
    saved = qtypes._fresh_counter
    qtypes._fresh_counter = itertools.count(1 << 40)
    try:
        return run_poly(program)
    finally:
        qtypes._fresh_counter = saved


def full_snapshot(run):
    """Everything observable: positions (with variable names), every
    constraint's repr, and every classification."""
    return (
        [(str(p.var), p.function, p.where, p.depth, p.declared) for p in run.positions],
        [repr(c) for c in run.inference.constraints],
        [run.classify(p).name for p in run.positions],
    )


def snapshot_digest(run):
    return hashlib.sha256(repr(full_snapshot(run)).encode()).hexdigest()


class TestUidBands:
    def test_band_allocates_contiguously(self):
        band = UidBand(100, 10)
        assert [band.take() for _ in range(3)] == [100, 101, 102]

    def test_band_exhaustion_raises(self):
        band = UidBand(0, 2)
        band.take()
        band.take()
        with pytest.raises(UidBandExhausted):
            band.take()

    def test_fresh_uid_band_scopes_allocation(self):
        with use_uid_band(UidBand(1 << 50, 16)):
            v = fresh_qual_var("k")
            assert v.uid == 1 << 50
        outside = fresh_qual_var("k")
        assert outside.uid != (1 << 50) + 1

    def test_bands_nest_and_restore(self):
        with use_uid_band(UidBand(1 << 51, 16)):
            with use_uid_band(UidBand(1 << 52, 16)):
                assert fresh_qual_var().uid == 1 << 52
            assert fresh_qual_var().uid == 1 << 51


#: Prints the pinned ``run_poly`` snapshot digest of SOURCE and of the
#: smallest Table 1 program, one per line.
_DIGEST_SCRIPT = """
from repro.benchsuite.suite import PAPER_BENCHMARKS, load_program
from repro.cfront.sema import Program
from test_parallel_poly import SOURCE, pinned_run, snapshot_digest

print(snapshot_digest(pinned_run(Program.from_source(SOURCE))))
smallest, _, _ = load_program(PAPER_BENCHMARKS[0])
print(snapshot_digest(pinned_run(smallest)))
"""


class TestPolyDeterminism:
    def test_repeat_runs_identical(self, program):
        first = pinned_run(program)
        second = pinned_run(program)
        assert full_snapshot(first) == full_snapshot(second)

    def test_timings_populated(self, program):
        run = run_poly(program)
        assert run.timings is not None
        assert run.timings.congen_seconds >= 0
        assert run.timings.solve_seconds > 0
        assert not run.timings.from_cache

    def test_output_independent_of_hash_seed(self):
        """Set and dict iteration over strings follows PYTHONHASHSEED;
        nothing observable in a poly run may."""
        here = Path(__file__).resolve().parent
        src = here.parent / "src"

        def digests(seed: str) -> list[str]:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join([str(src), str(here)])
            out = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.split()
            assert len(out) == 2
            return out

        # Three seeds: two may order a small set the same way by chance.
        first, *others = [digests(seed) for seed in ("1", "2", "3")]
        assert all(other == first for other in others)


class TestSuiteParallelism:
    def test_process_pool_rows_match_serial(self):
        from repro.benchsuite.suite import benchmark_rows, scaling_specs

        specs = scaling_specs((1, 2))
        serial = benchmark_rows(specs)
        pooled = benchmark_rows(specs, jobs=2)
        key = lambda r: (r.name, r.declared, r.mono, r.poly, r.total_possible)
        assert [key(r) for r in serial] == [key(r) for r in pooled]

    def test_pool_preserves_spec_order(self):
        from repro.benchsuite.suite import benchmark_rows, scaling_specs

        specs = scaling_specs((2, 1))
        rows = benchmark_rows(specs, jobs=2)
        assert [r.name for r in rows] == ["sweep-2", "sweep-1"]
