"""The flat-array (CSR) solver core against the object pipeline.

Three promises are enforced here:

* **agreement** — ``flat_solve`` produces the same per-variable extreme
  solutions, the same verdicts (including byte-identical unsat
  messages), and the same :class:`SolverStats` as ``solve`` and the
  same fixpoints as ``solve_reference``, on hypothesis-generated
  systems and on the benchmark shapes, through both kernels (numpy and
  the pure-stdlib fallback);
* **round trip** — serialise -> ``mmap`` -> wrap zero-copy -> solve is
  byte-identical to the in-memory solve, and re-serialising reproduces
  the original buffer bit for bit;
* **laziness** — a deserialised system rehydrates variable names and
  ``QualVar`` objects only on demand, and numpy/scipy load only when a
  solve reaches the fast kernel.
"""

import contextlib
import mmap
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.qual.flatcore as flatcore
from repro.qual.constraints import QualConstraint
from repro.qual.flatcore import FlatSystem, fast_available, flat_solve
from repro.qual.lattice import QualifierLattice, negative, positive
from repro.qual.qtypes import QualVar
from repro.qual.qualifiers import const_lattice
from repro.qual.solver import (
    IndexedSystem,
    UnsatisfiableError,
    solve,
    solve_reference,
)

_LATTICES = [
    QualifierLattice([positive("const")]),
    QualifierLattice([negative("nonzero")]),
    QualifierLattice([positive("const"), negative("nonzero")]),
]

_VARS = [QualVar(f"v{i}", 20_000_000 + i) for i in range(5)]


@st.composite
def constraint_systems(draw):
    lattice = draw(st.sampled_from(_LATTICES))
    elements = list(lattice.elements())
    n = draw(st.integers(min_value=0, max_value=8))
    constraints = []
    for _ in range(n):
        side = draw(st.integers(min_value=0, max_value=2))
        if side == 0:
            lhs = draw(st.sampled_from(_VARS))
            rhs = draw(st.sampled_from(_VARS))
        elif side == 1:
            lhs = draw(st.sampled_from(elements))
            rhs = draw(st.sampled_from(_VARS))
        else:
            lhs = draw(st.sampled_from(_VARS))
            rhs = draw(st.sampled_from(elements))
        constraints.append(QualConstraint(lhs, rhs))
    return lattice, constraints


def verdict(solve_fn, constraints, lattice, extra_vars=()):
    """('sat', fingerprint-with-stats) or ('unsat', full message)."""
    try:
        solution = solve_fn(constraints, lattice, extra_vars=extra_vars)
    except UnsatisfiableError as exc:
        return ("unsat", str(exc))
    fingerprint = {
        f"{v.name}#{v.uid}": (
            tuple(sorted(solution.least_of(v).present)),
            tuple(sorted(solution.greatest_of(v).present)),
        )
        for v in set(solution.least) | set(solution.greatest)
    }
    return ("sat", fingerprint, str(solution.stats) if solution.stats else None)


@given(constraint_systems())
@settings(max_examples=200, deadline=None)
def test_flat_solve_fingerprints_match_both_solvers(data):
    lattice, constraints = data
    flat = verdict(flat_solve, constraints, lattice, _VARS)
    pipeline = verdict(solve, constraints, lattice, _VARS)
    assert flat == pipeline
    reference = verdict(solve_reference, constraints, lattice, _VARS)
    # solve_reference carries no stats; fingerprints and verdicts agree.
    assert flat[:2] == reference[:2]


@contextlib.contextmanager
def stdlib_kernel():
    """Run the block as if numpy were missing: the lazy probe reports
    no fast kernel, and the previous probe state comes back after."""
    saved = (flatcore._FAST, flatcore._probed)
    flatcore._FAST, flatcore._probed = None, True
    try:
        yield
    finally:
        flatcore._FAST, flatcore._probed = saved


@given(constraint_systems())
@settings(max_examples=100, deadline=None)
def test_stdlib_kernel_matches_fast_kernel(data):
    lattice, constraints = data
    fast = verdict(flat_solve, constraints, lattice, _VARS)
    with stdlib_kernel():
        slow = verdict(flat_solve, constraints, lattice, _VARS)
    assert fast == slow


@given(constraint_systems())
@settings(max_examples=100, deadline=None)
def test_serialised_solve_matches_in_memory(data):
    lattice, constraints = data
    system = IndexedSystem(lattice)
    system.add_many(constraints)
    for v in _VARS:
        system.add_var(v)
    flat = FlatSystem.from_indexed(system)
    try:
        in_memory = flat.solve()
    except UnsatisfiableError:
        return
    revived = FlatSystem.from_buffer(flat.to_bytes())
    rerun = revived.solve()
    for v in _VARS:
        assert rerun.least_of(v) == in_memory.least_of(v)
        assert rerun.greatest_of(v) == in_memory.greatest_of(v)
    assert str(rerun.stats) == str(in_memory.stats)


def big_system(lattice, n=2000):
    """Large enough to cross the solver's fast-path threshold: a chain
    with embedded cycles, a lower bound, and an upper bound."""
    variables = [QualVar(f"b{i}", 30_000_000 + i) for i in range(n)]
    constraints = [
        QualConstraint(variables[i], variables[i + 1]) for i in range(n - 1)
    ]
    for i in range(0, n - 10, 97):
        constraints.append(QualConstraint(variables[i + 5], variables[i]))
    constraints.append(QualConstraint(lattice.atom("const"), variables[0]))
    constraints.append(QualConstraint(variables[-1], lattice.atom("const")))
    return variables, constraints


class TestFastPathParity:
    """The fast kernel inside ``IndexedSystem.solve`` against the object
    loops, on systems big enough to actually take it."""

    def test_values_and_stats_identical(self, monkeypatch):
        import repro.qual.solver as solver_mod

        lattice = const_lattice()
        variables, constraints = big_system(lattice)
        fast = solve(constraints, lattice)
        monkeypatch.setattr(solver_mod, "_FLAT_FAST_MIN", 10**9)
        slow = solve(constraints, lattice)
        # Without numpy (or under REPRO_FLATCORE=stdlib) the large-system
        # dispatch falls back to the object pipeline; the values/stats
        # parity checks below still hold, only the types coincide.
        if fast_available():
            assert type(fast).__name__ == "FlatSolution"
        assert type(slow).__name__ == "Solution"
        for v in variables:
            assert fast.least_of(v) == slow.least_of(v)
            assert fast.greatest_of(v) == slow.greatest_of(v)
        assert str(fast.stats) == str(slow.stats)
        assert fast.least == slow.least
        assert fast.greatest == slow.greatest

    def test_unsat_blame_identical(self, monkeypatch):
        import repro.qual.solver as solver_mod

        lattice = const_lattice()
        variables, constraints = big_system(lattice)
        constraints.append(QualConstraint(variables[0], lattice.element()))
        with pytest.raises(UnsatisfiableError) as fast:
            solve(constraints, lattice)
        monkeypatch.setattr(solver_mod, "_FLAT_FAST_MIN", 10**9)
        with pytest.raises(UnsatisfiableError) as slow:
            solve(constraints, lattice)
        assert str(fast.value) == str(slow.value)
        assert fast.value.explain() == slow.value.explain()


class TestLazyNumpy:
    """numpy and scipy load on the first fast-kernel solve, not on
    import: cold CLI runs below the dispatch threshold never pay for
    them."""

    @pytest.mark.parametrize("entry", ["repro.checker.cli", "repro.serve.cli"])
    def test_entry_points_do_not_import_numpy(self, entry):
        src = str(Path(flatcore.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            f"import sys, {entry}\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_large_system_still_runs_the_fast_kernel(self, monkeypatch):
        if not fast_available():
            pytest.skip("numpy/scipy not installed, or REPRO_FLATCORE=stdlib")
        calls = []
        kernel = flatcore._kernel_fast

        def counted(*args, **kwargs):
            calls.append(args[0])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(flatcore, "_kernel_fast", counted)
        lattice = const_lattice()
        variables, constraints = big_system(lattice)
        assert len(variables) + len(constraints) >= 1024
        solution = solve(constraints, lattice)
        assert calls == [len(variables)]
        assert type(solution).__name__ == "FlatSolution"


class TestRoundTrip:
    def flat_chain(self, with_solution=True):
        lattice = const_lattice()
        variables, constraints = big_system(lattice, n=300)
        system = IndexedSystem(lattice)
        system.add_many(constraints)
        flat = FlatSystem.from_indexed(system)
        if with_solution:
            flat.attach_solution()
        return lattice, variables, flat

    def test_serialise_is_deterministic_and_stable(self):
        _, _, flat = self.flat_chain()
        blob = flat.to_bytes()
        assert flat.to_bytes() == blob
        revived = FlatSystem.from_buffer(blob)
        revived.attach_solution()
        assert revived.to_bytes() == blob

    def test_mmap_solve_byte_identical_to_in_memory(self, tmp_path):
        _, variables, flat = self.flat_chain()
        in_memory = flat.stored_solution()
        path = tmp_path / "system.qfc"
        path.write_bytes(flat.to_bytes())
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            revived = FlatSystem.from_buffer(mapped)
            stored = revived.stored_solution()
            resolved = revived.solve()
            for v in variables:
                assert stored.least_of(v) == in_memory.least_of(v)
                assert resolved.least_of(v) == in_memory.least_of(v)
                assert stored.greatest_of(v) == in_memory.greatest_of(v)
                assert resolved.greatest_of(v) == in_memory.greatest_of(v)
            assert str(stored.stats) == str(in_memory.stats)
            assert str(resolved.stats) == str(in_memory.stats)

    def test_lattice_survives_serialisation(self):
        lattice = QualifierLattice([positive("const"), negative("nonzero")])
        system = IndexedSystem(lattice)
        system.add_many(
            [QualConstraint(lattice.element("const"), _VARS[0])]
        )
        revived = FlatSystem.from_buffer(FlatSystem.from_indexed(system).to_bytes())
        assert revived.lattice.signature() == lattice.signature()
        assert revived.lattice == lattice

    def test_truncated_buffers_raise_value_error(self):
        _, _, flat = self.flat_chain()
        blob = flat.to_bytes()
        for cut in (0, 3, flatcore._HEADER.size - 1, flatcore._HEADER.size + 7,
                    len(blob) // 2, len(blob) - 8):
            with pytest.raises((ValueError, struct.error)):
                FlatSystem.from_buffer(blob[:cut])

    def test_bad_magic_and_version_raise(self):
        _, _, flat = self.flat_chain()
        blob = bytearray(flat.to_bytes())
        with pytest.raises(ValueError, match="magic"):
            FlatSystem.from_buffer(b"NOPE" + bytes(blob[4:]))
        blob[4] = 0xFF
        with pytest.raises(ValueError, match="version"):
            FlatSystem.from_buffer(bytes(blob))

    def test_corrupt_name_table_raises(self):
        _, _, flat = self.flat_chain()
        good = flat.to_bytes()
        # Shrink the declared name-blob length without moving the table.
        header = list(flatcore._HEADER.unpack_from(good, 0))
        header[6] -= 1  # names_len
        bad = flatcore._HEADER.pack(*header) + good[flatcore._HEADER.size :]
        with pytest.raises(ValueError):
            FlatSystem.from_buffer(bad)


class TestLazyRehydration:
    def test_names_decoded_on_demand(self):
        lattice = const_lattice()
        system = IndexedSystem(lattice)
        system.add_many(
            [QualConstraint(_VARS[0], _VARS[1]), QualConstraint(_VARS[1], _VARS[2])]
        )
        revived = FlatSystem.from_buffer(FlatSystem.from_indexed(system).to_bytes())
        assert revived._name_cache == {} and revived._var_cache == {}
        var = revived.var(1)
        assert (var.name, var.uid) == (_VARS[1].name, _VARS[1].uid)
        assert set(revived._var_cache) == {1}
        assert revived.var(1) is var  # memoised

    def test_index_of_roundtrips_and_rejects_strangers(self):
        lattice = const_lattice()
        system = IndexedSystem(lattice)
        system.add_many([QualConstraint(_VARS[0], _VARS[1])])
        revived = FlatSystem.from_buffer(FlatSystem.from_indexed(system).to_bytes())
        assert revived.index_of(_VARS[0]) == 0
        assert revived.index_of(_VARS[1]) == 1
        assert revived.index_of(QualVar("stranger", 999_999_999)) is None
        # Same uid but a different name is not the same variable.
        assert revived.index_of(QualVar("impostor", _VARS[0].uid)) is None

    def test_solution_defaults_for_unknown_vars(self):
        lattice = const_lattice()
        solution = flat_solve([QualConstraint(_VARS[0], _VARS[1])], lattice)
        stranger = QualVar("stranger", 999_999_998)
        assert solution.least_of(stranger) == lattice.bottom
        assert solution.greatest_of(stranger) == lattice.top


def test_fits_flat_rejects_oversized_lattices():
    lattice = QualifierLattice([positive(f"q{i}") for i in range(63)])
    assert not flatcore.fits_flat(lattice)
    assert flatcore.fits_flat(const_lattice())


def test_benchmark_shapes_agree_end_to_end():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    try:
        from test_solver_bench import chain_system, cyclic_system, fanout_system
    finally:
        sys.path.pop(0)

    lattice = const_lattice()
    for _, constraints in (
        chain_system(lattice, 1500),
        fanout_system(lattice, 1500),
        cyclic_system(lattice, 1500),
    ):
        flat = verdict(flat_solve, constraints, lattice)
        pipeline = verdict(solve, constraints, lattice)
        assert flat == pipeline
