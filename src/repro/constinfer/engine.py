"""Monomorphic and polymorphic const-inference engines (Section 4.3–4.4).

Both engines share :class:`~repro.constinfer.analysis.ConstInference` for
constraint generation and differ only in how function signatures are
shared:

* **monomorphic** — every call site constrains the one shared signature,
  exactly C's type system;
* **polymorphic** — the function dependence graph's strongly connected
  components are traversed callees-first; each SCC is analysed
  monomorphically, then every member's signature is generalised over the
  qualifier variables created while analysing the SCC (Letv), so later
  call sites instantiate fresh copies (Var').  Global variable
  initialisers are analysed after the traversal, as the paper specifies.

The result carries the solved constraint system plus the classification
of every interesting const position, ready for the Section 4.4 counts.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..cfront.sema import Program
from ..gcscope import defer_full_collections
from ..qual.lattice import QualifierLattice
from ..qual.poly import generalize
from ..qual.qtypes import (
    QualVar,
    UidBand,
    advance_fresh_uids,
    fresh_uid_band,
    qual_vars,
)
from ..qual.solver import (
    Classification,
    IndexedSystem,
    Solution,
    UnsatisfiableError,
    solve,
)
from .analysis import ConstInference, ConstPosition
from .fdg import FunctionDependenceGraph


class ConstInferenceError(Exception):
    """The program's const constraints are unsatisfiable — a write through
    a cell that must be const.  Correct C programs never trigger this."""


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock breakdown of one inference run by pipeline stage.

    ``parse_seconds`` is recorded by whoever owns the source text (the
    benchmark suite, the CLI, or the analysis cache); the engines fill
    the rest.  ``from_cache`` marks a warm run whose parse and constraint
    generation were skipped entirely — only the solve was paid.
    """

    parse_seconds: float = 0.0
    congen_seconds: float = 0.0
    solve_seconds: float = 0.0
    generalize_seconds: float = 0.0
    from_cache: bool = False

    @property
    def total_seconds(self) -> float:
        return (
            self.parse_seconds
            + self.congen_seconds
            + self.solve_seconds
            + self.generalize_seconds
        )

    def summary(self) -> str:
        cached = " [cached]" if self.from_cache else ""
        return (
            f"parse {self.parse_seconds * 1000:.1f} ms, "
            f"congen {self.congen_seconds * 1000:.1f} ms, "
            f"solve {self.solve_seconds * 1000:.1f} ms, "
            f"generalize {self.generalize_seconds * 1000:.1f} ms{cached}"
        )


@dataclass
class InferenceRun:
    """Outcome of one engine run over a whole program."""

    mode: str  # "mono" or "poly"
    solution: Solution
    positions: list[ConstPosition]
    constraint_count: int
    elapsed_seconds: float
    inference: ConstInference | None = field(repr=False, default=None)
    timings: StageTimings | None = None

    def classify(self, position: ConstPosition) -> Classification:
        return self.solution.classify(position.var, "const")

    def classified_positions(
        self,
    ) -> list[tuple[ConstPosition, Classification]]:
        return [(p, self.classify(p)) for p in self.positions]

    # -- the Section 4.4 counts ----------------------------------------
    def declared_count(self) -> int:
        return sum(1 for p in self.positions if p.declared)

    def inferred_const_count(self) -> int:
        """Positions that must or may be const — the paper's (1) + (3),
        i.e. the Mono/Poly columns of Table 2."""
        return sum(
            1
            for p in self.positions
            if self.classify(p) is not Classification.MUST_NOT
        )

    def must_not_count(self) -> int:
        return sum(
            1 for p in self.positions if self.classify(p) is Classification.MUST_NOT
        )

    def either_count(self) -> int:
        return sum(
            1 for p in self.positions if self.classify(p) is Classification.EITHER
        )

    def total_positions(self) -> int:
        return len(self.positions)


@defer_full_collections
def run_mono(
    program: Program,
    lattice: QualifierLattice | None = None,
    **inference_options,
) -> InferenceRun:
    """Monomorphic const inference over a whole program.

    ``inference_options`` are forwarded to
    :class:`~repro.constinfer.analysis.ConstInference` (the Section 4.2
    ablation switches).
    """
    start = time.perf_counter()
    inference = ConstInference(program, lattice, **inference_options)
    _create_shared_cells(inference)

    # Signatures first (shared by every call site), prototypes included.
    for fdef in program.functions.values():
        inference.signature_for(fdef)

    for fdef in program.functions.values():
        inference.analyze_function(fdef)
    inference.analyze_global_initializers()

    congen_done = time.perf_counter()
    solution = _solve(inference)
    end = time.perf_counter()
    timings = StageTimings(
        congen_seconds=congen_done - start, solve_seconds=end - congen_done
    )
    return InferenceRun(
        "mono",
        solution,
        inference.positions,
        len(inference.constraints),
        end - start,
        inference,
        timings,
    )


#: Uid range reserved per SCC (and for the lazy shared-cell pool) in the
#: wavefront scheduler.  Deliberately generous: the largest suite
#: benchmark allocates tens of thousands of variables *in total*, so one
#: SCC can never exhaust 2**20 uids in practice; if one somehow does,
#: :class:`~repro.qual.qtypes.UidBandExhausted` aborts the run loudly
#: rather than silently colliding.
_UID_BAND_SIZE = 1 << 20


@defer_full_collections
def run_poly(
    program: Program,
    lattice: QualifierLattice | None = None,
    jobs: int | None = None,
    **inference_options,
) -> InferenceRun:
    """Polymorphic const inference: per-SCC generalisation (Section 4.3).

    ``jobs=None`` runs the classic sequential callees-first SCC
    traversal.  Any integer ``jobs >= 1`` selects the wavefront
    scheduler instead: SCCs at the same condensation depth are analysed
    concurrently by up to ``jobs`` worker threads, with banded variable
    allocation and a deterministic merge order making the result —
    positions, constraints, classifications, even variable names —
    bit-identical at every job count (``jobs=1`` runs the same schedule
    inline).

    ``inference_options`` are forwarded to
    :class:`~repro.constinfer.analysis.ConstInference`.
    """
    if jobs is not None:
        return _run_poly_wavefront(program, lattice, jobs, inference_options)

    start = time.perf_counter()
    inference = ConstInference(program, lattice, **inference_options)
    _create_shared_cells(inference)

    generalize_seconds = 0.0
    graph = FunctionDependenceGraph.build(program)
    for component in graph.sccs():
        # Variables created from here on are local to this SCC and are
        # candidates for quantification; anything older is "free in the
        # environment" (globals, struct fields, library signatures,
        # previously generalised functions).  Shared cells were all
        # pre-created above, so nothing monomorphic is captured.
        boundary = _uid_boundary()
        mark = len(inference.constraints)
        for name in component:
            inference.signature_for(program.functions[name])
        for name in component:
            inference.analyze_function(program.functions[name])
        local = inference.constraints[mark:]
        gen_start = time.perf_counter()
        for name in component:
            inference.schemes[name] = _generalize_component_member(
                inference, name, local, boundary
            )
        generalize_seconds += time.perf_counter() - gen_start

    inference.analyze_global_initializers()

    congen_done = time.perf_counter()
    solution = _solve(inference)
    end = time.perf_counter()
    timings = StageTimings(
        congen_seconds=congen_done - start - generalize_seconds,
        solve_seconds=end - congen_done,
        generalize_seconds=generalize_seconds,
    )
    return InferenceRun(
        "poly",
        solution,
        inference.positions,
        len(inference.constraints),
        end - start,
        inference,
        timings,
    )


def _generalize_component_member(
    inference: ConstInference,
    name: str,
    local: list,
    boundary: int,
):
    """Generalise one SCC member's signature over the variables created
    while analysing the SCC (uid > ``boundary``); older variables are
    free in the environment and stay monomorphic."""
    sig = inference.signatures[name]
    body = sig.fun_qtype
    involved = qual_vars(body)
    for c in local:
        for q in (c.lhs, c.rhs):
            if isinstance(q, QualVar):
                involved.add(q)
    env_vars = {v for v in involved if v.uid < boundary}
    return generalize(
        body, local, env_vars, lattice=inference.lattice, compress=True
    )


def _analyze_component(
    inference: ConstInference,
    program: Program,
    component: list[str],
    band_start: int,
) -> ConstInference:
    """Worker body for one SCC in a wavefront: generate the component's
    constraints into a local view, allocating every fresh variable from
    the component's reserved uid band so numbering is a pure function of
    the schedule, never of thread interleaving."""
    view = inference.local_view()
    with fresh_uid_band(band_start, _UID_BAND_SIZE):
        for name in component:
            view.signature_for(program.functions[name])
        for name in component:
            view.analyze_function(program.functions[name])
    return view


def _run_poly_wavefront(
    program: Program,
    lattice: QualifierLattice | None,
    jobs: int,
    inference_options: dict,
) -> InferenceRun:
    """Wavefront-parallel polymorphic inference.

    The FDG condensation is processed level by level (leaves first).
    Components within a level never reference each other — an FDG edge
    forces the callee's component strictly deeper — so their constraint
    generation commutes.  Determinism at any job count comes from three
    invariants:

    * every component draws fresh variables from a pre-assigned uid band
      (``level base + index * band``), so allocation is independent of
      which thread runs when;
    * shared cells created lazily mid-wavefront (rare: only cells the
      eager pre-creation pass cannot see) come from one low reserved
      band, below every level boundary, so the uid-watermark
      generalisation still treats them as environment;
    * views are merged and generalised serially, in the level's sorted
      component order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    inference = ConstInference(program, lattice, **inference_options)
    _create_shared_cells(inference)

    shared_base = _uid_boundary() + 1
    inference._shared_band = UidBand(shared_base, _UID_BAND_SIZE)
    advance_fresh_uids(shared_base + _UID_BAND_SIZE)

    graph = FunctionDependenceGraph.build(program)
    generalize_seconds = 0.0
    executor: ThreadPoolExecutor | None = None
    try:
        for level in graph.wavefronts():
            boundary = _uid_boundary()
            base = boundary + 1
            advance_fresh_uids(base + len(level) * _UID_BAND_SIZE)
            starts = [base + i * _UID_BAND_SIZE for i in range(len(level))]

            if jobs > 1 and len(level) > 1:
                if executor is None:
                    executor = ThreadPoolExecutor(
                        max_workers=jobs, thread_name_prefix="wavefront"
                    )
                views = list(
                    executor.map(
                        _analyze_component,
                        [inference] * len(level),
                        [program] * len(level),
                        level,
                        starts,
                    )
                )
            else:
                views = [
                    _analyze_component(inference, program, component, band_start)
                    for component, band_start in zip(level, starts)
                ]

            gen_start = time.perf_counter()
            for component, view in zip(level, views):
                inference.absorb(view)
                for name in component:
                    inference.schemes[name] = _generalize_component_member(
                        inference, name, view.constraints, boundary
                    )
            generalize_seconds += time.perf_counter() - gen_start
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
    inference._shared_band = None

    inference.analyze_global_initializers()

    congen_done = time.perf_counter()
    solution = _solve(inference)
    end = time.perf_counter()
    timings = StageTimings(
        congen_seconds=congen_done - start - generalize_seconds,
        solve_seconds=end - congen_done,
        generalize_seconds=generalize_seconds,
    )
    return InferenceRun(
        "poly",
        solution,
        inference.positions,
        len(inference.constraints),
        end - start,
        inference,
        timings,
    )


@defer_full_collections
def run_polyrec(
    program: Program,
    lattice: QualifierLattice | None = None,
    max_iterations: int = 8,
    **inference_options,
) -> InferenceRun:
    """Polymorphic-*recursive* const inference (Section 4.3's preferred
    design: "we would prefer to use polymorphic recursion rather than
    let-style polymorphism to avoid working with the FDG").

    No function dependence graph is computed.  Instead, every call —
    including recursive and mutually recursive ones — instantiates the
    callee's scheme from the *previous* fixpoint iteration (initially
    the fully unconstrained scheme), and iteration repeats until every
    function's signature summary (the least/greatest solution of each
    signature qualifier position) stabilises.  Because the qualifier
    lattice is finite and qualifiers do not change the type structure,
    this is decidable and converges quickly, exactly as the paper
    observes; ``max_iterations`` is a safety cap.

    Shared monomorphic state (globals, struct fields, library
    signatures) is created once and survives all iterations; per-
    function state is rolled back between rounds.
    """
    start = time.perf_counter()
    inference = ConstInference(program, lattice, **inference_options)
    _create_shared_cells(inference)
    boundary = _uid_boundary()
    base_constraints = len(inference.constraints)
    library_sigs = dict(inference.signatures)

    # The shared monomorphic prefix (globals, struct fields, library
    # signatures) is identical in every fixpoint round: categorise and
    # dedupe it into an indexed system once, then fork a cheap copy per
    # round instead of re-solving the whole accumulated list from scratch.
    base_system = IndexedSystem(inference.lattice)
    base_system.add_many(inference.constraints[:base_constraints])

    previous_summary: dict[str, tuple] | None = None
    assumptions: dict[str, "object"] = {}

    for _round in range(max_iterations):
        # roll back per-function state
        inference.constraints[base_constraints:] = []
        inference.positions.clear()
        inference.signatures = dict(library_sigs)
        inference.schemes = dict(assumptions)

        for fdef in program.functions.values():
            inference.signature_for(fdef)
        # NOTE: function_value prefers schemes, so every call to a
        # defined function instantiates its assumed scheme — recursion
        # included.  (On the first round there are no assumptions yet
        # and calls share the round's signatures, which only makes the
        # first summary more conservative, never unsound.)
        for fdef in program.functions.values():
            inference.analyze_function(fdef)
        inference.analyze_global_initializers()

        solution = _solve_incremental(base_system, inference, base_constraints)
        summary = _signature_summary(inference, solution)
        if summary == previous_summary:
            break
        previous_summary = summary

        # generalise fresh assumptions for the next round
        local = inference.constraints[base_constraints:]
        assumptions = {}
        for name in program.functions:
            sig = inference.signatures[name]
            involved = qual_vars(sig.fun_qtype)
            for c in local:
                for q in (c.lhs, c.rhs):
                    if isinstance(q, QualVar):
                        involved.add(q)
            env_vars = {v for v in involved if v.uid < boundary}
            assumptions[name] = generalize(
                sig.fun_qtype, local, env_vars, lattice=inference.lattice, compress=True
            )
    else:
        solution = _solve_incremental(base_system, inference, base_constraints)

    elapsed = time.perf_counter() - start
    return InferenceRun(
        "polyrec",
        solution,
        inference.positions,
        len(inference.constraints),
        elapsed,
        inference,
    )


def _signature_summary(inference: ConstInference, solution: Solution):
    """Per function, the (least, greatest) bounds of every qualifier
    position in its signature, in deterministic structural order — the
    fixpoint-comparison key for :func:`run_polyrec`."""
    from ..qual.qtypes import quals_of

    out: dict[str, tuple] = {}
    for name, sig in inference.signatures.items():
        bounds = []
        for qual in quals_of(sig.fun_qtype):
            if isinstance(qual, QualVar):
                bounds.append(
                    (solution.least_of(qual).present, solution.greatest_of(qual).present)
                )
            else:
                bounds.append((qual.present, qual.present))
        out[name] = tuple(bounds)
    return out


def _create_shared_cells(inference: ConstInference) -> None:
    """Pre-create every monomorphic shared cell — globals, struct fields,
    and library-function signatures — so the polymorphic engine's
    uid-watermark never mistakes them for SCC-local variables."""
    program = inference.program
    for name in program.globals:
        inference.global_cell(name)
    for tag, struct in program.structs.items():
        for field_decl in struct.fields:
            inference.field_cell(tag, field_decl.name)
    for proto in program.prototypes.values():
        if proto.name not in program.functions:
            inference.prototype_signature(proto)


def _uid_boundary() -> int:
    """Current fresh-variable watermark: variables allocated after this
    call have strictly larger uids."""
    from ..qual.qtypes import fresh_qual_var

    return fresh_qual_var("boundary").uid


def _wrap_unsat(exc: UnsatisfiableError) -> ConstInferenceError:
    """Carry the solver's source-to-sink witness path into the message;
    the one-line summary alone names only the endpoints."""
    message = str(exc)
    if exc.path:
        message = f"{message}\n{exc.explain()}"
    return ConstInferenceError(message)


def _solve(inference: ConstInference) -> Solution:
    extra = [p.var for p in inference.positions]
    try:
        return solve(inference.constraints, inference.lattice, extra_vars=extra)
    except UnsatisfiableError as exc:
        raise _wrap_unsat(exc) from exc


def _solve_incremental(
    base_system: IndexedSystem, inference: ConstInference, base_constraints: int
) -> Solution:
    """Solve the current round's system by forking the pre-indexed shared
    prefix and adding only the constraints generated after it."""
    system = base_system.fork()
    system.add_many(inference.constraints[base_constraints:])
    try:
        return system.solve(extra_vars=[p.var for p in inference.positions])
    except UnsatisfiableError as exc:
        raise _wrap_unsat(exc) from exc
