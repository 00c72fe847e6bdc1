"""Flat-array (CSR) solver core with zero-copy serialisation.

The condensation pipeline of :mod:`repro.qual.solver` is already
algorithmically linear, but its state is a Python-object graph:
``QualVar`` keys in dicts, ``QualConstraint`` witnesses per edge,
per-solve adjacency lists of lists.  On a 10k-constraint chain the
solver spends most of its time allocating and hashing those objects —
and a warm cache start spends even longer *unpickling* them.

This module rebuilds the atomic system as flat integer arrays:

* ``uids[i]``          — variable uid per dense index ``i``;
* ``indptr``/``indices`` — the deduplicated variable/variable edge set
  in CSR form, rows sorted, ``indices[indptr[u]:indptr[u+1]]`` the
  successors of ``u`` in ascending order;
* ``lower[i]``/``upper[i]`` — folded constant bounds as lattice
  bitmasks (:mod:`repro.qual.lattice`'s integer kernel);
* ``name_offsets``/``names_blob`` — variable names as one UTF-8 blob
  with a CSR-style offset table, decoded **lazily** per index so a warm
  start only pays for the names diagnostics actually touch.

Condensation and the two topological propagation passes run as loops
over those arrays.  Two kernels implement the same pipeline:

* a **fast path** (:func:`fast_available`) using numpy +
  ``scipy.sparse.csgraph``, imported by the first solve that reaches
  the kernel dispatch rather than when this module loads (a cold CLI
  run whose systems all stay below the solver's dispatch threshold
  never pays for them): C-compiled Tarjan for the condensation,
  vectorised bound folding, and — the trick that removes the last
  Python-per-edge loop — bound propagation as multi-source
  *reachability*.  On the condensation DAG the final least value of a
  component is the join of the initial masks of every component that
  reaches it, and a join of masks decomposes into ``(OR & pos) |
  (AND & neg)``; with only a handful of distinct initial masks (a
  product lattice has few), one unweighted C ``dijkstra`` sweep per
  distinct mask computes the whole fixpoint.  The greatest solution is
  the dual meet over the transposed DAG.  A Python topological loop
  over the deduplicated DAG edges remains as the in-kernel fallback
  when a pathological system has too many distinct masks;
* a **stdlib path** on ``array('q')``/``memoryview`` buffers with the
  same iterative Tarjan the object solver uses, so environments without
  numpy (one CI matrix leg runs this way) get identical answers.

Both kernels compute the identical unique fixpoints as
:meth:`repro.qual.solver.IndexedSystem.solve` and
:func:`repro.qual.solver.solve_reference` — including identical
:class:`~repro.qual.solver.SolverStats` (``propagation_steps`` counts
an edge relaxation exactly when the object pipeline would have, i.e.
when the propagating component's final mask is non-extremal); the
testkit's ``flatcore`` oracle family and the hypothesis properties in
``tests/test_flatcore.py`` enforce that byte-for-byte.

Serialisation (:meth:`FlatSystem.to_bytes` /
:meth:`FlatSystem.from_buffer`) is a versioned binary section — a
struct header followed by the raw little-endian ``int64`` buffers — so
the analysis cache can ``mmap`` an entry and wrap the arrays zero-copy
(``memoryview.cast``) instead of unpickling an
object graph.  The solved least/greatest masks may be appended as an
optional section: the fixpoints are unique, so persisting them is the
same memoisation discipline the cache already applies to parsing and
constraint generation, and re-solving the mmapped system reproduces
them exactly (round-trip tested).

Layout (offsets 8-aligned, all integers little-endian)::

    header   "<4sHH13Q"  magic b"QFC2", version, flags,
                         n, m, lat_len, names_len,
                         constraints, edges_before, ground_checks,
                         constant_bounds, sccs, collapsed_sccs,
                         largest_scc, dag_edges, propagation_steps
    lattice  lat_len     qualifier signature (see
                         QualifierLattice.signature), padded to 8
    uids     n   * i64
    indptr   (n+1) * i64
    indices  m   * i64
    lower    n   * i64
    upper    n   * i64
    nameoff  (n+1) * i64
    names    names_len bytes, padded to 8
    sol_low  n * i64     (only when flags & FLAG_SOLUTION)
    sol_high n * i64     (only when flags & FLAG_SOLUTION)

The five SCC/DAG header counts are zero unless a solution section is
present (they describe the recorded solve).
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import Iterable, Sequence

from .constraints import Origin, QualConstraint
from .lattice import LatticeElement, QualifierLattice
from .qtypes import QualVar
from .solver import (
    IndexedSystem,
    Solution,
    SolverStats,
    UnsatisfiableError,
)

__all__ = [
    "FlatSystem",
    "FlatSolution",
    "fast_available",
    "fits_flat",
    "flat_solve",
    "solve_indexed",
]

_MAGIC = b"QFC2"
_VERSION = 1
_HEADER = struct.Struct("<4sHH13Q")

#: A solved least/greatest section follows the system buffers.
FLAG_SOLUTION = 1
#: Variable uids are not unique (pathological hand-built systems);
#: rehydrated lookups must key on (uid, name) instead of uid alone.
FLAG_DUP_UIDS = 2

#: Above this many distinct initial component masks per direction the
#: reachability formulation stops paying (one dijkstra sweep per mask)
#: and the kernel falls back to its Python topological loop.
_REACH_MAX_MASKS = 8


def _probe_fast():
    """numpy + scipy.sparse.csgraph, or ``None`` (stdlib kernel only).

    ``REPRO_FLATCORE=stdlib`` forces the stdlib path even when numpy is
    importable, so the fallback kernel is testable on full installs.
    """
    if os.environ.get("REPRO_FLATCORE", "").lower() in {"stdlib", "slow", "off"}:
        return None
    try:
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components, dijkstra
    except Exception:
        return None
    return (np, csr_matrix, connected_components, dijkstra)


#: ``(numpy, csr_matrix, connected_components, dijkstra)`` once
#: :func:`_fast` has probed them, else ``None``.  Only the kernel
#: dispatch reads it: the serialiser, :meth:`FlatSystem.from_indexed`
#: and :meth:`FlatSystem.from_buffer` always build stdlib buffers, which
#: the fast kernel wraps with ``np.asarray`` when it runs.
_FAST = None
_probed = False


def _fast():
    """The fast kernel's modules, probed (and imported) on first use."""
    global _FAST, _probed
    if not _probed:
        _FAST = _probe_fast()
        _probed = True
    return _FAST


def fast_available() -> bool:
    """Whether the numpy/scipy kernel is active; the first call imports
    numpy and scipy when they are installed."""
    return _fast() is not None


def fits_flat(lattice: QualifierLattice) -> bool:
    """Whether the lattice's bitmasks fit the signed-64-bit buffers."""
    return lattice._full_mask.bit_length() <= 62


# ---------------------------------------------------------------------------
# int64 buffer helpers (shared by both kernels and the serialiser)
# ---------------------------------------------------------------------------


def _i64_bytes(seq) -> bytes:
    """Little-endian int64 bytes of any int sequence, including the
    numpy arrays the fast kernel returns."""
    astype = getattr(seq, "astype", None)
    if astype is not None:
        return astype("<i8", copy=False).tobytes()
    if isinstance(seq, array) and seq.typecode == "q":
        buf = seq
    else:
        buf = array("q", seq)
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        buf = array("q", buf)
        buf.byteswap()
    return buf.tobytes()


def _wrap_i64(view: memoryview, offset: int, count: int):
    """Zero-copy int64 window over ``view``: a cast memoryview
    (big-endian hosts copy)."""
    end = offset + count * 8
    if end > len(view):
        raise ValueError(
            f"flat section overruns buffer: need {end} bytes, have {len(view)}"
        )
    window = view[offset:end]
    if sys.byteorder == "little":
        return window.cast("q")
    out = array("q")  # pragma: no cover - exotic hosts
    out.frombytes(window.tobytes())
    out.byteswap()
    return out


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


def _csr_from_edges(n: int, edge_u: Sequence[int], edge_v: Sequence[int]):
    """Row-sorted CSR (stdlib lists) from parallel edge lists."""
    pairs = sorted(zip(edge_u, edge_v))
    indptr = [0] * (n + 1)
    for u, _ in pairs:
        indptr[u + 1] += 1
    for i in range(n):
        indptr[i + 1] += indptr[i]
    indices = [v for _, v in pairs]
    return indptr, indices


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class _KernelResult:
    """Per-variable extreme masks plus pipeline-shape counters."""

    __slots__ = (
        "low",
        "high",
        "sccs",
        "collapsed",
        "largest",
        "dag_edges",
        "steps",
        "violation",
    )

    def __init__(self, low, high, sccs, collapsed, largest, dag_edges, steps, violation):
        self.low = low
        self.high = high
        self.sccs = sccs
        self.collapsed = collapsed
        self.largest = largest
        self.dag_edges = dag_edges
        self.steps = steps
        #: Lowest variable index whose forced lower bound exceeds its
        #: forced upper bound, or -1 when the system is satisfiable —
        #: the same variable IndexedSystem.solve blames first.
        self.violation = violation


def _dag_propagate_fast(ncomp, psrc, pdst, init, identity, pos, neg, joinlike):
    """Propagate initial component masks along the deduplicated DAG
    edges ``psrc -> pdst`` (already oriented in the direction values
    flow), returning the final per-component masks.

    Few distinct masks: one unweighted multi-source dijkstra per
    distinct mask gives its reachable set; folding ``(OR & pos) |
    (AND & neg)`` (join) or the dual (meet) over those sets *is* the
    fixpoint.  Many distinct masks: a Python loop over the edges in
    topological order (descending source label for joins — labels are
    reverse-topological — ascending for meets).
    """
    np, csr_matrix, _cc, dijkstra = _FAST
    masks = np.unique(init)
    masks = masks[masks != identity]
    if len(masks) <= _REACH_MAX_MASKS:
        graph = csr_matrix(
            (np.ones(len(psrc), dtype=np.int8), (psrc, pdst)), shape=(ncomp, ncomp)
        )
        or_acc = np.zeros(ncomp, dtype=np.int64)
        and_acc = np.full(ncomp, -1, dtype=np.int64)
        for mask in masks.tolist():
            sources = np.nonzero(init == mask)[0]
            dist = dijkstra(
                graph,
                directed=True,
                indices=sources,
                min_only=True,
                unweighted=True,
            )
            reached = np.isfinite(dist)
            or_acc[reached] |= mask
            and_acc[reached] &= mask
        if joinlike:
            return (or_acc & pos) | (and_acc & neg)
        return (and_acc & pos) | (or_acc & neg)

    order = np.argsort(psrc, kind="stable")
    src_list = psrc[order].tolist()
    dst_list = pdst[order].tolist()
    values = init.tolist()
    indexes = range(len(src_list) - 1, -1, -1) if joinlike else range(len(src_list))
    for k in indexes:
        a = values[src_list[k]]
        if a == identity:
            continue
        d = dst_list[k]
        b = values[d]
        if joinlike:
            merged = ((a | b) & pos) | (a & b & neg)
        else:
            merged = (a & b & pos) | ((a | b) & neg)
        if merged != b:
            values[d] = merged
    return np.array(values, dtype=np.int64)


def _kernel_fast(
    n: int,
    eu,
    ev,
    low_idx,
    low_masks,
    up_idx,
    up_masks,
    lattice: QualifierLattice,
    csr: tuple | None = None,
):
    """numpy/scipy condensation pipeline; ``None`` if the scipy label
    order ever stops being reverse-topological (never observed — the
    caller then falls back to the stdlib Tarjan)."""
    np, csr_matrix, connected_components, _dijkstra = _FAST
    pos = lattice._pos_mask
    neg = lattice._neg_mask
    bottom = neg
    top = pos
    m = len(ev)

    if m:
        if csr is not None:
            indptr, indices = csr
            graph = csr_matrix(
                (np.ones(m, dtype=np.int8), indices, indptr), shape=(n, n)
            )
        else:
            graph = csr_matrix(
                (np.ones(m, dtype=np.int8), (eu, ev)), shape=(n, n)
            )
        ncomp, labels = connected_components(
            graph, directed=True, connection="strong", return_labels=True
        )
        ncomp = int(ncomp)
        labels = labels.astype(np.int64, copy=False)
    else:
        ncomp = n
        labels = np.arange(n, dtype=np.int64)

    # Fold the sparse constant bounds into per-component masks.  A join
    # over masks decomposes into (OR & pos) | (AND & neg) and a meet
    # into (AND & pos) | (OR & neg), so the folds vectorise as scattered
    # bitwise reductions; components with no bound land on bottom/top.
    comp_low = np.full(ncomp, bottom, dtype=np.int64)
    have_lower = low_idx is not None and len(low_idx) > 0
    if have_lower:
        lab = labels[low_idx]
        or_acc = np.zeros(ncomp, dtype=np.int64)
        np.bitwise_or.at(or_acc, lab, low_masks)
        and_acc = np.full(ncomp, -1, dtype=np.int64)
        np.bitwise_and.at(and_acc, lab, low_masks)
        comp_low = (or_acc & pos) | (and_acc & neg)

    comp_high = np.full(ncomp, top, dtype=np.int64)
    have_upper = up_idx is not None and len(up_idx) > 0
    if have_upper:
        lab = labels[up_idx]
        and_acc = np.full(ncomp, -1, dtype=np.int64)
        np.bitwise_and.at(and_acc, lab, up_masks)
        or_acc = np.zeros(ncomp, dtype=np.int64)
        np.bitwise_or.at(or_acc, lab, up_masks)
        comp_high = (and_acc & pos) | (or_acc & neg)

    # Condensation DAG: deduplicated inter-component edges.  scipy's
    # strong labels satisfy label(u) > label(v) along every
    # inter-component edge (reverse-topological completion order, the
    # same invariant our Tarjan produces); this is verified, not
    # assumed, with the stdlib kernel as the fallback.
    dag_edges = 0
    dcu = dcv = None
    if m:
        lu = labels[eu]
        lv = labels[ev]
        keep = lu != lv
        if bool(keep.any()):
            ku = lu[keep]
            kv = lv[keep]
            if not bool((ku > kv).all()):
                return None
            codes = np.unique(ku * np.int64(ncomp) + kv)
            dag_edges = len(codes)
            dcu = codes // ncomp
            dcv = codes - dcu * ncomp

    # Propagate and count relaxations.  In topological processing order
    # every component's mask is final before it propagates, so the
    # object pipeline's step counter — one step per deduplicated DAG
    # edge whose propagating component is non-extremal at visit time —
    # equals a count over *final* masks, which vectorises.
    steps = 0
    if dag_edges and have_lower and not bool((comp_low == bottom).all()):
        comp_low = _dag_propagate_fast(
            ncomp, dcu, dcv, comp_low, bottom, pos, neg, joinlike=True
        )
        steps += int((comp_low[dcu] != bottom).sum())
    if dag_edges and have_upper and not bool((comp_high == top).all()):
        comp_high = _dag_propagate_fast(
            ncomp, dcv, dcu, comp_high, top, pos, neg, joinlike=False
        )
        steps += int((comp_high[dcv] != top).sum())

    low = comp_low[labels]
    high = comp_high[labels]
    viol = (low & ~high & pos) | (high & ~low & neg)
    nz = np.nonzero(viol)[0]
    violation = int(nz[0]) if len(nz) else -1

    sizes = np.bincount(labels, minlength=ncomp) if n else np.zeros(0, dtype=np.int64)
    collapsed = int((sizes > 1).sum()) if n else 0
    largest = int(sizes.max()) if n else 0
    return _KernelResult(low, high, ncomp, collapsed, largest, dag_edges, steps, violation)


def _kernel_slow(
    n: int,
    indptr: Sequence[int],
    indices: Sequence[int],
    low_items: Iterable[tuple[int, int]],
    up_items: Iterable[tuple[int, int]],
    lattice: QualifierLattice,
) -> _KernelResult:
    """Pure-stdlib kernel: iterative Tarjan over the CSR arrays, then the
    same deduplicated-DAG propagation passes as the fast path."""
    pos = lattice._pos_mask
    neg = lattice._neg_mask
    bottom = neg
    top = pos

    comp = _tarjan_csr(n, indptr, indices)
    ncomp = (max(comp) + 1) if n else 0
    sizes = [0] * ncomp
    for c in comp:
        sizes[c] += 1

    comp_low = [bottom] * ncomp
    have_lower = False
    for i, mask in low_items:
        have_lower = True
        ci = comp[i]
        a = comp_low[ci]
        comp_low[ci] = ((a | mask) & pos) | (a & mask & neg)

    comp_high = [top] * ncomp
    have_upper = False
    for i, mask in up_items:
        have_upper = True
        ci = comp[i]
        a = comp_high[ci]
        comp_high[ci] = (a & mask & pos) | ((a | mask) & neg)

    pairs: set[tuple[int, int]] = set()
    for u in range(n):
        cu = comp[u]
        for k in range(indptr[u], indptr[u + 1]):
            cv = comp[indices[k]]
            if cu != cv:
                pairs.add((cu, cv))
    dag = sorted(pairs)
    dag_edges = len(dag)

    steps = 0
    if dag and have_lower:
        for k in range(dag_edges - 1, -1, -1):
            u, v = dag[k]
            a = comp_low[u]
            if a == bottom:
                continue
            steps += 1
            b = comp_low[v]
            merged = ((a | b) & pos) | (a & b & neg)
            if merged != b:
                comp_low[v] = merged

    if dag and have_upper:
        for u, v in sorted(pairs, key=lambda p: (p[1], p[0])):
            a = comp_high[v]
            if a == top:
                continue
            steps += 1
            b = comp_high[u]
            merged = (a & b & pos) | ((a | b) & neg)
            if merged != b:
                comp_high[u] = merged

    low = [comp_low[comp[i]] for i in range(n)]
    high = [comp_high[comp[i]] for i in range(n)]
    violation = -1
    for i in range(n):
        a, b = low[i], high[i]
        if (a & ~b & pos) | (b & ~a & neg):
            violation = i
            break

    collapsed = sum(1 for s in sizes if s > 1)
    largest = max(sizes, default=0)
    return _KernelResult(low, high, ncomp, collapsed, largest, dag_edges, steps, violation)


def _tarjan_csr(n: int, indptr: Sequence[int], indices: Sequence[int]) -> list[int]:
    """Iterative Tarjan over CSR arrays; component ids in completion
    order (every inter-component edge goes from a higher id to a lower
    one, the invariant both propagation passes rely on)."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    comp = [-1] * n
    ncomp = 0
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work: list[list[int]] = [[root, indptr[root]]]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while work:
            frame = work[-1]
            v, pi = frame
            descended = False
            end = indptr[v + 1]
            while pi < end:
                w = indices[pi]
                pi += 1
                if index_of[w] == -1:
                    frame[1] = pi
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append([w, indptr[w]])
                    descended = True
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index_of[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


# ---------------------------------------------------------------------------
# The flat system
# ---------------------------------------------------------------------------


class _LiveIndex:
    """Variable index over a live :class:`IndexedSystem` snapshot — the
    no-rehydration counterpart of :class:`FlatSystem` for solutions of
    in-memory solves (the variable objects already exist)."""

    __slots__ = ("n", "_vars", "_var_index")

    def __init__(self, vars_: list[QualVar], var_index: dict[QualVar, int]):
        self.n = len(vars_)
        self._vars = vars_
        self._var_index = var_index

    def var(self, i: int) -> QualVar:
        return self._vars[i]

    def index_of(self, var: QualVar) -> int | None:
        return self._var_index.get(var)


def _stats_from(counts, n: int, m: int, result: _KernelResult) -> SolverStats:
    constraints, edges_before, ground_checks, constant_bounds = counts
    return SolverStats(
        variables=n,
        constraints=constraints,
        ground_checks=ground_checks,
        constant_bounds=constant_bounds,
        edges_before=edges_before,
        edges_after=m,
        sccs=result.sccs,
        collapsed_sccs=result.collapsed,
        largest_scc=result.largest,
        dag_edges=result.dag_edges,
        propagation_steps=result.steps,
    )


class FlatSystem:
    """An atomic constraint system as flat int64 buffers (see module
    docstring for the exact layout).

    Built either from a live :class:`~repro.qual.solver.IndexedSystem`
    (:meth:`from_indexed` — variable objects retained, no rehydration
    needed) or zero-copy over a serialised buffer
    (:meth:`from_buffer` — variables rehydrated lazily on demand).
    """

    __slots__ = (
        "lattice",
        "n",
        "m",
        "uids",
        "indptr",
        "indices",
        "lower",
        "upper",
        "name_offsets",
        "names_blob",
        "counts",
        "sol_low",
        "sol_high",
        "sol_stats",
        "dup_uids",
        "_vars",
        "_buf",
        "_name_cache",
        "_var_cache",
        "_uid_index",
    )

    def __init__(
        self,
        lattice: QualifierLattice,
        uids,
        indptr,
        indices,
        lower,
        upper,
        name_offsets,
        names_blob,
        counts: tuple[int, int, int, int],
        *,
        vars_: list[QualVar] | None = None,
        dup_uids: bool = False,
        buf=None,
    ) -> None:
        self.lattice = lattice
        self.n = len(uids)
        self.m = len(indices)
        self.uids = uids
        self.indptr = indptr
        self.indices = indices
        self.lower = lower
        self.upper = upper
        self.name_offsets = name_offsets
        self.names_blob = names_blob
        #: (constraints, edges_before, ground_checks, constant_bounds)
        self.counts = counts
        self.sol_low = None
        self.sol_high = None
        self.sol_stats: tuple[int, int, int, int, int] | None = None
        self.dup_uids = dup_uids
        self._vars = vars_
        self._buf = buf  # keepalive for zero-copy views (mmap)
        self._name_cache: dict[int, str] = {}
        self._var_cache: dict[int, QualVar] = {}
        self._uid_index: dict | None = None

    # -- construction --------------------------------------------------
    @classmethod
    def from_indexed(cls, system: IndexedSystem) -> "FlatSystem":
        """Snapshot an indexed system (including any extra variables the
        caller already registered via :meth:`IndexedSystem.add_var`)."""
        lattice = system.lattice
        if not fits_flat(lattice):
            raise ValueError(
                f"lattice {lattice} needs more than 62 mask bits; "
                "the flat core stores masks as signed int64"
            )
        vars_ = list(system._vars)
        n = len(vars_)
        m = len(system._edge_u)

        indptr_l, indices_l = _csr_from_edges(n, system._edge_u, system._edge_v)
        indptr = array("q", indptr_l)
        indices = array("q", indices_l)

        bottom = lattice.bottom.mask
        top = lattice.top.mask
        lower = array("q", [bottom]) * n if n else array("q")
        upper = array("q", [top]) * n if n else array("q")
        for i, mask in system._lower_mask.items():
            lower[i] = mask
        for i, mask in system._upper_mask.items():
            upper[i] = mask

        uid_list = [v.uid for v in vars_]
        uids = array("q", uid_list)
        offsets = array("q", [0]) * (n + 1)
        chunks = []
        total = 0
        for i, v in enumerate(vars_):
            encoded = v.name.encode("utf-8")
            chunks.append(encoded)
            total += len(encoded)
            offsets[i + 1] = total
        names_blob = b"".join(chunks)

        counts = (
            system._constraints,
            system._edges_before,
            system._ground_checks,
            system._constant_bounds,
        )
        return cls(
            lattice,
            uids,
            indptr,
            indices,
            lower,
            upper,
            offsets,
            names_blob,
            counts,
            vars_=vars_,
            dup_uids=len(set(uid_list)) != n,
        )

    @classmethod
    def from_constraints(
        cls,
        constraints: Iterable[QualConstraint],
        lattice: QualifierLattice,
        extra_vars: Iterable[QualVar] = (),
    ) -> "FlatSystem":
        system = IndexedSystem(lattice)
        system.add_many(constraints)
        for var in extra_vars:
            system.add_var(var)
        return cls.from_indexed(system)

    # -- lazy rehydration ----------------------------------------------
    def name(self, i: int) -> str:
        """Variable name at dense index ``i`` (decoded once, memoised)."""
        cached = self._name_cache.get(i)
        if cached is None:
            off = self.name_offsets
            cached = bytes(self.names_blob[off[i] : off[i + 1]]).decode("utf-8")
            self._name_cache[i] = cached
        return cached

    def var(self, i: int) -> QualVar:
        """The (possibly rehydrated) variable at dense index ``i``."""
        if self._vars is not None:
            return self._vars[i]
        cached = self._var_cache.get(i)
        if cached is None:
            cached = QualVar(self.name(i), int(self.uids[i]))
            self._var_cache[i] = cached
        return cached

    def index_of(self, var: QualVar) -> int | None:
        """Dense index of a variable, or ``None`` if unmentioned."""
        if self._uid_index is None:
            if self.dup_uids:
                self._uid_index = {
                    (int(self.uids[i]), self.name(i)): i for i in range(self.n)
                }
            else:
                self._uid_index = {int(self.uids[i]): i for i in range(self.n)}
        if self.dup_uids:
            return self._uid_index.get((var.uid, var.name))
        i = self._uid_index.get(var.uid)
        if i is None or self.name(i) != var.name:
            return None
        return i

    # -- solving -------------------------------------------------------
    def solve_masks(self) -> _KernelResult:
        """Run condensation + propagation over the buffers."""
        n = self.n
        fast = _fast()
        if fast is not None:
            np = fast[0]
            indptr = np.asarray(self.indptr, dtype=np.int64)
            indices = np.asarray(self.indices, dtype=np.int64)
            eu = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            lower = np.asarray(self.lower, dtype=np.int64)
            upper = np.asarray(self.upper, dtype=np.int64)
            low_idx = np.nonzero(lower != self.lattice.bottom.mask)[0]
            up_idx = np.nonzero(upper != self.lattice.top.mask)[0]
            result = _kernel_fast(
                n,
                eu,
                indices,
                low_idx,
                lower[low_idx],
                up_idx,
                upper[up_idx],
                self.lattice,
                csr=(indptr, indices),
            )
            if result is not None:
                return result
        bottom = self.lattice.bottom.mask
        top = self.lattice.top.mask
        return _kernel_slow(
            n,
            self.indptr,
            self.indices,
            ((i, m) for i, m in enumerate(self.lower) if m != bottom),
            ((i, m) for i, m in enumerate(self.upper) if m != top),
            self.lattice,
        )

    def solve(self) -> "FlatSolution":
        """Solve and wrap the result lazily; raises
        :class:`~repro.qual.solver.UnsatisfiableError` (with a synthetic
        witness — serialised systems carry no constraint provenance)."""
        result = self.solve_masks()
        if result.violation >= 0:
            i = result.violation
            lo = self.lattice.from_mask(int(result.low[i]))
            hi = self.lattice.from_mask(int(result.high[i]))
            witness = QualConstraint(self.var(i), hi, Origin("flat-core derived bound"))
            raise UnsatisfiableError(witness, lo, hi)
        return FlatSolution(
            self.lattice,
            self,
            result.low,
            result.high,
            _stats_from(self.counts, self.n, self.m, result),
        )

    def attach_solution(self) -> "FlatSolution":
        """Solve and record the solution buffers for serialisation."""
        solution = self.solve()
        self.sol_low = solution._low
        self.sol_high = solution._high
        stats = solution.stats
        assert stats is not None
        self.sol_stats = (
            stats.sccs,
            stats.collapsed_sccs,
            stats.largest_scc,
            stats.dag_edges,
            stats.propagation_steps,
        )
        return solution

    def stored_solution(self) -> "FlatSolution | None":
        """The recorded solution section, or ``None`` if absent."""
        if self.sol_low is None or self.sol_high is None:
            return None
        stats = None
        if self.sol_stats is not None:
            sccs, collapsed, largest, dag_edges, steps = self.sol_stats
            constraints, edges_before, ground_checks, constant_bounds = self.counts
            stats = SolverStats(
                variables=self.n,
                constraints=constraints,
                ground_checks=ground_checks,
                constant_bounds=constant_bounds,
                edges_before=edges_before,
                edges_after=self.m,
                sccs=sccs,
                collapsed_sccs=collapsed,
                largest_scc=largest,
                dag_edges=dag_edges,
                propagation_steps=steps,
            )
        return FlatSolution(self.lattice, self, self.sol_low, self.sol_high, stats)

    # -- serialisation -------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise; deterministic for a given system state."""
        lat_sig = self.lattice.signature().encode("utf-8")
        flags = 0
        if self.sol_low is not None:
            flags |= FLAG_SOLUTION
        if self.dup_uids:
            flags |= FLAG_DUP_UIDS
        sol_stats = self.sol_stats or (0, 0, 0, 0, 0)
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            flags,
            self.n,
            self.m,
            len(lat_sig),
            len(self.names_blob),
            *self.counts,
            *sol_stats,
        )
        parts = [
            header,
            lat_sig,
            b"\0" * _pad8(len(lat_sig)),
            _i64_bytes(self.uids),
            _i64_bytes(self.indptr),
            _i64_bytes(self.indices),
            _i64_bytes(self.lower),
            _i64_bytes(self.upper),
            _i64_bytes(self.name_offsets),
            bytes(self.names_blob),
            b"\0" * _pad8(len(self.names_blob)),
        ]
        if flags & FLAG_SOLUTION:
            parts.append(_i64_bytes(self.sol_low))
            parts.append(_i64_bytes(self.sol_high))
        return b"".join(parts)

    @classmethod
    def from_buffer(cls, buf) -> "FlatSystem":
        """Wrap a serialised system zero-copy.

        ``buf`` may be ``bytes``, a ``memoryview``, or an ``mmap`` — the
        returned system keeps a reference so the mapping stays alive.
        Raises ``ValueError``/``struct.error`` on malformed input (the
        cache treats both as a miss).
        """
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise ValueError(f"flat buffer too short: {len(view)} bytes")
        (
            magic,
            version,
            flags,
            n,
            m,
            lat_len,
            names_len,
            constraints,
            edges_before,
            ground_checks,
            constant_bounds,
            sccs,
            collapsed,
            largest,
            dag_edges,
            steps,
        ) = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad flat magic: {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported flat version: {version}")

        offset = _HEADER.size
        if offset + lat_len > len(view):
            raise ValueError("lattice signature overruns buffer")
        lat_sig = bytes(view[offset : offset + lat_len]).decode("utf-8")
        lattice = QualifierLattice.from_signature(lat_sig)
        offset += lat_len + _pad8(lat_len)

        uids = _wrap_i64(view, offset, n)
        offset += n * 8
        indptr = _wrap_i64(view, offset, n + 1)
        offset += (n + 1) * 8
        indices = _wrap_i64(view, offset, m)
        offset += m * 8
        lower = _wrap_i64(view, offset, n)
        offset += n * 8
        upper = _wrap_i64(view, offset, n)
        offset += n * 8
        name_offsets = _wrap_i64(view, offset, n + 1)
        offset += (n + 1) * 8
        if offset + names_len > len(view):
            raise ValueError("name blob overruns buffer")
        names_blob = view[offset : offset + names_len]
        offset += names_len + _pad8(names_len)

        if n and int(name_offsets[n]) != names_len:
            raise ValueError("name offset table inconsistent with blob length")

        system = cls(
            lattice,
            uids,
            indptr,
            indices,
            lower,
            upper,
            name_offsets,
            names_blob,
            (constraints, edges_before, ground_checks, constant_bounds),
            dup_uids=bool(flags & FLAG_DUP_UIDS),
            buf=buf,
        )
        if flags & FLAG_SOLUTION:
            system.sol_low = _wrap_i64(view, offset, n)
            offset += n * 8
            system.sol_high = _wrap_i64(view, offset, n)
            system.sol_stats = (sccs, collapsed, largest, dag_edges, steps)
        return system


class FlatSolution(Solution):
    """A :class:`~repro.qual.solver.Solution` over flat buffers.

    ``least``/``greatest`` materialise their variable-keyed dicts only
    when actually read (differential fingerprints, visualisation);
    :meth:`least_of`/:meth:`greatest_of`/``classify`` answer directly
    from the mask arrays, rehydrating at most the queried variable's
    name.  This is the lazy-rehydration contract the binary cache relies
    on: classifying a warm run touches only the position variables'
    names, never the whole table.
    """

    def __init__(self, lattice, system, low, high, stats=None):
        # Deliberately not calling the dataclass __init__: least and
        # greatest are lazy properties here.
        self.lattice = lattice
        self.stats = stats
        self._system = system  # FlatSystem or _LiveIndex
        self._low = low
        self._high = high
        self._least_memo: dict | None = None
        self._greatest_memo: dict | None = None

    @property
    def least(self):  # type: ignore[override]
        if self._least_memo is None:
            from_mask = self.lattice.from_mask
            source = self._system
            low = self._low
            self._least_memo = {
                source.var(i): from_mask(int(low[i])) for i in range(source.n)
            }
        return self._least_memo

    @property
    def greatest(self):  # type: ignore[override]
        if self._greatest_memo is None:
            from_mask = self.lattice.from_mask
            source = self._system
            high = self._high
            self._greatest_memo = {
                source.var(i): from_mask(int(high[i])) for i in range(source.n)
            }
        return self._greatest_memo

    def least_of(self, var: QualVar) -> LatticeElement:
        i = self._system.index_of(var)
        if i is None or i >= len(self._low):
            return self.lattice.bottom
        return self.lattice.from_mask(int(self._low[i]))

    def greatest_of(self, var: QualVar) -> LatticeElement:
        i = self._system.index_of(var)
        if i is None or i >= len(self._high):
            return self.lattice.top
        return self.lattice.from_mask(int(self._high[i]))


# ---------------------------------------------------------------------------
# Solver entry points
# ---------------------------------------------------------------------------


def flat_solve(
    constraints: Iterable[QualConstraint],
    lattice: QualifierLattice,
    extra_vars: Iterable[QualVar] = (),
) -> Solution:
    """Drop-in flat-core counterpart of :func:`repro.qual.solver.solve`.

    Same solutions, same exceptions: unsatisfiable systems re-run the
    indexed system's provenance-tracking blame reconstruction so the
    error (message, witness, path) is byte-identical to ``solve``'s.
    This is the entry point the testkit's ``flatcore`` oracle family
    pits against the other two solvers; it works with or without numpy
    (stdlib CSR + Tarjan when the fast path is unavailable).
    """
    system = IndexedSystem(lattice)
    system.add_many(constraints)
    for var in extra_vars:
        system.add_var(var)
    conflict = system._ground_conflict
    if conflict is not None:
        assert isinstance(conflict.lhs, LatticeElement)
        assert isinstance(conflict.rhs, LatticeElement)
        raise UnsatisfiableError(conflict, conflict.lhs, conflict.rhs)

    if _fast() is not None and fits_flat(lattice):
        solution = solve_indexed(system)
        if solution is not None:
            return solution

    n = len(system._vars)
    indptr, indices = _csr_from_edges(n, system._edge_u, system._edge_v)
    result = _kernel_slow(
        n,
        indptr,
        indices,
        system._lower_mask.items(),
        system._upper_mask.items(),
        lattice,
    )
    if result.violation >= 0:
        i = result.violation
        raise system._unsat_error(
            system._vars[i], int(result.low[i]), int(result.high[i])
        )
    counts = (
        system._constraints,
        system._edges_before,
        system._ground_checks,
        system._constant_bounds,
    )
    return FlatSolution(
        lattice,
        _LiveIndex(system._vars, system._var_index),
        result.low,
        result.high,
        _stats_from(counts, n, len(indices), result),
    )


def solve_indexed(system: IndexedSystem) -> Solution | None:
    """Fast-path kernel for :meth:`IndexedSystem.solve`.

    Returns a lazy :class:`FlatSolution` over the live variable index —
    identical values, iteration order, stats, and blame as the object
    pipeline — or ``None`` when the fast kernel is unavailable or
    declined, in which case the caller runs its own loops.
    """
    fast = _fast()
    if fast is None:
        return None
    lattice = system.lattice
    if not fits_flat(lattice):
        return None
    np = fast[0]
    n = len(system._vars)
    m = len(system._edge_u)
    eu = np.array(system._edge_u, dtype=np.int64) if m else np.zeros(0, dtype=np.int64)
    ev = np.array(system._edge_v, dtype=np.int64) if m else np.zeros(0, dtype=np.int64)
    lower = system._lower_mask
    upper = system._upper_mask
    low_idx = np.fromiter(lower.keys(), dtype=np.int64, count=len(lower))
    low_masks = np.fromiter(lower.values(), dtype=np.int64, count=len(lower))
    up_idx = np.fromiter(upper.keys(), dtype=np.int64, count=len(upper))
    up_masks = np.fromiter(upper.values(), dtype=np.int64, count=len(upper))
    result = _kernel_fast(n, eu, ev, low_idx, low_masks, up_idx, up_masks, lattice)
    if result is None:
        return None

    if result.violation >= 0:
        i = result.violation
        raise system._unsat_error(
            system._vars[i], int(result.low[i]), int(result.high[i])
        )

    counts = (
        system._constraints,
        system._edges_before,
        system._ground_checks,
        system._constant_bounds,
    )
    return FlatSolution(
        lattice,
        _LiveIndex(system._vars, system._var_index),
        result.low,
        result.high,
        _stats_from(counts, n, m, result),
    )
