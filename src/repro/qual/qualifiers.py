"""Standard qualifier definitions used throughout the paper.

The framework is parameterised by a user-supplied qualifier set.  This
module collects every qualifier the paper discusses so applications and
tests can share one vocabulary:

* ``const`` (positive) — ANSI C constness; the subject of Section 4.
* ``nonzero`` (negative) — a value statically known to be nonzero
  (the counterexample of Section 2.4 uses it).
* ``dynamic`` (positive) — binding-time analysis; its absence is
  ``static``, which is "just another name for the absence of dynamic".
* ``nonnull`` (negative) — lclint-style definitely-not-null pointers.
* ``tainted`` (positive) — secure information flow (the [VS97] instance);
  ``untainted`` is its absence.
* ``sorted`` (negative) — Section 2.3's sorted-list example.
* ``local`` (negative) — Titanium's local pointers (a pointer marked
  ``local`` must point to local memory; unmarked may be local or remote).

Each application typically builds a small lattice of just the qualifiers
it cares about; :func:`paper_figure2_lattice` reconstructs the lattice
drawn in Figure 2 (const x dynamic x nonzero).
"""

from __future__ import annotations

import functools

from .lattice import Qualifier, QualifierLattice, negative, positive

CONST: Qualifier = positive("const")
NONZERO: Qualifier = negative("nonzero")
DYNAMIC: Qualifier = positive("dynamic")
NONNULL: Qualifier = negative("nonnull")
TAINTED: Qualifier = positive("tainted")
SORTED: Qualifier = negative("sorted")
LOCAL: Qualifier = negative("local")

# Linearity / resource-tracking qualifiers (the use-exactly-once pack
# riding the flow-sensitive engine; see docs/FLOWSENS.md):
#
# * ``alloc`` (positive) — the value MAY hold a live allocation whose
#   release is this code's obligation.
# * ``freed`` (positive) — the value MAY already have been released;
#   freeing or using it again is a double-free / use-after-free.
# * ``released`` (negative) — the value has DEFINITELY been released on
#   every path reaching this point.  Negative polarity makes joins
#   intersect it, so must-information dies at merges exactly when one
#   incoming path did not release — which is what leak-on-exit-path
#   detection needs (``alloc`` present and ``released`` absent).
ALLOC: Qualifier = positive("alloc")
FREED: Qualifier = positive("freed")
RELEASED: Qualifier = negative("released")

#: Every qualifier mentioned in the paper, keyed by name.
ALL_QUALIFIERS: dict[str, Qualifier] = {
    q.name: q
    for q in (CONST, NONZERO, DYNAMIC, NONNULL, TAINTED, SORTED, LOCAL,
              ALLOC, FREED, RELEASED)
}


@functools.cache
def _shared(*qualifiers: Qualifier) -> QualifierLattice:
    """One lattice per qualifier list.  A lattice and its interned
    elements point at each other, so building one per call would leave a
    reference cycle behind every time."""
    return QualifierLattice(qualifiers)


def const_lattice() -> QualifierLattice:
    """The lattice used by the Section 4 const-inference system."""
    return _shared(CONST)


def const_nonzero_lattice() -> QualifierLattice:
    """Lattice for the Section 2.4 soundness counterexample (const, nonzero)."""
    return _shared(CONST, NONZERO)


def paper_figure2_lattice() -> QualifierLattice:
    """The eight-element lattice of Figure 2: const x dynamic x nonzero."""
    return _shared(CONST, DYNAMIC, NONZERO)


def binding_time_lattice() -> QualifierLattice:
    """Binding-time analysis lattice: static (= absence) <= dynamic."""
    return _shared(DYNAMIC)


def taint_lattice() -> QualifierLattice:
    """Secure information flow: untainted (= absence) <= tainted."""
    return _shared(TAINTED)


def nonnull_lattice() -> QualifierLattice:
    """lclint-style nonnull pointers: nonnull <= possibly-null (absence)."""
    return _shared(NONNULL)


def sorted_lattice() -> QualifierLattice:
    """Sorted-list qualifier of Section 2.3: sorted <= possibly-unsorted."""
    return _shared(SORTED)


def local_lattice() -> QualifierLattice:
    """Titanium local pointers: local <= possibly-remote (absence)."""
    return _shared(LOCAL)


def resource_lattice() -> QualifierLattice:
    """The linearity pack's lattice: may-hold-allocation (``alloc``),
    may-be-freed (``freed``), definitely-released (``released``).

    Bottom is ``{released}`` (negatives are present at bottom): a value
    that never held an allocation carries no obligation.  A malloc seeds
    ``{alloc}`` (obligation incurred, not yet discharged); a free
    strongly updates to ``{freed, released}`` (discharged, and any later
    free/use is an error)."""
    return _shared(ALLOC, FREED, RELEASED)


def make_lattice(*names: str) -> QualifierLattice:
    """Build a lattice from any subset of the paper's qualifiers by name."""
    missing = [n for n in names if n not in ALL_QUALIFIERS]
    if missing:
        raise KeyError(f"unknown qualifier names: {missing}; have {sorted(ALL_QUALIFIERS)}")
    return _shared(*(ALL_QUALIFIERS[n] for n in names))
