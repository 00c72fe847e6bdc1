"""Tests for the bitmask lattice kernel: hash-consing, mask round-trips,
and agreement of the mask-level operations with the set-level definitions."""

import itertools
import pickle

import pytest

from repro.qual.lattice import LatticeError, QualifierLattice
from repro.qual.qualifiers import CONST, const_lattice, make_lattice, paper_figure2_lattice


def all_elements(lattice):
    names = [q.name for q in lattice.qualifiers]
    out = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            out.append(lattice.element(*combo))
    return out


class TestInterning:
    def test_equal_elements_are_identical(self, fig2_lat):
        a = fig2_lat.element("const")
        b = fig2_lat.element("const")
        assert a is b

    def test_construction_orders_agree(self, fig2_lat):
        a = fig2_lat.element("const", "dynamic")
        b = fig2_lat.element("dynamic", "const")
        assert a is b

    def test_join_meet_return_interned(self, fig2_lat):
        a = fig2_lat.atom("const")
        b = fig2_lat.atom("dynamic")
        j = fig2_lat.join(a, b)
        assert j is fig2_lat.join(a, b)
        assert fig2_lat.meet(j, a) is a

    def test_bottom_top_are_interned(self, const_lat):
        assert const_lat.bottom is const_lat.element(*const_lat.bottom.present)
        assert const_lat.top is const_lat.element(*const_lat.top.present)

    def test_distinct_but_equal_lattices_compare_equal(self):
        first, second = QualifierLattice([CONST]), QualifierLattice([CONST])
        a = first.element("const")
        b = second.element("const")
        assert a is not b  # separate intern tables
        assert a == b  # structural equality still holds
        assert hash(a) == hash(b)

    def test_named_lattices_are_shared(self):
        # One instance per qualifier list: no lattice/element reference
        # cycle is rebuilt per call.
        assert const_lattice() is const_lattice()
        assert make_lattice("const") is const_lattice()
        assert paper_figure2_lattice() is paper_figure2_lattice()

    def test_unknown_qualifier_rejected(self, const_lat):
        with pytest.raises(LatticeError):
            const_lat.element("no_such_qualifier")

    def test_pickle_roundtrip(self, fig2_lat):
        original = fig2_lat.atom("const")
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original
        assert copy.present == original.present


class TestMaskRoundTrip:
    def test_from_mask_inverts_mask(self, fig2_lat):
        for element in all_elements(fig2_lat):
            assert fig2_lat.from_mask(element.mask) is element

    def test_stray_bits_rejected(self, fig2_lat):
        full = fig2_lat.top.mask | fig2_lat.bottom.mask
        with pytest.raises(LatticeError):
            fig2_lat.from_mask((full << 1) | full | (1 << 60))


class TestMaskOpsMatchSetSemantics:
    """Exhaustive check over every element pair of the Figure 2 lattice
    that the bitmask formulas implement the paper's polarity order."""

    def _leq_by_definition(self, lattice, a, b):
        for q in lattice.qualifiers:
            if q.positive:
                if q.name in a.present and q.name not in b.present:
                    return False
            else:
                if q.name in b.present and q.name not in a.present:
                    return False
        return True

    def test_leq_matches(self, fig2_lat):
        for a in all_elements(fig2_lat):
            for b in all_elements(fig2_lat):
                assert fig2_lat.leq(a, b) == self._leq_by_definition(
                    fig2_lat, a, b
                ), (a.present, b.present)

    def test_join_is_least_upper_bound(self, fig2_lat):
        elements = all_elements(fig2_lat)
        for a in elements:
            for b in elements:
                j = fig2_lat.join(a, b)
                assert fig2_lat.leq(a, j) and fig2_lat.leq(b, j)
                for other in elements:
                    if fig2_lat.leq(a, other) and fig2_lat.leq(b, other):
                        assert fig2_lat.leq(j, other)

    def test_meet_is_greatest_lower_bound(self, fig2_lat):
        elements = all_elements(fig2_lat)
        for a in elements:
            for b in elements:
                m = fig2_lat.meet(a, b)
                assert fig2_lat.leq(m, a) and fig2_lat.leq(m, b)
                for other in elements:
                    if fig2_lat.leq(other, a) and fig2_lat.leq(other, b):
                        assert fig2_lat.leq(other, m)
