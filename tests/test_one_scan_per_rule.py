"""One scan per rule in monoidal.py.

_scan_cells states once what a component cell must be, a morphism with
the required ends that has an inverse; check_monoidal reads its associator
components through it, check_braiding its braiding components and
check_mon_functor its multiplicativity cells.  _scan_pentagon scans the
pentagon of a strict structure too, reading its components as the
identities of (x⊗y)⊗z, and check_monoidal runs it there only when the
tensor sends some id_x⊗id_y to another morphism.

check_braiding must give the report of oracles.reference_check_braiding,
which writes its component loop out, on the braidings the tests build,
their relabelled copies and seeded component mutants, and check_mon_functor
that of oracles.exhaustive_check_mon_functor on seeded
multiplicativity-cell mutants; test_reference_checkers builds these pools
and compares them once.  check_braiding must also raise where
oracles.reference_check_braiding raises, on a malformed base whose
inverse scan raises, and check_monoidal must run the strict pentagon
through _scan_pentagon on strict structures whose tensor breaks
identities, with the report of oracles.reference_check_monoidal, whose
pentagon composes every instance over explicit identity tables, at cap 32,
cap 1 and cap 0.
"""
import random

import pytest

import oracles
from test_hom_tables import short_row_braiding
from test_reference_checkers import CAPS, laws, outcomes, pool_laws, pool_outcomes, pools
from test_relabel_invariance import TableRelabeler
from test_strict_structures import small_strict_bases, tensor_mutants
from spanforge import monoidal
from spanforge.monoidal import check_braiding, check_monoidal


def test_check_braiding_matches_its_own_component_loop():
    # each braiding and its relabelled copy
    assert len(pools("braiding")["braidings"]) > 60
    found = pool_outcomes("braiding", "braidings")
    assert {"hexagon-forward", "hexagon-reverse"} <= pool_laws(found)


def test_check_braiding_matches_its_own_component_loop_on_mutants():
    # wrong-end, non-invertible and dangling components of seed 30
    assert {"braiding-component", "braiding-iso"} \
        <= pool_laws(pool_outcomes("braiding", "component mutants"))


def test_check_mon_functor_matches_its_own_cell_loop_on_mutants():
    # exhaustive_check_mon_functor keeps the multiplicativity-cell loop
    # written out; the cells are moved as the braiding components are, seed 32
    assert {"mult-cell", "mult-cell-iso"} \
        <= pool_laws(pool_outcomes("mon_functor", "multiplicativity-cell mutants"))


def test_check_braiding_raises_where_its_own_component_loop_raises():
    b = short_row_braiding()
    for cap in CAPS:
        for check in (check_braiding, oracles.reference_check_braiding):
            with pytest.raises(IndexError):
                check(b, cap)


def identity_breaking_structures(rng: random.Random):
    """Strict structures with one id_x⊗id_y moved to a parallel morphism:
    mutants of the small strict constructions and their relabelled copies."""
    relabel = TableRelabeler(rng)
    found = []
    for ms in small_strict_bases():
        for kind, mutant in tensor_mutants(ms, rng, 4):
            if kind == "identity":
                found += [mutant, relabel.monoidal(mutant)]
    return found


def test_strict_pentagons_match_the_deleted_scan(monkeypatch):
    strict_scans = []
    scan = monoidal._scan_pentagon

    def counted(ms, rb, sizes):
        strict_scans.append(ms.strict)
        scan(ms, rb, sizes)

    monkeypatch.setattr(monoidal, "_scan_pentagon", counted)
    cases = identity_breaking_structures(random.Random(31))
    pentagons = 0
    for ms in cases:
        assert ms.strict
        got = outcomes(check_monoidal, ms)
        assert got == outcomes(oracles.reference_check_monoidal, ms)
        pentagons += "pentagon" in laws(got)
    assert len(cases) > 80
    assert strict_scans.count(True) > 50 and False not in strict_scans
    assert pentagons > 20, pentagons
