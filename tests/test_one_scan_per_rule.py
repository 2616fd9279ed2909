"""One scan per rule in monoidal.py.

_scan_cells states once what a component cell must be, a morphism with
the required ends that has an inverse; check_monoidal reads its associator
components through it, check_braiding its braiding components and
check_mon_functor its multiplicativity cells.  _scan_pentagon scans the
pentagon of a strict structure too, reading its components as the
identities of (x⊗y)⊗z, and check_monoidal runs it there only when the
tensor sends some id_x⊗id_y to another morphism.

oracles keeps the routes before: reference_check_braiding with its own
component loop, and strict_pentagon_check_monoidal, whose strict pentagon
is _scan_strict_pentagon.  The library must agree with them, == on whole
reports at cap 32, at cap 1 and at cap 0, where the builder is full on
entry: check_braiding on every braiding the tests build, their relabelled
copies and seeded component mutants, and on a malformed base whose inverse
scan raises, with the same exception; check_mon_functor, against the full
scan of oracles.exhaustive_check_mon_functor, on seeded mutants of the
multiplicativity cells; check_monoidal on strict structures whose tensor
breaks identities.  test_light_associativity compares the
associator and multiplicativity-cell scans with their full loops at the
same caps.
"""
import functools
import random
from dataclasses import replace

import pytest

import oracles
from test_centers import idempotent_monoid_monoidal, monoidal_cases
from test_central import central_setups, identity_braiding
from test_hom_tables import short_row_braiding
from test_relabel_invariance import TableRelabeler
from test_strict_mon_functors import constructions
from test_strict_structures import small_strict_bases, tensor_mutants
from spanforge import monoidal
from spanforge.centers import drinfeld_center, mueger_center
from spanforge.central import central_module_check
from spanforge.fincat import FinCategory, StructureError
from spanforge.groups import cyclic
from spanforge.monoidal import (
    check_braiding,
    check_mon_functor,
    check_monoidal,
    identity_mon_functor,
    make_bicharacter_braiding,
    make_skeletal_group_category,
    trivial_cochain,
)
from spanforge.reporting import DEFAULT_VIOLATION_CAP

CAPS = (DEFAULT_VIOLATION_CAP, 1, 0)


def outcome(check, s, cap):
    """The report, or the class of the exception raised with the message of
    a StructureError: a dangling component read after the component scan
    raises IndexError on both routes."""
    try:
        return check(s, cap)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc) if isinstance(exc, StructureError) else ""


def assert_same(check, reference, s):
    """Whether check and reference on s give the same outcome at every cap;
    the laws of their reports."""
    got = [outcome(check, s, cap) for cap in CAPS]
    assert got == [outcome(reference, s, cap) for cap in CAPS]
    return {v.law for r in got if not isinstance(r, tuple) for v in r.violations}


@functools.cache
def braidings():
    """Center braidings of the center tests' ambients, bicharacter
    braidings of skeletal Z/n (lawful or not), the fiber braidings of the
    central setups, the braidings of the Müger centers of the lawful ones,
    and the identity braiding of a monoid with a non-invertible idempotent."""
    found = [drinfeld_center(ms).braiding for ms in monoidal_cases().values()]
    rng = random.Random(29)
    for n in (2, 3, 4):
        zn = cyclic(n)
        ms = make_skeletal_group_category(zn, zn, trivial_cochain(zn))
        found.append(make_bicharacter_braiding(
            ms, zn, [[x * y % n for y in range(n)] for x in range(n)]))
        found.append(make_bicharacter_braiding(
            ms, zn, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
    for setup in central_setups().values():
        fiber = central_module_check(setup).fiber
        if fiber is not None and fiber.braiding is not None:
            found.append(fiber.braiding)
    found += [mueger_center(b).braiding for b in list(found) if check_braiding(b).ok]
    found.append(identity_braiding(idempotent_monoid_monoidal()))
    return found


def test_check_braiding_matches_its_own_component_loop():
    relabel = TableRelabeler(random.Random(29))
    cases = list(braidings())
    cases += [relabel.braiding(b) for b in cases if b.on.base.num_morphisms <= 64]
    assert len(cases) > 60
    laws = set()
    for b in cases:
        laws |= assert_same(check_braiding, oracles.reference_check_braiding, b)
    assert {"hexagon-forward", "hexagon-reverse"} <= laws, laws


def cell_mutants(cells, base: FinCategory, rng: random.Random):
    """(kind, cells with one cell moved): to a morphism with other ends, to
    a parallel morphism without an inverse, or to the dangling id -1 or
    99."""
    out = []
    for kind in ("ends", "iso", "dangling"):
        i = rng.randrange(len(cells))
        ends = (base.source[cells[i]], base.target[cells[i]])
        if kind == "ends":
            pool = [f for f in range(base.num_morphisms)
                    if (base.source[f], base.target[f]) != ends]
        elif kind == "iso":
            pool = [f for f in base.hom(*ends) if not base.is_iso(f)]
        else:
            pool = [-1, 99]
        if pool:
            out.append((kind, cells[:i] + (rng.choice(pool),) + cells[i + 1:]))
    return out


def test_check_braiding_matches_its_own_component_loop_on_mutants():
    rng = random.Random(30)
    kinds = {"ends": 0, "iso": 0, "dangling": 0}
    laws = set()
    for b in braidings():
        for _ in range(4):
            for kind, beta in cell_mutants(b.beta, b.on.base, rng):
                kinds[kind] += 1
                laws |= assert_same(check_braiding, oracles.reference_check_braiding,
                                    replace(b, beta=beta))
    assert kinds["ends"] > 100 and kinds["dangling"] > 100 and kinds["iso"] >= 4, kinds
    assert {"braiding-component", "braiding-iso"} <= laws, laws


def test_check_mon_functor_matches_its_own_cell_loop_on_mutants():
    # oracles.exhaustive_check_mon_functor keeps the multiplicativity-cell
    # loop written out
    rng = random.Random(32)
    kinds = {"ends": 0, "iso": 0, "dangling": 0}
    laws = set()
    functors = [mf for _, mf in constructions() if mf.target.base.num_morphisms <= 64]
    functors.append(identity_mon_functor(idempotent_monoid_monoidal()))
    for mf in functors:
        for kind, mult in cell_mutants(mf.mult, mf.target.base, rng):
            kinds[kind] += 1
            laws |= assert_same(check_mon_functor, oracles.exhaustive_check_mon_functor,
                                replace(mf, mult=mult))
    assert kinds["ends"] > 50 and kinds["dangling"] > 50 and kinds["iso"] >= 1, kinds
    assert {"mult-cell", "mult-cell-iso"} <= laws, laws


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
        pentagons += "pentagon" in assert_same(
            check_monoidal, oracles.strict_pentagon_check_monoidal, ms)
    assert len(cases) > 80
    assert strict_scans.count(True) > 50 and False not in strict_scans
    assert pentagons > 20, pentagons
