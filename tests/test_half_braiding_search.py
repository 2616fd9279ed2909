"""The half-braiding search against its parent, which tested the hexagons on
complete families only.

enumerate_half_braidings tests each naturality square and each hexagon once
the last component it reads is chosen; the hexagon at (y, z) reads the
components at y, z and y⊗z only (EGNO Def. 7.13.1; Kassel §XIII.4).
oracles.reference_enumerate_half_braidings is the parent search, verbatim:
naturality at each depth, every hexagon on each complete family, in (y, z)
order.  Both must return == lists on every carrier of the centers,
centralizers and intertwiners the tests build, of skeletal Z/n with Z/n
scalars and k times the carry cocycle (n = 2..5, every k; Z/6 with k = 0
and 1 at two carriers, since the parent takes 0.2-0.4 s per Z/6 carrier),
and of the seeded mutants of g and h, whose cells and morphism images are
set to other morphism ids, that pass centers._refuse_ill_typed.  A mutant
it refuses, a cell with the wrong ends or a cell of h without an inverse,
is refused by the centralizer and the intertwiner before any search.
"""
import random
from collections import Counter

import pytest

import oracles
from test_central import central_setups, s3_twisted_setup
from test_centers import (
    carry_cocycle,
    idempotent_monoid_monoidal,
    monoidal_cases,
    toric_z2,
)
from test_output_theorems import mutate

from spanforge.centers import (
    _refuse_ill_typed,
    enumerate_half_braidings,
    monoidal_centralizer,
    monoidal_intertwiner,
)
from spanforge.fincat import FinCategory, Functor, StructureError, chain_category
from spanforge.groups import cyclic, symmetric_3
from spanforge.monoidal import (
    Braiding,
    MonFunctor,
    check_monoidal,
    identity_mon_functor,
    make_skeletal_group_category,
    tabulate_monoidal,
    terminal_monoidal,
    trivial_cochain,
)


def skeletal_zn(n, k):
    return make_skeletal_group_category(cyclic(n), cyclic(n), carry_cocycle(n, k))


def outcome(thunk):
    try:
        return thunk()
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def assert_agrees(g, h, lax, carriers=None):
    """Both searches give the same outcome on each carrier; the outcomes."""
    ms = g.target
    found = []
    for x in carriers or range(ms.base.num_objects):
        new = outcome(lambda: enumerate_half_braidings(ms, g, h, x, lax))
        old = outcome(lambda: oracles.reference_enumerate_half_braidings(
            ms, g, h, x, lax))
        assert new == old, (x, lax)
        found.append(new)
    return found


def built_pairs():
    """(g, h) for every center, centralizer and intertwiner the tests build:
    the identity of each ambient of test_centers and of each carrier of the
    central setups and fixtures, each candidate alone and against the other
    and the identity, the unit inclusion into toric Z/2, and the S3 twisted
    candidate, whose multiplicativity cell is not an identity."""
    pairs = [(ident, ident) for ident in map(identity_mon_functor,
                                             monoidal_cases().values())]
    setups = [*central_setups().values(), s3_twisted_setup()]
    for setup in setups:
        for module in (setup.left, setup.right):
            carrier = module.carrier
            ms = carrier.on if isinstance(carrier, Braiding) else carrier
            pairs.append((identity_mon_functor(ms),) * 2)
        cands = [c for c in (setup.g, setup.h) if c is not None]
        ident = identity_mon_functor(setup.g.target)
        pairs += [(a, b) for a in cands for b in (*cands, ident)]
        pairs += [(ident, a) for a in cands]
    unit, toric = terminal_monoidal(), toric_z2()
    incl = MonFunctor(unit, toric, Functor(unit.base, toric.base, (0,), (0,)),
                      (toric.base.identity[0],), toric.base.identity[0])
    pairs.append((incl, incl))
    return pairs


def test_the_searches_agree_on_everything_the_tests_build():
    pairs = built_pairs()
    assert len(pairs) >= 60
    assert any(g != h for g, h in pairs)
    assert any(g.mult != identity_mon_functor(g.source).mult for g, _ in pairs
               if g.source == g.target)
    for g, h in pairs:
        _refuse_ill_typed(g.target, g, h)  # every pair passes the check
        for lax in (False, True):
            assert_agrees(g, h, lax)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_searches_agree_on_skeletal_cyclic_groups(n):
    # every morphism of a group category is invertible, so hom and isos are
    # the same tuples and lax changes nothing the parent reads: it runs once
    # per carrier, and the search with lax False and True
    for k in range(n):
        ms = skeletal_zn(n, k)
        assert all(ms.base.hom(s, t) == ms.base.isos(s, t)
                   for s in range(n) for t in range(n))
        ident = identity_mon_functor(ms)
        for x in range(n):
            old = oracles.reference_enumerate_half_braidings(ms, ident, ident, x, False)
            for lax in (False, True):
                assert enumerate_half_braidings(ms, ident, ident, x, lax) == old, (k, x)


@pytest.mark.parametrize("k", [0, 1])
def test_the_searches_agree_on_two_carriers_of_z6(k):
    ident = identity_mon_functor(skeletal_zn(6, k))
    families = assert_agrees(ident, ident, False, carriers=(0, 1))
    # 6 half-braidings on each carrier for the trivial class; the 6 of the
    # carry class all lie over the unit
    assert [len(f) for f in families] == ([6, 6] if k == 0 else [6, 0])


def thin_monoidal(base, tensor):
    """A thin category with a tensor on objects that is associative with
    unit 0: every diagram commutes, so it is strict monoidal."""
    ms = tabulate_monoidal(base, 0, tensor, lambda f, g, s, t: base.hom(s, t)[0])
    assert check_monoidal(ms).ok
    return ms


def codiscrete_groupoid(n):
    """One isomorphism s*n + t from s to t for each pair of n objects."""
    ends = [(s, t) for s in range(n) for t in range(n)]
    return FinCategory(n, tuple(s for s, _ in ends), tuple(t for _, t in ends),
                       tuple(x * n + x for x in range(n)),
                       tuple(tuple(fs * n + gt if ft == gs else -1 for fs, ft in ends)
                             for gs, gt in ends))


def cell_mutants(ms, rng, count):
    """(g, h) with 1-3 multiplicativity cells or morphism images of g or of
    h, the other the identity, set to other morphism ids of any ends: a
    cell that breaks the hexagons early and one that breaks a later law
    tell where each hexagon is tested."""
    ident = identity_mon_functor(ms)
    out = []
    for _ in range(count):
        mutant = ident
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("mult", "mor"))
            table = mutant.mult if kind == "mult" else mutant.underlying.morphism_map
            i = rng.randrange(len(table))
            value = rng.choice([f for f in range(ms.base.num_morphisms)
                                if f != table[i]])
            mutant = mutate(mutant, kind, i, value)
        out.append((mutant, ident) if rng.random() < 0.5 else (ident, mutant))
    return out


def test_the_searches_agree_on_seeded_cell_mutants():
    rng = random.Random(26)
    s3 = make_skeletal_group_category(symmetric_3(), cyclic(2),
                                      trivial_cochain(symmetric_3()))
    # besides groups and a monoid, a poset and a groupoid with morphisms
    # between distinct objects, so that a cell can have a wrong target alone
    ambients = [toric_z2(), skeletal_zn(2, 1), skeletal_zn(3, 0), skeletal_zn(3, 1),
                s3, idempotent_monoid_monoidal(),
                thin_monoidal(chain_category(3), max),
                thin_monoidal(codiscrete_groupoid(3), lambda x, y: (x + y) % 3)]
    agreed, with_families, refused, parents = 0, 0, 0, Counter()
    for ms in ambients:
        # a thin category has one candidate family at most, so many mutants
        # are cheap there
        thin = all(len(ms.base.hom(s, t)) < 2 for s in range(ms.base.num_objects)
                   for t in range(ms.base.num_objects))
        for g, h in cell_mutants(ms, rng, 120 if thin else 60):
            mutant = h if g == identity_mon_functor(ms) else g
            try:
                _refuse_ill_typed(ms, g, h)
            except StructureError:
                # refused up front: the parent raised on some carrier once a
                # family reached the cell, returned [] on every carrier, or,
                # where tensoring with the carrier hid the wrong ends,
                # returned families
                refused += 1
                parent = [outcome(lambda: oracles.reference_enumerate_half_braidings(
                    ms, g, h, x, lax)) for x in range(ms.base.num_objects)
                    for lax in (False, True)]
                raised = [got for got in parent if isinstance(got, tuple)]
                assert all(cls is StructureError for cls, _ in raised)
                parents["raised" if raised else "families" if any(parent) else "[]"] += 1
                for build in (lambda: monoidal_centralizer(mutant),
                              lambda: monoidal_intertwiner(g, h)):
                    with pytest.raises(StructureError):
                        build()
                continue
            agreed += 1
            found = [got for lax in (False, True) for got in assert_agrees(g, h, lax)]
            assert all(isinstance(got, list) for got in found)
            with_families += any(found)
    assert (agreed, with_families, refused) == (242, 85, 358)
    assert parents == {"raised": 180, "[]": 155, "families": 23}


def test_the_search_tests_each_hexagon_once_its_components_are_chosen(monkeypatch):
    # each hexagon evaluation composes its two paths; the parent composed
    # them on all 5⁵ candidate families of this carrier, 7,105 evaluations
    # for 5 half-braidings
    ms = skeletal_zn(5, 1)
    ident = identity_mon_functor(ms)
    real = FinCategory.compose_path
    calls = []

    def counting(self, *path):
        calls.append(path)
        return real(self, *path)

    monkeypatch.setattr(FinCategory, "compose_path", counting)
    assert len(enumerate_half_braidings(ms, ident, ident, 0, False)) == 5
    assert len(calls) // 2 == 245
