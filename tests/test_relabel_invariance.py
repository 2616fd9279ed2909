"""Renaming ids never changes a verdict: the span corpus under relabelled
module carriers.

Every module carrier is renamed by a seeded relabel_category permutation,
one per module, so composable entries stay composable.  Corpus modules act
strictly, so each renamed module is rebuilt from its conjugated per-object
endofunctors, and each transport is conjugated along.  The span of every
renamed entry must have the apex size of the original, and check_monoidal
and check_mon_functor must give the same verdicts on its apex, legs and
action lift.

Seeded transport mutants, built directly as ModuleFunctorData, are renamed
the same way: a component set to another morphism id, and transport
families that pass the span gate but may break equivariance,
multiplicativity or the unit law.  check_module_functor must report the
same laws on a mutant and on its renamed copy, with each witness mapped
through the carrier permutations.

The three 27-object apexes (disc3-id, disc3-three-cycle and
transposition-equivariant) are left out to keep the suite fast:
test_reduced_scans already scans their apexes, and the span-corpus
benchmark workload relabels them on every seed.
"""
import random

import pytest

from corpus import span_corpus
from oracles import transport_candidates

from spanforge.fincat import Functor, NatTrans, compose_functors, relabel_category
from spanforge.monoidal import check_mon_functor, check_monoidal
from spanforge.reporting import DEFAULT_VIOLATION_CAP
from spanforge.spans import (
    ModuleFunctorData,
    build_span,
    check_module_functor,
    make_module,
    module_functor,
)

LARGE = ("disc3-id", "disc3-three-cycle", "transposition-equivariant")


class Relabeler:
    """Renames every module carrier once, by permutations drawn from rng."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.modules = {}

    def _perms(self, c):
        obj, mor = list(range(c.num_objects)), list(range(c.num_morphisms))
        self.rng.shuffle(obj)
        self.rng.shuffle(mor)
        return tuple(obj), tuple(mor)

    @staticmethod
    def _functor(f, source, target, sperm, tperm):
        obj_map = [0] * len(f.object_map)
        mor_map = [0] * len(f.morphism_map)
        for x, y in enumerate(f.object_map):
            obj_map[sperm[0][x]] = tperm[0][y]
        for g, h in enumerate(f.morphism_map):
            mor_map[sperm[1][g]] = tperm[1][h]
        return Functor(source, target, tuple(obj_map), tuple(mor_map))

    def module(self, md):
        if id(md) not in self.modules:
            perm = self._perms(md.carrier)
            carrier = relabel_category(md.carrier, *perm)
            functors = [self._functor(md.functor_at(c), carrier, carrier, perm, perm)
                        for c in range(md.acting.base.num_objects)]
            self.modules[id(md)] = (md, make_module(md.acting, carrier, functors),
                                    perm)
        return self.modules[id(md)][1:]

    def functor_data(self, fd):
        """fd renamed, transports conjugated along, with no check made."""
        dom, dperm = self.module(fd.dom)
        cod, cperm = self.module(fd.cod)
        f = self._functor(fd.f, dom.carrier, cod.carrier, dperm, cperm)
        xi = []
        for c, t in enumerate(fd.xi):
            comps = [0] * len(t.components)
            for x, m in enumerate(t.components):
                comps[dperm[0][x]] = cperm[1][m]
            xi.append(NatTrans(compose_functors(f, dom.functor_at(c)),
                               compose_functors(cod.functor_at(c), f), tuple(comps)))
        return ModuleFunctorData(dom, cod, f, tuple(xi))

    def module_functor(self, fd):
        renamed = self.functor_data(fd)
        return module_functor(renamed.dom, renamed.cod, renamed.f, list(renamed.xi))

    def witness(self, fd, law, witness):
        """A module_functor violation's witness on the renamed fd: its last
        id is a carrier object of fd.dom, or a carrier morphism for
        naturality; the other ids are acting ids, which are not renamed."""
        if law == "transport-shape":
            return witness
        obj, mor = self.module(fd.dom)[1]
        last = (mor if law == "transport-naturality" else obj)[witness[-1]]
        return witness[:-1] + (last,)


def profile(fd):
    """The apex size and the verdicts on the apex, legs and action lift."""
    cell = build_span(fd)
    base = cell.apex.base
    return ((base.num_objects, base.num_morphisms),
            check_monoidal(cell.apex).ok,
            tuple(check_mon_functor(mf).ok
                  for mf in (cell.leg_left, cell.leg_right, cell.action_lift)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_carriers_keep_span_sizes_and_verdicts(seed):
    relabel = Relabeler(random.Random(seed))
    checked = 0
    for name, fd in span_corpus():
        if name in LARGE:
            continue
        assert profile(relabel.module_functor(fd)) == profile(fd), name
        checked += 1
    assert checked == 20


def law_mutants(fd, rng):
    """fd with one transport component set to another morphism id, and fd
    with its transports redrawn among the natural isomorphisms of the
    right shape (oracles.transport_candidates)."""
    # imported here: test_library_errors reaches this module's Relabeler
    # through test_pasted_transports
    from test_library_errors import transport_mutant
    out = [transport_mutant(fd, rng)]
    candidates = transport_candidates(fd.f, fd.dom, fd.cod)
    if all(candidates):
        xi = tuple(rng.choice(ts) for ts in candidates)
        out.append(ModuleFunctorData(fd.dom, fd.cod, fd.f, xi))
    return [m for m in out if m is not None]


def law_multiset(report, mapped=lambda law, w: w):
    return sorted((v.law, mapped(v.law, v.witness)) for v in report.violations)


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_mutants_keep_laws_and_map_witnesses(seed):
    rng = random.Random(seed)
    relabel = Relabeler(random.Random(seed))
    laws, compared = set(), 0
    for name, fd in span_corpus():
        if name in LARGE:
            continue
        for _ in range(3):
            for m in law_mutants(fd, rng):
                before = check_module_functor(m)
                after = check_module_functor(relabel.functor_data(m))
                assert (after.ok, after.truncated, len(after.violations)) \
                    == (before.ok, before.truncated, len(before.violations)), name
                if len(before.violations) < DEFAULT_VIOLATION_CAP:
                    assert law_multiset(after) == law_multiset(
                        before, lambda law, w: relabel.witness(m, law, w)), name
                    compared += 1
                laws |= {v.law for v in before.violations}
    assert compared > 50
    assert {"transport-naturality", "transport-iso", "transport-unit"} <= laws, laws
