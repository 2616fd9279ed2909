"""The module-functor laws, stated once in spans, against the bodies they
replaced (oracles.reference_check_module_functor and
reference_check_module_nattrans) and against a brute-force structure search
(oracles.brute_force_module_structures): the same families in the same
order, and identical reports, violations, order and truncation included, at
caps 1, 2 and the default."""
from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import corpus
import pytest
from oracles import (
    brute_force_functors,
    brute_force_module_structures,
    brute_force_nat_transes,
    reference_check_module_functor,
    reference_check_module_nattrans,
    transport_candidates,
)
from spanforge.fincat import NatTrans, identity_functor
from spanforge.groups import cyclic
from spanforge.monoidal import make_skeletal_group_category, trivial_cochain
from spanforge.reporting import DEFAULT_VIOLATION_CAP
from spanforge.spans import (
    ModuleData,
    ModuleFunctorData,
    ModuleNatTransData,
    check_module_functor,
    check_module_nattrans,
    make_module,
    module_structures_on,
)

CAPS = (1, 2, DEFAULT_VIOLATION_CAP)
MODULES = ("m_terminal", "m_arrow", "m_disc2", "m_disc3", "m_bz2", "m_idem",
           "m_swap_action", "m_trivial_z2_on_disc2", "m_trivial_z2_on_bz2",
           "m_transposition_on_disc3", "m_klein_on_disc2")


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return "raises", type(exc), str(exc)


def bz2_by_scalars(scalar: bool) -> ModuleData:
    """B(Z/2), one object with a non-identity morphism u, acting on BZ/2
    through the identity functor, with u acting by the scalar 1 or by the
    identity: the corpus acting categories are discrete, so these are the
    modules on which equivariance can fail."""
    acting = make_skeletal_group_category(cyclic(1), cyclic(2),
                                          trivial_cochain(cyclic(1)))
    carrier = corpus.bz2()
    ident = identity_functor(carrier)
    return make_module(acting, carrier, [ident], [
        NatTrans(ident, ident, (u if scalar else carrier.identity[0],))
        for u in range(acting.base.num_morphisms)])


def module_pairs():
    """Every ordered pair of corpus modules, and of the two modules of
    bz2_by_scalars, over one acting category."""
    modules = [getattr(corpus, name)() for name in MODULES] \
        + [bz2_by_scalars(False), bz2_by_scalars(True)]
    return [(dom, cod) for dom in modules for cod in modules
            if dom.acting == cod.acting]


def setups():
    """(dom, cod, f) for every functor f between the carriers of a pair."""
    return [(dom, cod, f) for dom, cod in module_pairs()
            for f in brute_force_functors(dom.carrier, cod.carrier)]


def assert_same_reports(check, reference, data) -> None:
    for cap in CAPS:
        assert outcome(check, data, cap) == outcome(reference, data, cap), cap


def test_structure_search_matches_the_full_product():
    searched = with_families = 0
    for dom, cod, f in setups():
        found = module_structures_on(f, dom, cod)
        assert all((fd.dom, fd.cod, fd.f) == (dom, cod, f) for fd in found)
        assert [fd.xi for fd in found] == brute_force_module_structures(f, dom, cod)
        searched += 1
        with_families += bool(found)
    assert len(module_pairs()) == 57
    assert searched > with_families > 0


def test_checkers_agree_on_every_candidate_family():
    checked = failing = 0
    for dom, cod, f in setups():
        for xi in product(*transport_candidates(f, dom, cod)):
            fd = ModuleFunctorData(dom, cod, f, xi)
            assert_same_reports(check_module_functor,
                                reference_check_module_functor, fd)
            checked += 1
            failing += not check_module_functor(fd).ok
    assert checked > failing > 0


def test_transformation_checkers_agree_on_every_candidate_family():
    # every natural a: f -> f, from each candidate family on f to itself and
    # to the next family in product order
    checked = failing = 0
    for dom, cod, f in setups():
        families = [ModuleFunctorData(dom, cod, f, xi)
                    for xi in product(*transport_candidates(f, dom, cod))]
        pairs = list(zip(families, families)) \
            + list(zip(families, families[1:] + families[:1]))
        for a in brute_force_nat_transes(f, f):
            for fd, gd in pairs:
                ad = ModuleNatTransData(fd, gd, a)
                assert_same_reports(check_module_nattrans,
                                    reference_check_module_nattrans, ad)
                checked += 1
                failing += not check_module_nattrans(ad).ok
    assert checked > failing > 0


def mutate_entry(nat, rng: random.Random, num_morphisms: int):
    comps = list(nat.components)
    comps[rng.randrange(len(comps))] = rng.randrange(num_morphisms)
    return replace(nat, components=tuple(comps))


def mutate_transport(fd: ModuleFunctorData, rng: random.Random):
    c = rng.randrange(len(fd.xi))
    xi = list(fd.xi)
    xi[c] = mutate_entry(xi[c], rng, fd.cod.carrier.num_morphisms)
    return replace(fd, xi=tuple(xi))


@pytest.mark.parametrize("seed", range(3))
def test_checkers_agree_on_mutated_transports(seed):
    # some mutants stay lawful (an entry redrawn to itself, or a BZ/2 scalar
    # swapped for the other); most do not
    rng = random.Random(seed)
    verdicts = set()
    for _, fd in corpus.span_corpus():
        for _ in range(8):
            mutant = mutate_transport(fd, rng)
            assert_same_reports(check_module_functor,
                                reference_check_module_functor, mutant)
            result = outcome(check_module_functor, mutant)
            verdicts.add(result[0] == "value" and result[1].ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(3))
def test_transformation_checkers_agree_on_mutants(seed):
    # one entry of the transformation or of either transport family
    rng = random.Random(seed)
    for _, ad in corpus.nattrans_corpus():
        morphisms = ad.dom.cod.carrier.num_morphisms
        for _ in range(8):
            mutant = rng.choice([
                replace(ad, a=mutate_entry(ad.a, rng, morphisms)),
                replace(ad, dom=mutate_transport(ad.dom, rng)),
                replace(ad, cod=mutate_transport(ad.cod, rng))])
            assert_same_reports(check_module_nattrans,
                                reference_check_module_nattrans, mutant)
