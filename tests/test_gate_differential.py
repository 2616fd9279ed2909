"""The span layer's one gate against the checks it replaced and the
re-checks it makes unreachable.

build_span checks the hypotheses of its theorem once, on the data as given
(spans._require_module_functor): one acting category, f a functor between
the carriers, one invertible natural transport per acting object.  Under
them the laxator layer no longer checks that a comparison preserves
tensors (interchange in Cat, CWM §II.5), that each pairing key of the
coherence cell is a pairing object, or that the two triple composites and
the two quadruple totals agree (pasting whiskered transports is
associative on the nose, CWM §II.5).  tests/oracles.py keeps each of those
checks, and the parent routes around them.

On every corpus pair, triple and quadruple, on relabelled copies, and on
seeded mutants whose every module functor passes the gate (f any functor
between the carriers, each transport any natural isomorphism of the right
shape, module laws or not), the moved checks never fire, every entry point
gives a result equal to the parent route's, and each laxator comparison is
a lawful monoidal functor.
"""
import random
from itertools import product

import pytest

import corpus
import oracles
from test_module_laws import MODULES
from test_pasted_transports import COPIES, Renamer

from spanforge.fincat import (
    DEFAULT_BUDGET,
    SpanforgeError,
    StructureError,
    identity_functor,
    identity_nat_trans,
)
from spanforge.laxators import (
    laxator,
    laxator_coherence,
    normalization_check,
    quadruple_pasting_check,
)
from spanforge.monoidal import check_mon_functor
from spanforge.spans import (
    ModuleFunctorData,
    ModuleNatTransData,
    build_two_span,
    compose_module_functors,
    identity_module_functor,
)

B = DEFAULT_BUDGET
_FAMILIES: dict = {}


def gated_families(dom, cod) -> list[ModuleFunctorData]:
    """Every (f, xi) over the two modules that passes the gate: f any
    functor between the carriers, xi any natural isomorphisms
    f∘P(c) -> Q(c)∘f, one per acting object (brute force)."""
    key = (id(dom), id(cod))
    if key not in _FAMILIES:
        _FAMILIES[key] = (dom, cod, [
            ModuleFunctorData(dom, cod, f, xi)
            for f in oracles.brute_force_functors(dom.carrier, cod.carrier)
            for xi in product(*oracles.transport_candidates(f, dom, cod))])
    return _FAMILIES[key][2]


def chain_key(chain):
    return tuple((d.f.object_map, d.f.morphism_map,
                  tuple(t.components for t in d.xi)) for d in chain)


def chain_mutants(chains, count, seed):
    """count distinct seeded chains, each member replaced by a gated family
    over its own modules, so the chain stays composable; corpus chains are
    skipped."""
    rng = random.Random(seed)
    seen = {chain_key(chain) for chain in chains}
    out = []
    for _ in range(50 * count):
        chain = rng.choice(chains)
        mutant = tuple(rng.choice(gated_families(d.dom, d.cod)) for d in chain)
        if chain_key(mutant) not in seen:
            seen.add(chain_key(mutant))
            out.append(mutant)
            if len(out) == count:
                return out
    raise AssertionError(f"only {len(out)} distinct mutants")


def outcome(thunk):
    try:
        return thunk()
    except SpanforgeError as exc:
        return type(exc), str(exc)


def assert_gate_passes(d):
    """The transport loop module_functor ran before the gate accepts d, and
    so does the gate itself."""
    assert oracles.reference_module_functor(d.dom, d.cod, d.f, list(d.xi)) == d


def assert_lax_agrees(lax, fd, gd):
    assert check_mon_functor(lax.comparison).ok
    oracles.check_comparison_preserves_tensors(lax)
    for d, span in ((fd, lax.span_left), (gd, lax.span_right),
                    (lax.composite, lax.span_composite)):
        assert oracles.guarded_action_lift(d, span) == span.action_lift


def check_pair(fd, gd) -> bool:
    for d in (fd, gd):
        assert_gate_passes(d)
    got = outcome(lambda: laxator(fd, gd))
    assert got == outcome(lambda: oracles.reference_laxator(fd, gd, B))
    if isinstance(got, tuple):
        return False
    assert_lax_agrees(got, fd, gd)
    return True


def check_triple(fd, gd, hd) -> bool:
    got = outcome(lambda: laxator_coherence(fd, gd, hd))
    assert got == outcome(lambda: oracles.reference_laxator_coherence(fd, gd, hd, B))
    if isinstance(got, tuple):
        return False
    # the second composite is the first on the nose
    assert got.lax_f_hg.composite == compose_module_functors(got.lax_gh.composite, fd)
    for lax, (a, b) in ((got.lax_fg, (fd, gd)), (got.lax_gh, (gd, hd)),
                        (got.lax_gf_h, (got.lax_fg.composite, hd)),
                        (got.lax_f_hg, (fd, got.lax_gh.composite))):
        assert_lax_agrees(lax, a, b)
    return True


def check_quadruple(fd, gd, hd, kd) -> bool:
    got = outcome(lambda: quadruple_pasting_check(fd, gd, hd, kd))
    assert got == outcome(
        lambda: oracles.reference_quadruple_pasting_check(fd, gd, hd, kd, B))
    if isinstance(got, tuple):
        return False
    assert got.ok, got.lines()
    return True


CHECKS = {2: check_pair, 3: check_triple, 4: check_quadruple}


@pytest.mark.parametrize("copy", COPIES)
def test_corpus_chains_agree_with_the_parent_routes(copy):
    rename = Renamer(copy)
    for _, *chain in corpus.composable_pairs() + corpus.composable_triples() \
            + corpus.composable_quadruples():
        assert CHECKS[len(chain)](*map(rename.functor, chain))


def test_gated_mutants_agree_with_the_parent_routes():
    # the gate does not check the module laws, and a transport family that
    # breaks multiplicativity has no action lift: those mutants are refused
    # with MediationError on both routes
    mutants = [m for chains, count, seed in (
        (corpus.composable_pairs(), 40, 17), (corpus.composable_triples(), 60, 18),
        (corpus.composable_quadruples(), 100, 19))
        for m in chain_mutants([tuple(c[1:]) for c in chains], count, seed)]
    built = sum(CHECKS[len(chain)](*chain) for chain in mutants)
    assert len(mutants) == 200 and len(mutants) > built > 100, built
    assert any(not oracles.reference_check_module_functor(d).ok
               for chain in mutants for d in chain)


def reference_build_two_span(ad):
    """build_two_span with its mismatch pre-check and each span's action
    lift through the guarded lookup."""
    fd, gd = ad.dom, ad.cod
    if fd.dom != gd.dom or fd.cod != gd.cod:
        raise StructureError("module transformation between mismatched functors")
    cell = build_two_span(ad)
    for d, span in ((fd, cell.top), (gd, cell.bottom)):
        assert oracles.guarded_action_lift(d, span) == span.action_lift
    return cell


@pytest.mark.parametrize("copy", COPIES)
def test_two_spans_agree_with_the_parent_route(copy):
    rename = Renamer(copy)
    cases = [rename.nattrans(ad) for _, ad in corpus.nattrans_corpus()]
    # over the corpus modules: each gated family with its identity, and with
    # the identity of f into the next family over the same f
    for _, ad in corpus.nattrans_corpus():
        families = gated_families(ad.dom.dom, ad.dom.cod)
        for fd, gd in zip(families, families[1:] + families[:1]):
            cases.append(ModuleNatTransData(fd, fd, identity_nat_trans(fd.f)))
            if gd.f == fd.f:
                cases.append(ModuleNatTransData(fd, gd, identity_nat_trans(fd.f)))
    built = 0
    for ad in cases:
        got = outcome(lambda: build_two_span(ad))
        assert got == outcome(lambda: reference_build_two_span(ad))
        built += not isinstance(got, tuple)
    assert len(cases) > built > 0


@pytest.mark.parametrize("copy", COPIES)
def test_normalization_agrees_with_the_parent_route(copy):
    rename = Renamer(copy)
    for name in MODULES:
        md = getattr(corpus, name)()
        if rename.relabel is not None:
            md = rename.relabel.module(md)[0]
        idf = identity_module_functor(md)
        assert idf == oracles.reference_module_functor(md, md, identity_functor(md.carrier))
        assert normalization_check(md) \
            == oracles.retracted_normalization_check(md, B), name
