"""Cells over identity whiskers are identities in the strict model.

Let u, v: T -> X ×_Z Y land in a strict iso-comma with pr1∘u = pr1∘v and
pr2∘u = pr2∘v.  A 2-cell u => v whose whiskers along pr1 and pr2 are
identities lies over (id, id), so the exchange square forces xi_u = xi_v,
and the only apex morphism over (id, id) is the identity: the cell exists
iff u and v agree on objects, and it is then the identity (CWM §II.6).

The laxator coherence cell, the 2-span vertical fillers and the leg
retractions of normalization_check are built on that theorem.  Each must
equal the route through mediate_2cell, compose_mon_functors and the leg
comparisons (tests/oracles.py), on the corpus and on a copy whose module
carriers are relabelled.  The theorem itself is tested against the public
mediator on the span-corpus fiber products that hold two objects over one
pair of endofunctors.
"""
import pytest

import corpus
import oracles
from test_module_laws import MODULES
from test_pasted_transports import COPIES, Renamer

from spanforge.fincat import (
    DEFAULT_BUDGET,
    MediationError,
    compose_functors,
    discrete_category,
    identity_functor,
    identity_nat_trans,
    lift_functor,
)
from spanforge.laxators import laxator_coherence, normalization_check
from spanforge.limits import mediate_2cell
from spanforge.spans import build_span, build_two_span

STACKED = ("point-into-bz2", "bz2-id", "bz2-collapse", "arrow-into-bz2",
           "z2-trivial-bz2-id", "z2-trivial-bz2-twisted")


@pytest.mark.parametrize("copy", COPIES)
def test_coherence_cells_are_the_mediated_ones(copy):
    rename = Renamer(copy)
    for name, fd, gd, hd in corpus.composable_triples():
        result = laxator_coherence(*(rename.functor(d) for d in (fd, gd, hd)))
        assert (result.coherence_cell, result.cell_is_identity, result.cell_report) \
            == oracles.mediated_coherence_cell(result, DEFAULT_BUDGET), name


@pytest.mark.parametrize("copy", COPIES)
def test_vertical_fillers_are_the_pasted_ones(copy):
    rename = Renamer(copy)
    for name, ad in corpus.nattrans_corpus():
        cell = build_two_span(rename.nattrans(ad))
        assert cell.vertical_fillers == oracles.pasted_vertical_fillers(cell), name


@pytest.mark.parametrize("copy", COPIES)
def test_normalization_agrees_with_the_leg_retractions(copy):
    rename = Renamer(copy)
    for name in MODULES:
        md = getattr(corpus, name)()
        if rename.relabel is not None:
            md = rename.relabel.module(md)[0]
        assert normalization_check(md) \
            == oracles.retracted_normalization_check(md, DEFAULT_BUDGET), name


def stacked_pairs(fp):
    """Each (a, b) of distinct apex objects over one pair (P, Q)."""
    return [(a, b) for a, (p, q, _) in enumerate(fp.objects)
            for b, (p2, q2, _) in enumerate(fp.objects)
            if a != b and (p, q) == (p2, q2)]


def test_the_stacked_fiber_products_are_the_named_six():
    assert tuple(name for name, fd in corpus.span_corpus()
                 if stacked_pairs(build_span(fd).fp)) == STACKED


@pytest.mark.parametrize("name", STACKED)
def test_the_apex_identity_has_only_the_identity_cell(name):
    fp = build_span(dict(corpus.span_corpus())[name]).fp
    u = identity_functor(fp.apex)
    g1, g2 = identity_nat_trans(fp.pr1), identity_nat_trans(fp.pr2)
    assert mediate_2cell(fp, u, u, g1, g2) == identity_nat_trans(u)
    arrows = list(zip(fp.pr1.morphism_map, fp.pr2.morphism_map))
    for a, b in stacked_pairs(fp):
        obj_map = list(range(fp.apex.num_objects))
        obj_map[a] = b
        try:
            v = lift_functor(fp.apex, fp.apex, fp.morphism_index, obj_map, arrows,
                             "moved object")
        except MediationError:
            continue
        with pytest.raises(MediationError) as exc:
            mediate_2cell(fp, u, v, g1, g2)
        assert exc.value.witness == (a,), name


@pytest.mark.parametrize("name", STACKED)
def test_points_that_differ_over_identity_whiskers_have_no_cell(name):
    # on the discrete category of apex objects every moved lift exists, so
    # the "only if" half reaches the exchange condition of mediate_2cell
    fp = build_span(dict(corpus.span_corpus())[name]).fp
    n, ident = fp.apex.num_objects, fp.apex.identity
    points = discrete_category(n)
    arrows = [(fp.pr1.morphism_map[ident[x]], fp.pr2.morphism_map[ident[x]])
              for x in points.source]
    u = lift_functor(points, fp.apex, fp.morphism_index, range(n), arrows, "points")
    g1 = identity_nat_trans(compose_functors(fp.pr1, u))
    g2 = identity_nat_trans(compose_functors(fp.pr2, u))
    assert mediate_2cell(fp, u, u, g1, g2) == identity_nat_trans(u)
    for a, b in stacked_pairs(fp):
        obj_map = list(range(n))
        obj_map[a] = b
        v = lift_functor(points, fp.apex, fp.morphism_index, obj_map, arrows,
                         "moved point")
        with pytest.raises(MediationError) as exc:
            mediate_2cell(fp, u, v, g1, g2)
        assert exc.value.witness == (a,), name
