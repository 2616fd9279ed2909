"""The laxator and 2-span layers lift each functor along its outer legs.

A functor into a category cut out of a product is fixed by its object map
and its two factor functors, because the category's functor to the product
is faithful (CWM §II.6).  The laxator comparison, the two ends u and v of
each coherence cell and the 2-span vertical legs are built that way, with no
limits.mediate call; the cells over identity whiskers are built as
identities (test_identity_cells), so those layers and normalization_check
make no limits.mediate_2cell call either.  Each functor must equal the one
the mediator and the reassociation route give (tests/oracles.py), on the
corpus and on a copy whose module carriers are relabelled.
"""
import pytest

import corpus
import oracles
from test_module_laws import MODULES
from test_pasted_transports import COPIES, Renamer

from spanforge import laxators, limits, spans
from spanforge.fincat import DEFAULT_BUDGET, identity_functor, identity_nat_trans
from spanforge.laxators import (
    laxator,
    laxator_coherence,
    normalization_check,
    quadruple_pasting_check,
)
from spanforge.spans import build_span, build_two_span


def assert_mediated_comparison(fd, gd, lax, name):
    assert lax.comparison.underlying == oracles.mediated_comparison(fd, gd, lax), name


@pytest.mark.parametrize("copy", COPIES)
def test_laxator_comparisons_are_the_mediated_ones(copy):
    rename = Renamer(copy)
    for name, fd, gd in corpus.composable_pairs():
        fd, gd = rename.functor(fd), rename.functor(gd)
        assert_mediated_comparison(fd, gd, laxator(fd, gd), name)


@pytest.mark.parametrize("copy", COPIES)
def test_coherence_ends_are_the_reassociated_routes(copy):
    rename = Renamer(copy)
    for name, fd, gd, hd in corpus.composable_triples():
        fd, gd, hd = (rename.functor(d) for d in (fd, gd, hd))
        result = laxator_coherence(fd, gd, hd)
        gf, hg = result.lax_fg.composite, result.lax_gh.composite
        for (a, b), lax in (((fd, gd), result.lax_fg), ((gd, hd), result.lax_gh),
                            ((gf, hd), result.lax_gf_h), ((fd, hg), result.lax_f_hg)):
            assert_mediated_comparison(a, b, lax, name)
        u, v = oracles.reassociated_coherence_ends(result, DEFAULT_BUDGET)
        cell = result.coherence_cell
        assert (cell.source.underlying, cell.target.underlying) == (u, v), name


@pytest.mark.parametrize("copy", COPIES)
def test_two_span_vertical_legs_are_the_mediated_ones(copy):
    rename = Renamer(copy)
    for name, ad in corpus.nattrans_corpus():
        cell = build_two_span(rename.nattrans(ad))
        assert tuple(leg.underlying for leg in cell.vertical_legs) \
            == oracles.mediated_vertical_legs(cell), name


def test_laxator_and_two_span_layers_make_no_mediate_call(monkeypatch):
    calls = {"mediate": [], "mediate_2cell": []}

    def counting(name):
        real = getattr(limits, name)

        def counted(*args):
            calls[name].append(args)
            return real(*args)
        return counted

    for name in calls:
        counted = counting(name)
        for module in (limits, spans, laxators):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for _, fd, gd in corpus.composable_pairs():
        laxator(fd, gd)
    for _, fd, gd, hd in corpus.composable_triples():
        laxator_coherence(fd, gd, hd)
    for _, fd, gd, hd, kd in corpus.composable_quadruples():
        quadruple_pasting_check(fd, gd, hd, kd)
    for _, ad in corpus.nattrans_corpus():
        build_two_span(ad)
    for name in MODULES:
        normalization_check(getattr(corpus, name)())
    assert calls == {"mediate": [], "mediate_2cell": []}
    # the counters see a call through the module
    fp = build_span(dict(corpus.span_corpus())["bz2-id"]).fp
    limits.mediate(fp, fp.pr1, fp.pr2, fp.filler)
    u = identity_functor(fp.apex)
    limits.mediate_2cell(fp, u, u, identity_nat_trans(fp.pr1),
                         identity_nat_trans(fp.pr2))
    assert [len(c) for c in calls.values()] == [1, 1]
