"""Pasted transports read off comp tables, against the whiskered formulas.

The span layer computes each pasting of module-functor transports as one or
two comp lookups per component and looks it up by the ids of its two ends.
Every such id must be the id of the transformation that whiskering and
vertical composition give (tests/oracles.py): the apex tensor on every pair
of objects of the 23 corpus spans, the laxator comparison on every pairing
object of the composable pairs, of the four laxators of each triple and of
the six pairs that each quadruple pasting collapses, the 2-span fillers and
compose_module_functors.  Each runs on the corpus and on a copy whose
module carriers are relabelled.  The build_span counts pin that each call
builds each of its spans once.
"""
import random

import pytest

import corpus
import oracles
from test_relabel_invariance import Relabeler

from spanforge import laxators, spans
from spanforge.fincat import NatTrans, compose_functors, pullback, pushforward
from spanforge.laxators import (
    _composite_transport,
    laxator_coherence,
    quadruple_pasting_check,
)
from spanforge.spans import (
    ModuleNatTransData,
    build_span,
    build_two_span,
    compose_module_functors,
)

COPIES = ("corpus", "relabelled")


class Renamer:
    """The identity on the corpus copy; one seeded Relabeler otherwise, so
    module functors that compose in the corpus compose after renaming."""

    def __init__(self, copy: str):
        self.relabel = Relabeler(random.Random(1)) if copy == "relabelled" else None

    def functor(self, fd):
        return fd if self.relabel is None else self.relabel.module_functor(fd)

    def nattrans(self, ad):
        if self.relabel is None:
            return ad
        fd, gd = self.functor(ad.dom), self.functor(ad.cod)
        dperm = self.relabel.module(ad.dom.dom)[1]
        cperm = self.relabel.module(ad.dom.cod)[1]
        comps = [0] * len(ad.a.components)
        for x, m in enumerate(ad.a.components):
            comps[dperm[0][x]] = cperm[1][m]
        return ModuleNatTransData(fd, gd, NatTrans(fd.f, gd.f, tuple(comps)))


def composite(gd, fd):
    """compose_module_functors, checked against the whiskered composite."""
    gf = compose_module_functors(gd, fd)
    assert gf == oracles.whiskered_compose_module_functors(gd, fd)
    return gf


def assert_composite_transports(fd, gd):
    """Every comparison a laxator of (fd, gd) pastes, over every pairing
    object (af, ag, w: Q_f ≅ P_g); returns the composite."""
    span_f, span_g = build_span(fd, verify=False), build_span(gd, verify=False)
    gf = composite(gd, fd)
    span_gf = build_span(gf, verify=False)
    middle = fd.cod.end.fc
    checked = 0
    for af, (_, qf, x0) in enumerate(span_f.apex_objects):
        t1 = span_f.hom_fc.transformations[x0]
        for ag, (pg, _, x1) in enumerate(span_g.apex_objects):
            t2 = span_g.hom_fc.transformations[x1]
            for w in middle.as_category.isos(qf, pg):
                total = oracles.whiskered_composite_transport(
                    fd, gd, t1, t2, middle.transformations[w])
                assert _composite_transport(fd, gd, span_f, span_g, span_gf,
                                            af, ag, w) \
                    == span_gf.hom_fc.transformation_id(total)
                checked += 1
    assert checked
    return gf


@pytest.mark.parametrize("copy", COPIES)
def test_apex_tensor_pastes_like_the_whiskered_transport(copy):
    rename = Renamer(copy)
    for name, fd in corpus.span_corpus():
        fd = rename.functor(fd)
        cell = build_span(fd, verify=False)
        fc, end_m, end_n = cell.hom_fc, fd.dom.end, fd.cod.end
        objs = cell.apex_objects
        for a0, (p0, q0, x0) in enumerate(objs):
            for a1, (p1, q1, x1) in enumerate(objs):
                pasted = oracles.whiskered_apex_transport(
                    fc.transformations[x0], fc.transformations[x1],
                    end_m.fc.functors[p1], end_n.fc.functors[q0])
                expected = (end_m.monoidal.tensor_obj(p0, p1),
                            end_n.monoidal.tensor_obj(q0, q1),
                            fc.transformation_id(pasted))
                assert objs[cell.apex.tensor_obj(a0, a1)] == expected, (name, a0, a1)


@pytest.mark.parametrize("copy", COPIES)
def test_laxator_comparisons_paste_like_the_whiskered_transport(copy):
    rename = Renamer(copy)
    for _, fd, gd in corpus.composable_pairs():
        assert_composite_transports(rename.functor(fd), rename.functor(gd))
    for _, fd, gd, hd in corpus.composable_triples():
        fd, gd, hd = (rename.functor(d) for d in (fd, gd, hd))
        gf = assert_composite_transports(fd, gd)
        hg = assert_composite_transports(gd, hd)
        assert assert_composite_transports(gf, hd) \
            == assert_composite_transports(fd, hg)


@pytest.mark.parametrize("copy", COPIES)
def test_quadruple_collapses_paste_like_the_whiskered_transport(copy):
    rename = Renamer(copy)
    for _, fd, gd, hd, kd in corpus.composable_quadruples():
        fd, gd, hd, kd = (rename.functor(d) for d in (fd, gd, hd, kd))
        gf = assert_composite_transports(fd, gd)
        hgf = assert_composite_transports(gf, hd)
        total = assert_composite_transports(hgf, kd)
        kh = assert_composite_transports(hd, kd)
        khg = assert_composite_transports(gd, kh)
        assert assert_composite_transports(fd, khg) == total


@pytest.mark.parametrize("copy", COPIES)
def test_two_span_filler_pastes_like_the_whiskered_transport(copy):
    rename = Renamer(copy)
    for name, ad in corpus.nattrans_corpus():
        ad = rename.nattrans(ad)
        cell = build_two_span(ad, verify=False)
        fc, end_m, end_n = cell.hom_fc, ad.dom.dom.end, ad.dom.cod.end
        comps = tuple(
            fc.transformation_id(oracles.whiskered_filler_transport(
                end_n.fc.functors[q], ad.a, fc.transformations[x_f]))
            for _, q, x_f, _ in cell.apex_objects)
        expected = NatTrans(
            compose_functors(pushforward(ad.dom.f, end_m.fc, fc),
                             cell.leg_left.underlying),
            compose_functors(pullback(ad.cod.f, end_n.fc, fc),
                             cell.leg_right.underlying),
            comps)
        assert cell.filler == expected, name


def test_each_span_is_built_once_per_call(monkeypatch):
    built = []
    real = spans.build_span

    def counted(fd, *args, **kwargs):
        built.append(fd)
        return real(fd, *args, **kwargs)

    monkeypatch.setattr(spans, "build_span", counted)
    monkeypatch.setattr(laxators, "build_span", counted)
    for name, fd, gd, hd in corpus.composable_triples():
        built.clear()
        laxator_coherence(fd, gd, hd)
        assert len(built) == 6, name  # f, g, h, gf, hg, hgf
    for name, fd, gd, hd, kd in corpus.composable_quadruples():
        built.clear()
        quadruple_pasting_check(fd, gd, hd, kd)
        assert len(built) == 9, name  # four, gf and kh, two triples, total
    same = 0
    for name, ad in corpus.nattrans_corpus():
        built.clear()
        build_two_span(ad)
        assert len(built) == (1 if ad.dom == ad.cod else 2), name
        same += ad.dom == ad.cod
    assert same == 5
