"""check_monoidal's reduced scans against the exhaustive ones they replace.

check_monoidal checks bifunctoriality of the tensor by Mac Lane's criterion
and associator naturality one variable at a time (CWM §II.3).  The oracle
runs the old scans instead: check_functor on the tensor as a functor out of
the materialised product category, and naturality over all m³ triples.  The
verdicts must agree, and every reduced witness must be a violation that the
oracle reports too, in the same numbering of pairs (f*m + g).
"""
import random
from dataclasses import replace
from pathlib import Path

from corpus import span_corpus
from oracles import exhaustive_check_monoidal
from spanforge.docs import (
    SchemaError,
    decode_braiding,
    decode_mon_functor,
    decode_monoidal,
    parse,
)
from spanforge.fincat import group_as_category
from spanforge.groups import GroupTable, cyclic, klein_four, symmetric_3
from spanforge.monoidal import (
    MonoidalStructure,
    check_monoidal,
    make_discrete_group_category,
    make_skeletal_group_category,
    tabulate_monoidal,
    trivial_cochain,
)
from spanforge.reporting import Report
from spanforge.spans import build_span

DATA = Path(__file__).parent / "data"
FAMILIES = ("tensor-", "associator-naturality")
UNCAPPED = 10 ** 9


def agree(ms) -> Report:
    """Assert that the reduced and exhaustive scans agree on ms: the same
    verdict, the same law families failing, and every reduced witness a
    violation that the oracle reports too.  Naturality is compared only over
    a bifunctorial tensor, the case its reduction covers.  Without a cap the
    two runs pass the same gates, so the families can be compared."""
    reduced = check_monoidal(ms, UNCAPPED)
    full = exhaustive_check_monoidal(ms, UNCAPPED)
    assert reduced.ok == full.ok, (reduced.lines()[:5], full.lines()[:5])
    reported = set(full.violations)
    for family in FAMILIES:
        mine = {v for v in reduced.violations if v.law.startswith(family)}
        theirs = {v for v in full.violations if v.law.startswith(family)}
        assert mine <= reported, sorted(v.render() for v in mine - reported)[:3]
        if family == "tensor-" or not any(v.law.startswith("tensor-")
                                          for v in full.violations):
            assert bool(mine) == bool(theirs), (family, full.lines()[:5])
    return reduced


def corpus_apexes():
    return [build_span(fd).apex for _, fd in span_corpus()]


def corpus_end_categories():
    ends = {}
    for _, fd in span_corpus():
        for md in (fd.dom, fd.cod):
            ends[md.carrier] = md.end.monoidal
    return list(ends.values())


def skeletal_categories():
    z2, z3 = cyclic(2), cyclic(3)
    rng = random.Random(11)
    found = [make_discrete_group_category(g)
             for g in (z2, z3, cyclic(4), klein_four(), symmetric_3())]
    found.append(make_skeletal_group_category(z2, z2, trivial_cochain(z2)))
    found.append(make_skeletal_group_category(z3, z2, trivial_cochain(z3)))
    found.append(make_skeletal_group_category(z2, z3, trivial_cochain(z2)))
    for g, u in ((z2, z2), (z2, z3), (z3, z3)):
        n = g.order
        for _ in range(4):
            omega = tuple(tuple(tuple(rng.randrange(u.order) for _ in range(n))
                                for _ in range(n)) for _ in range(n))
            found.append(make_skeletal_group_category(g, u, omega))
    return found


def fixture_monoidals():
    found = []
    for path in sorted(DATA.glob("*.json")):
        try:
            doc = parse(path.read_text())
        except SchemaError:
            continue
        if doc.kind == "monoidal":
            found.append(decode_monoidal(doc.payload))
        elif doc.kind == "braiding":
            found.append(decode_braiding(doc.payload).on)
        elif doc.kind == "mon_functor":
            mf = decode_mon_functor(doc.payload)
            found.extend((mf.source, mf.target))
    return found


def one_object(group: GroupTable, tensor) -> MonoidalStructure:
    """The group as a one-object category with f⊗g = tensor(f, g) and
    identity coherence cells."""
    base = group_as_category(group.mult)
    return tabulate_monoidal(base, 0, lambda x, y: 0,
                             lambda f, g, s, t: tensor(f, g))


def designed_counterexamples():
    """Each breaks one part of the reduced criteria only.  On S3, f⊗g = g∘f
    and f⊗g = f∘g are functorial in each variable, but one order of the
    interchange fails.  On the Klein group, written as F2², f⊗g = φ(f) + ψ(g)
    for endomorphisms φ, ψ is a bifunctor, and its identity associator is
    natural in the first, second and third variable iff φφ = φ, φψ = ψφ and
    ψψ = ψ respectively; each pair below breaks exactly one of these."""
    s3, klein = symmetric_3(), klein_four()

    def ident(a):
        return a

    def first(a):
        return a & 1

    def both(a):
        return (a & 1) ^ (a >> 1)

    def swap(a):
        return (a & 1) << 1 | a >> 1

    return ([one_object(s3, lambda f, g: s3.mul(g, f)),
             one_object(s3, lambda f, g: s3.mul(f, g))]
            + [one_object(klein, lambda f, g, phi=phi, psi=psi:
                          klein.mul(phi(f), psi(g)))
               for phi, psi in ((swap, ident), (first, both), (ident, swap))])


def test_reduced_scans_agree_on_designed_counterexamples():
    laws = [{v.law for v in agree(ms).violations}
            for ms in designed_counterexamples()]
    assert laws[0] == laws[1] == {"tensor-functor-composition"}
    for found in laws[2:]:
        assert "associator-naturality" in found
        assert not any(law.startswith("tensor-") for law in found)


def test_reduced_scans_agree_on_corpus_apexes():
    for ms in corpus_apexes():
        agree(ms)


def test_reduced_scans_agree_on_corpus_end_categories():
    for ms in corpus_end_categories():
        agree(ms)


def test_reduced_scans_agree_on_skeletal_group_categories():
    for ms in skeletal_categories():
        agree(ms)


def test_reduced_scans_agree_on_fixtures():
    fixtures = fixture_monoidals()
    assert len(fixtures) >= 4
    for ms in fixtures:
        agree(ms)


def mutants(ms, rng: random.Random, count: int):
    """Single-entry mutants of the tensor and associator tables.  Most swap an
    entry for a parallel morphism, so the mutant stays well typed and only
    the composition and naturality laws can catch it."""
    base = ms.base
    m = base.num_morphisms
    for _ in range(count):
        table = rng.choice(("tensor_morphisms", "associator"))
        entries = list(getattr(ms, table))
        i = rng.randrange(len(entries))
        old = entries[i]
        parallel = [f for f in base.hom(base.source[old], base.target[old])
                    if f != old]
        if parallel and rng.random() < 0.75:
            entries[i] = rng.choice(parallel)
        else:
            entries[i] = rng.choice([f for f in range(m) if f != old])
        yield replace(ms, **{table: tuple(entries)})


def test_reduced_scans_agree_on_mutants():
    rng = random.Random(2024)
    bases = [ms for ms in (corpus_apexes() + corpus_end_categories()
                           + skeletal_categories() + fixture_monoidals())
             if 2 <= ms.base.num_morphisms <= 8]
    per_base = -(-2000 // len(bases))
    laws = set()
    verdicts = []
    for ms in bases:
        for mutant in mutants(ms, rng, per_base):
            report = agree(mutant)
            laws.update(v.law for v in report.violations)
            verdicts.append(report.ok)
    assert len(verdicts) >= 2000
    assert True in verdicts and False in verdicts
    assert {"tensor-functor-endpoints", "tensor-functor-composition",
            "associator-naturality"} <= set(laws)
