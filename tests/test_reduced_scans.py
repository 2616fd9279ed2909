"""check_monoidal's reduced scans against the exhaustive ones they replace.

check_monoidal checks bifunctoriality of the tensor by Mac Lane's criterion
and associator naturality one variable at a time (CWM §II.3), and it skips
every coherence instance whose two paths lie in a hom-set with at most one
morphism (CWM §I.2).  The oracle runs the old scans instead: check_functor
on the tensor as a functor out of the materialised product category,
naturality over all m³ triples, and every unitor-naturality, pentagon and
triangle instance composed.  The verdicts must agree, every reduced witness
must be a violation that the oracle reports too, in the same numbering of
pairs (f*m + g), and every other law must fail at the same witnesses in the
same order.  agree() runs on the corpus apexes, End categories, skeletal
group categories, fixtures, designed counterexamples and 2,000 seeded
mutants; test_reference_checkers builds the pools of the apexes, End
categories and mutants and runs agree() once per distinct structure.
"""
import random
from dataclasses import replace
from pathlib import Path

from corpus import span_corpus
from oracles import exhaustive_check_monoidal, explicit_tables
from spanforge.docs import (
    SchemaError,
    decode_braiding,
    decode_mon_functor,
    decode_monoidal,
    parse,
)
from spanforge.fincat import FinCategory, check_category, group_as_category
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
    a bifunctorial tensor, the case its reduction covers.  Every law outside
    the two reduced families, the pentagon, triangle and unitor naturality
    among them, must fail at the same witnesses in the same order, so the
    thin-hom-set skip loses none.  Without a cap the two runs pass the same
    gates, so the families can be compared."""
    reduced = check_monoidal(ms, UNCAPPED)
    full = exhaustive_check_monoidal(ms, UNCAPPED)
    assert reduced.ok == full.ok, (reduced.lines()[:5], full.lines()[:5])
    assert [v for v in reduced.violations if not v.law.startswith(FAMILIES)] \
        == [v for v in full.violations if not v.law.startswith(FAMILIES)]
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


def with_scalars(ms: MonoidalStructure, twisted=frozenset()) -> MonoidalStructure:
    """ms with a Z/2 of scalars on every morphism: the base becomes
    base × BZ/2, whose morphism (f, a) has id 2f + a; f⊗g adds the scalars,
    and the associator carries the scalar 1 at the triples in twisted.  A
    thin base becomes non-thin, and a twist breaks the pentagon wherever its
    coboundary is non-zero."""
    base = ms.base
    m = base.num_morphisms
    comp = tuple(tuple(-1 if base.comp[g][f] == -1 else 2 * base.comp[g][f] + (a ^ b)
                       for f in range(m) for a in (0, 1))
                 for g in range(m) for b in (0, 1))
    doubled = FinCategory(base.num_objects,
                          tuple(x for x in base.source for _ in (0, 1)),
                          tuple(x for x in base.target for _ in (0, 1)),
                          tuple(2 * f for f in base.identity), comp)
    return tabulate_monoidal(
        doubled, ms.unit, ms.tensor_obj,
        lambda f, g, s, t: 2 * ms.tensor_mor(f // 2, g // 2) + (f + g) % 2,
        associator=lambda x, y, z, s, t: 2 * ms.alpha(x, y, z) + ((x, y, z) in twisted),
        left_unitor=lambda x, s: 2 * ms.unitor(x, True),
        right_unitor=lambda x, s: 2 * ms.unitor(x, False))


def category_from_composites(num_objects: int, arrows, composites) -> FinCategory:
    """arrows lists (source, target) per morphism, the identities first in
    object order; composites maps (g, f) to g∘f for non-identity g and f."""
    m = len(arrows)
    comp = [[-1] * m for _ in range(m)]
    for g, (gs, _) in enumerate(arrows):
        for f, (_, ft) in enumerate(arrows):
            if ft == gs:
                comp[g][f] = g if f < num_objects else f if g < num_objects \
                    else composites[(g, f)]
    return FinCategory(num_objects, tuple(a for a, _ in arrows),
                       tuple(b for _, b in arrows), tuple(range(num_objects)),
                       tuple(tuple(row) for row in comp))


def parallel_pair_with_swap() -> FinCategory:
    """Objects 0 and 1, arrows a, b: 0 -> 1 and an involution s of 1 that
    swaps them: hom(0, 1) and hom(1, 1) hold two morphisms each, hom(0, 0)
    one and hom(1, 0) none."""
    a, b, swap = 2, 3, 4
    return category_from_composites(
        2, [(0, 0), (1, 1), (0, 1), (0, 1), (1, 1)],
        {(swap, a): b, (swap, b): a, (swap, swap): 1})


def unit_adjoined(c: FinCategory, twisted=frozenset()) -> MonoidalStructure:
    """c with a unit object I adjoined and x⊗y = x, f⊗g = f for x, f in c
    (I⊗y = y, id_I⊗g = g): a strict monoidal structure on any category.
    The associator at a triple (x, y, z) in twisted is the non-identity
    endomorphism of (x⊗y)⊗z instead of the identity."""
    n, m = c.num_objects, c.num_morphisms
    comp = tuple(row + (-1,) for row in c.comp) + ((-1,) * m + (m,),)
    base = FinCategory(n + 1, c.source + (n,), c.target + (n,), c.identity + (m,), comp)

    def associator(x, y, z, s, t):
        if (x, y, z) in twisted:
            return next(f for f in c.hom(s, s) if f != c.identity[s])
        return base.identity[s]

    return tabulate_monoidal(base, n, lambda x, y: x if x < n else y,
                             lambda f, g, s, t: f if f < m else g,
                             associator=associator)


def mixed_thin_bases():
    """Bases with thin and non-thin hom-sets side by side: three lawful ones
    (the twist on BZ/2 is a 3-cocycle), then two whose single twisted
    associator component breaks the pentagon."""
    pair, bz2 = parallel_pair_with_swap(), group_as_category(cyclic(2).mult)
    return [unit_adjoined(pair), unit_adjoined(bz2), unit_adjoined(bz2, {(0, 0, 0)}),
            unit_adjoined(pair, {(1, 0, 2)}), unit_adjoined(pair, {(1, 1, 1)})]


def retract_magma(seed: int = 0) -> MonoidalStructure:
    """A well-typed but lawless structure whose coherence instances run
    between non-isomorphic objects.  The base has objects 0, 1 and a unit I,
    with 0 a retract of 1 in two ways: sections a, b: 0 -> 1, one
    retraction c: 1 -> 0 and the idempotents a∘c, b∘c, so hom(0, 1) holds
    two morphisms and hom(1, 0) one.  x⊗y = 1 - x on {0, 1} and 0⊗I = 1;
    every tensor entry, associator and right unitor component is a seeded
    choice from its hom-set, so none need be invertible."""
    a, b, c, e1, e2 = 3, 4, 5, 6, 7
    base = category_from_composites(
        3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 1), (1, 0), (1, 1), (1, 1)],
        {(c, a): 0, (c, b): 0, (a, c): e1, (b, c): e2, (e1, e1): e1,
         (e1, e2): e1, (e2, e1): e2, (e2, e2): e2, (e1, a): a, (e1, b): a,
         (e2, a): b, (e2, b): b, (c, e1): c, (c, e2): c})
    unit = 2
    rng = random.Random(seed)

    def tensor(x, y):
        return y if x == unit else 1 if y == unit else 1 - x

    def pick(s, t):
        return rng.choice(base.hom(s, t))

    return tabulate_monoidal(base, unit, tensor, lambda f, g, s, t: pick(s, t),
                             associator=lambda x, y, z, s, t: pick(s, t),
                             right_unitor=lambda x, s: pick(s, x))


def unitor_counterexamples():
    """The unit-adjoined parallel pair with id_I⊗a or a⊗id_I sent to b: the
    left or right unitor square at a fails in hom(0, 1), which holds two
    morphisms, while hom(0, 0) holds one."""
    ms = unit_adjoined(parallel_pair_with_swap())
    m = ms.base.num_morphisms
    id_unit, a, b = ms.base.identity[ms.unit], 2, 3
    found = []
    for pair in ((id_unit, a), (a, id_unit)):
        entries = list(ms.tensor_morphisms)
        entries[pair[0] * m + pair[1]] = b
        found.append(replace(ms, tensor_morphisms=tuple(entries)))
    return found


def test_reduced_scans_agree_where_thin_and_non_thin_hom_sets_meet():
    """Each instance below lies in a hom-set with two morphisms while a
    neighbouring hom-set, with the source or target swapped or repeated,
    holds at most one."""
    left, right = (agree(ms) for ms in unitor_counterexamples())
    assert "left-unitor-naturality" in {v.law for v in left.violations}
    assert "right-unitor-naturality" in {v.law for v in right.violations}
    magma = retract_magma()
    assert check_category(magma.base).ok
    t = magma.tensor_obj
    ends = {"pentagon": lambda w, x, y, z: (t(t(t(w, x), y), z), t(w, t(x, t(y, z)))),
            "triangle": lambda x, y: (t(t(x, magma.unit), y), t(x, y))}
    failed = {(v.law, ends[v.law](*v.witness)) for v in agree(magma).violations
              if v.law in ends}
    assert {("pentagon", (0, 1)), ("triangle", (0, 1))} <= failed


def test_reduced_scans_agree_on_designed_counterexamples():
    laws = [{v.law for v in agree(ms).violations}
            for ms in designed_counterexamples()]
    assert laws[0] == laws[1] == {"tensor-functor-composition"}
    for found in laws[2:]:
        assert "associator-naturality" in found
        assert not any(law.startswith("tensor-") for law in found)


def test_reduced_scans_agree_on_corpus_apexes():
    # test_reference_checkers builds its pools from this module, so it is
    # imported here; it runs agree() once per distinct structure
    from test_reference_checkers import agreed_on
    assert len(agreed_on("corpus apexes")) == 23


def test_reduced_scans_agree_on_corpus_end_categories():
    from test_reference_checkers import agreed_on
    assert agreed_on("corpus End categories")


def test_reduced_scans_agree_on_skeletal_group_categories():
    for ms in skeletal_categories():
        agree(ms)


def test_reduced_scans_agree_on_fixtures():
    fixtures = fixture_monoidals()
    assert len(fixtures) >= 4
    for ms in fixtures:
        agree(ms)


def small_thin_bases():
    return [ms for ms in (corpus_apexes() + corpus_end_categories()
                          + skeletal_categories() + fixture_monoidals())
            if ms.base.num_morphisms <= 8
            and max(len(ms.base.hom(x, y)) for x in range(ms.base.num_objects)
                    for y in range(ms.base.num_objects)) <= 1]


def test_reduced_scans_agree_on_thin_bases_made_non_thin():
    rng = random.Random(7)
    laws = set()
    bases = small_thin_bases()
    assert len(bases) >= 10
    for ms in bases:
        n = ms.base.num_objects
        assert agree(with_scalars(ms)).ok == check_monoidal(ms).ok
        for _ in range(3):
            triple = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            laws.update(v.law for v in agree(with_scalars(ms, {triple})).violations)
    assert {"pentagon", "associator-naturality"} <= laws


def test_reduced_scans_agree_on_mixed_thin_bases():
    reports = [agree(ms) for ms in mixed_thin_bases()]
    assert all(report.ok for report in reports[:3])
    for report in reports[3:]:
        assert "pentagon" in {v.law for v in report.violations}


def mutants(ms, rng: random.Random, count: int):
    """Single-entry mutants of the tensor and associator tables, on ms with
    its coherence tables explicit.  Most swap an entry for a parallel
    morphism, so the mutant stays well typed and only the composition and
    naturality laws can catch it."""
    ms = explicit_tables(ms)
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
    # 2,000 or more mutants of seed 2024: test_reference_checkers.reduced_scan_mutants
    from test_reference_checkers import agreed_on
    reports = agreed_on("reduced-scan mutants")
    verdicts = [report.ok for report in reports]
    assert len(verdicts) >= 2000
    assert True in verdicts and False in verdicts
    assert {"tensor-functor-endpoints", "tensor-functor-composition",
            "associator-naturality", "left-unitor-naturality",
            "right-unitor-naturality", "pentagon", "triangle"} \
        <= {v.law for report in reports for v in report.violations}
