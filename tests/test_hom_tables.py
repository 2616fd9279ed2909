"""FinCategory's hom and inverse tables against the per-call scans they
replaced (oracles.scan_hom, oracles.scan_inverse): the same hom-sets in the
same order, the same first inverse on lawful and lawless tables, and the
same exception type wherever a scan raises on a malformed table."""
from __future__ import annotations

import hashlib
import random
from dataclasses import fields, replace
from pathlib import Path

import pytest
from corpus import span_corpus
from oracles import scan_hom, scan_inverse
from spanforge import cli, docs, spans
from spanforge.cli import main
from spanforge.docs import (
    Document,
    decode_category,
    encode_category,
    parse,
    serialize,
)
from spanforge.fincat import (
    FinCategory,
    StructureError,
    chain_category,
    discrete_category,
    group_as_category,
    walking_arrow,
)
from spanforge.groups import cyclic, klein_four, symmetric_3
from spanforge.monoidal import Braiding, MonoidalStructure, check_braiding
from spanforge.spans import build_span

DATA = Path(__file__).parent / "data"
TABLES = ("hom_table", "inverse_table")


def outcome(fn, *args):
    """The value fn returns, or the type of the exception it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raises", type(exc)


def scan_isos(c: FinCategory, x: int, y: int) -> tuple[int, ...]:
    return tuple(f for f in scan_hom(c, x, y) if scan_inverse(c, f) is not None)


def assert_agree(c: FinCategory) -> None:
    """Every query, dangling ids and the wrapping index -1 included."""
    n, m = c.num_objects, c.num_morphisms
    for x in range(-1, n + 1):
        for y in range(-1, n + 1):
            assert outcome(c.hom, x, y) == outcome(scan_hom, c, x, y), (x, y)
            assert outcome(c.isos, x, y) == outcome(scan_isos, c, x, y), (x, y)
    for f in range(-1, m + 1):
        assert outcome(c.inverse, f) == outcome(scan_inverse, c, f), f
        assert outcome(c.is_iso, f) \
            == outcome(lambda f=f: scan_inverse(c, f) is not None), f


def fresh(c: FinCategory) -> FinCategory:
    """An equal category whose tables are not built yet."""
    return FinCategory(c.num_objects, c.source, c.target, c.identity, c.comp)


def corpus_categories() -> list[FinCategory]:
    found = {}
    for _, fd in span_corpus():
        for md in (fd.dom, fd.cod):
            found[md.carrier] = None
            found[md.end.monoidal.base] = None
            found[md.acting.base] = None
    return [fresh(c) for c in found]


def test_tables_agree_on_corpus_carriers_and_end_categories():
    for c in corpus_categories():
        assert_agree(c)


def test_tables_agree_on_the_span_apexes():
    apexes = [fresh(build_span(fd).apex.base) for _, fd in span_corpus()]
    assert len(apexes) == 23
    for c in apexes:
        assert_agree(c)


def with_composite(c: FinCategory, g: int, f: int, h: int) -> FinCategory:
    rows = [list(row) for row in c.comp]
    rows[g][f] = h
    return FinCategory(c.num_objects, c.source, c.target, c.identity,
                       tuple(tuple(row) for row in rows))


def two_sided(c: FinCategory, f: int) -> list[int]:
    x, y = c.source[f], c.target[f]
    return [g for g in scan_hom(c, y, x)
            if c.comp[g][f] == c.identity[x] and c.comp[f][g] == c.identity[y]]


def left_but_no_right(c: FinCategory, f: int) -> bool:
    x, y = c.source[f], c.target[f]
    back = scan_hom(c, y, x)
    return any(c.comp[g][f] == c.identity[x] for g in back) \
        and not any(c.comp[f][g] == c.identity[y] for g in back)


def test_tables_agree_on_single_entry_composition_mutants():
    bases = [group_as_category(g.mult)
             for g in (cyclic(2), cyclic(3), cyclic(4), klein_four(), symmetric_3())]
    bases += [walking_arrow(), chain_category(3), discrete_category(2),
              FinCategory(1, (0, 0), (0, 0), (0,), ((0, 1), (1, 1)))]
    bases += [c for c in corpus_categories() if c.num_morphisms <= 12]
    rng = random.Random(909)
    two_candidates = left_only = 0
    for _ in range(2400):
        c = rng.choice(bases)
        m = c.num_morphisms
        g, f = rng.randrange(m), rng.randrange(m)
        h = rng.choice([v for v in range(-1, m) if v != c.comp[g][f]])
        mutant = with_composite(c, g, f, h)
        assert_agree(mutant)
        two_candidates += any(len(two_sided(mutant, k)) > 1 for k in range(m))
        left_only += any(left_but_no_right(mutant, k) for k in range(m))
    assert two_candidates > 0 and left_only > 0, (two_candidates, left_only)


def test_first_ascending_inverse_wins_and_one_sided_inverses_do_not_count():
    z3 = group_as_category(cyclic(3).mult)
    # 1∘1 = e as well as 1∘2 = 2∘1 = e: both 1 and 2 invert 1
    both = with_composite(z3, 1, 1, 0)
    assert two_sided(both, 1) == [1, 2]
    assert both.inverse(1) == 1 == scan_inverse(both, 1)
    # 2∘1 = e but 1∘2 = 1: 2 is only a left inverse of 1
    left = with_composite(z3, 1, 2, 1)
    assert left_but_no_right(left, 1)
    assert left.inverse(1) is None and not left.is_iso(1)
    assert_agree(both)
    assert_agree(left)


def test_building_the_tables_changes_no_equality_hash_repr_or_document():
    assert [fd.name for fd in fields(FinCategory)] \
        == ["num_objects", "source", "target", "identity", "comp"]
    samples = corpus_categories()[:6] + [fresh(build_span(fd).apex.base)
                                         for _, fd in span_corpus()[:4]]
    for c in samples:
        twin = fresh(c)
        before = (repr(c), hash(c), c == twin,
                  serialize(Document("category", encode_category(c))))
        assert not any(name in c.__dict__ for name in TABLES)
        c.inverse(0)
        assert all(name in c.__dict__ for name in TABLES)
        after = (repr(c), hash(c), c == twin,
                 serialize(Document("category", encode_category(c))))
        assert before == after
        assert before[2] and twin == c and hash(twin) == hash(c)


def test_decode_category_builds_no_table():
    c = decode_category(parse((DATA / "walking_arrow.json").read_text()).payload)
    assert not any(name in c.__dict__ for name in TABLES)


def dangling_cases() -> list[FinCategory]:
    """Z/2 (e = 0, a = 1) with extra morphisms whose endpoints dangle."""
    e_a = ((0, 1), (1, 0))
    # k: 5 -> 0 and j: 0 -> 5; the scan for k reads identity[5] and raises
    k_j = FinCategory(1, (0, 0, 5, 0), (0, 0, 0, 5), (0,),
                      ((0, 1, -1, 3), (1, 0, -1, 3), (-1, -1, -1, -1),
                       (-1, -1, 0, -1)))
    # k: -1 -> 0 and j: 0 -> -1; identity[-1] wraps, so nothing raises
    wrapping = FinCategory(1, (0, 0, -1, 0), (0, 0, 0, -1), (0,), k_j.comp)
    # a short composition row on an unrelated morphism
    short = FinCategory(1, (0, 0, 0), (0, 0, 0), (0,),
                        (e_a[0] + (2,), e_a[1] + (2,), (2,)))
    return [k_j, wrapping, short]


def test_a_dangling_morphism_does_not_break_the_others():
    for c in dangling_cases():
        c.hom_table, c.inverse_table  # building them never raises
        for f in (0, 1):
            assert outcome(c.inverse, f) == outcome(scan_inverse, c, f)
        assert c.inverse(1) == scan_inverse(c, 1) == 1
        assert_agree(c)
    k_j, _, short = dangling_cases()
    assert outcome(k_j.inverse, 2) == ("raises", IndexError)
    assert outcome(short.inverse, 2) == ("raises", IndexError)


def short_row_braiding() -> Braiding:
    """A braiding whose component 2: 0 -> 0 at (0, 0) is well typed and
    whose inverse scan reads past its short composition row; the ill-typed
    component 1 at (0, 1) would fill a cap of one after it."""
    base = FinCategory(2, (0, 1, 0), (0, 1, 0), (0, 1),
                       ((0, -1, 2), (-1, 1, -1), (2,)))
    assert base.inverse_table == (0, 1, -1)
    return Braiding(MonoidalStructure(base, (0, 0, 0, 0), (0,) * 9, 0, (0,) * 8,
                                      (0, 1), (0, 1)), (2, 1, 0, 0))


def test_a_checker_raises_where_the_inverse_scan_raises():
    b = short_row_braiding()
    with pytest.raises(IndexError):
        check_braiding(b, cap=1)
    # a dangling tensor object is refused before any component is read
    with pytest.raises(StructureError, match="dangling id 5"):
        check_braiding(replace(b, on=replace(b.on, tensor_objects=(5, 0, 0, 0))), cap=1)


def count_calls(monkeypatch, names):
    """Count calls of each named function wherever spans, docs or cli
    binds it; the returned dict is live."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(spans if hasattr(spans, name) else docs, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in (spans, docs, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


# sha256 of stdout of `spanforge --report MODE build-span` on the arrow
# identity module functor, before its module was decoded once
BUILD_SPAN_STDOUT = {
    "human": "74d6c8dd557b0178e8d39f5f5b82e6f067cdda2caf1c99d3e2715963513ce0cb",
    "structured": "cfa5b7697b3ab492bd4a13cc42e42aa1e81ad4b0e0fcce30b0fa51b90633bec3",
}


def test_endofunctor_document_decodes_its_module_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, ("end_monoidal", "functor_category"))
    for mode, digest in BUILD_SPAN_STDOUT.items():
        calls.update(end_monoidal=0, functor_category=0)
        code = main(["--report", mode, "build-span",
                     str(DATA / "arrow_identity_module_functor.json")])
        out = capsys.readouterr().out
        assert code == 0
        # Fun(M, M) once, for the End category, which the span reuses
        assert calls == {"end_monoidal": 1, "functor_category": 1}
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of `spanforge --report MODE build-2span` on the const-0 to
# identity module transformation, before each module tree of a document was
# decoded once
BUILD_2SPAN_STDOUT = {
    "human": "2a90c6e7c331b8bca974278c764fbd4c6f12f594d2bde1b990f62edd53d92077",
    "structured": "d66011aa17fe8a063bb736e3c2e5d19d31dc579a5738105e1ee97c9f5e7eeaa9",
}


def test_nattrans_document_decodes_each_module_once(monkeypatch, capsys):
    # all four module trees of the document are one module: one decode, one
    # End category, and Fun(M, M) once, which both spans reuse
    names = ("decode_module", "end_monoidal", "functor_category")
    calls = count_calls(monkeypatch, names)
    for mode, digest in BUILD_2SPAN_STDOUT.items():
        calls.update(dict.fromkeys(names, 0))
        code = main(["--report", mode, "build-2span",
                     str(DATA / "arrow_const0_to_id_module_nattrans.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert calls == {"decode_module": 1, "end_monoidal": 1,
                         "functor_category": 1}
        assert hashlib.sha256(out.encode()).hexdigest() == digest
