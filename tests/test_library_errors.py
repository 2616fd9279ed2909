"""The span layer's error contract on seeded mutants of its inputs.

A mutant sets 1-3 entries of a corpus module functor's f (object or
morphism map) to other in-range ids, keeping its transports; a transport
mutant sets one component of one transport to another morphism id.  Every
library route that builds a span from such an input returns or raises a
SpanforgeError, never a KeyError, and refuses an f that is not a functor
with StructureError before it builds anything.

build_span checks the hypotheses of the theorem in its docstring (lawful
carriers, f a functor, each transport an apex object); verify=True also
re-derives the finished cell.  On every corpus cell, on relabelled copies
and over both mutant sweeps the two paths agree: equal cells, or the same
SpanforgeError class.
"""
import random

import pytest

import corpus
from test_pasted_transports import COPIES, Renamer

from spanforge.fincat import (
    Functor,
    NatTrans,
    SpanforgeError,
    StructureError,
    check_functor,
)
from spanforge.laxators import laxator
from spanforge.spans import (
    ModuleFunctorData,
    build_span,
    module_functor,
    module_structures_on,
)


def f_mutant(fd: ModuleFunctorData, rng: random.Random) -> ModuleFunctorData | None:
    """fd with 1-3 entries of f's tables set to other in-range ids of the
    codomain carrier; None when the codomain leaves no other id."""
    cod = fd.cod.carrier
    maps = [list(fd.f.object_map), list(fd.f.morphism_map)]
    sizes = (cod.num_objects, cod.num_morphisms)
    slots = [(k, i) for k in (0, 1) if sizes[k] > 1 for i in range(len(maps[k]))]
    if not slots:
        return None
    for k, i in rng.sample(slots, min(len(slots), rng.randint(1, 3))):
        maps[k][i] = rng.choice([x for x in range(sizes[k]) if x != maps[k][i]])
    f = Functor(fd.f.source, fd.f.target, tuple(maps[0]), tuple(maps[1]))
    return ModuleFunctorData(fd.dom, fd.cod, f, fd.xi)


def transport_mutant(fd: ModuleFunctorData,
                     rng: random.Random) -> ModuleFunctorData | None:
    """fd with one component of one transport set to another morphism id of
    the codomain carrier; None when there is no other id."""
    n_mor = fd.cod.carrier.num_morphisms
    if n_mor < 2:
        return None
    c = rng.randrange(len(fd.xi))
    t = fd.xi[c]
    comps = list(t.components)
    m = rng.randrange(len(comps))
    comps[m] = rng.choice([h for h in range(n_mor) if h != comps[m]])
    xi = fd.xi[:c] + (NatTrans(t.source, t.target, tuple(comps)),) + fd.xi[c + 1:]
    return ModuleFunctorData(fd.dom, fd.cod, fd.f, xi)


def sweep(entries, mutate, count, rng):
    """count seeded mutants of the given module functors, round robin."""
    out = []
    while len(out) < count:
        for fd in entries:
            mutant = mutate(fd, rng)
            if mutant is not None and len(out) < count:
                out.append(mutant)
    return out


def is_functor(f: Functor) -> bool:
    return check_functor(f, cap=1).ok


def outcome(thunk):
    """The result, or the class of the SpanforgeError raised; any other
    exception propagates and fails the test."""
    try:
        return thunk()
    except SpanforgeError as exc:
        return type(exc)


def span_mutants(seed=7, count=200):
    entries = [fd for _, fd in corpus.span_corpus()]
    return sweep(entries, f_mutant, count, random.Random(seed))


def searched_non_functor() -> ModuleFunctorData:
    """arrow-const0 with f's arrow 0 -> 1 sent to the identity at 1: not a
    functor, yet the transport search between f∘P and Q∘f finds a family
    for it when f goes unchecked (one of the rare seeded mutants that does)."""
    fd = dict(corpus.span_corpus())["arrow-const0"]
    f = Functor(fd.f.source, fd.f.target, (0, 0), (0, 2, 0))
    return ModuleFunctorData(fd.dom, fd.cod, f, fd.xi)


def test_every_route_refuses_a_non_functor_f_with_structure_error():
    routes = {
        "build_span": lambda fd: build_span(fd),
        "module_functor": lambda fd: build_span(
            module_functor(fd.dom, fd.cod, fd.f)),
        "module_structures_on": lambda fd: [
            build_span(s) for s in module_structures_on(fd.f, fd.dom, fd.cod)],
    }
    refused = dict.fromkeys(list(routes) + ["laxator"], 0)
    for fd in span_mutants() + [searched_non_functor()]:
        for name, route in routes.items():
            got = outcome(lambda: route(fd))
            if not is_functor(fd.f):
                assert got is StructureError, (name, fd.f)
                refused[name] += 1
    rng = random.Random(7)
    pairs = [(fd, gd) for _, fd, gd in corpus.composable_pairs()]
    for _ in range(100):
        fd, gd = rng.choice(pairs)
        gd_mut = f_mutant(gd, rng)
        if gd_mut is None:
            continue
        got = outcome(lambda: laxator(fd, gd_mut))
        if not is_functor(gd_mut.f):
            assert got is StructureError, gd_mut.f
            refused["laxator"] += 1
    assert all(refused.values()), refused


def test_non_functor_f_is_refused_before_the_span_is_built(monkeypatch):
    import spanforge.spans as spans
    built = []
    monkeypatch.setattr(spans, "pushforward",
                        lambda *args: built.append(args) or None)
    fd = next(m for m in span_mutants(count=20) if not is_functor(m.f))
    with pytest.raises(StructureError, match="not a functor"):
        build_span(fd)
    assert not built


def test_carrier_mismatch_is_refused_by_every_guarded_entry():
    named = dict(corpus.span_corpus())
    fd, other = named["arrow-id"], named["disc2-id"]
    for call in (lambda: build_span(ModuleFunctorData(other.dom, other.cod,
                                                      fd.f, fd.xi)),
                 lambda: module_functor(other.dom, other.cod, fd.f),
                 lambda: module_structures_on(fd.f, other.dom, other.cod)):
        with pytest.raises(StructureError,
                           match="functor does not match the module carriers"):
            call()


def assert_audit_agrees(fd):
    plain = outcome(lambda: build_span(fd))
    audited = outcome(lambda: build_span(fd, verify=True))
    assert plain == audited
    return plain


@pytest.mark.parametrize("copy", COPIES)
def test_audit_accepts_every_corpus_cell(copy):
    rename = Renamer(copy)
    for name, fd in corpus.span_corpus():
        assert not isinstance(assert_audit_agrees(rename.functor(fd)), type), name


def test_audit_agrees_with_the_hypothesis_checks_on_mutants():
    entries = [fd for _, fd in corpus.span_corpus()]
    mutants = span_mutants() + sweep(entries, transport_mutant, 100,
                                     random.Random(2026))
    kinds = {"built": 0, "refused": 0}
    for fd in mutants:
        got = assert_audit_agrees(fd)
        kinds["refused" if isinstance(got, type) else "built"] += 1
    assert all(kinds.values()), kinds
