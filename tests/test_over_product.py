"""One monoidal structure over a product.

monoidal.monoidal_over_product builds the monoidal structure of every
category over a product in the library: span and 2-span apexes, monoidal
fiber products and centers.  It fills k0⊗k1 one row of k0 at a time, and
over strict factors whose tensor is associative and unital on objects it
stores the structure strict with no coherence lookup, since a component
from an object to itself over identities is that object's identity (the
functor to the product is faithful; CWM §II.6).

oracles.reference_monoidal_over_product fills each entry through its own
callback and runs every lookup, as the center sites did before the
builder.  The two give == structures, or raise the same StructureError
with the same message, on every call the library makes on the corpus spans
and 2-spans, the laxators and coherence cells, both central routes, the
Drinfeld centers and monoidal centralizers of test_centers.monoidal_cases()
and of skeletal Z/n with Z/n scalars and k times the carry cocycle, and on
seeded mutants of those calls' factors, unit and tensor on objects.
"""
import functools
import random
from dataclasses import replace

import pytest

import corpus
from oracles import explicit_tables, reference_monoidal_over_product
from test_centers import carry_cocycle, monoidal_cases
from test_central import central_setups, s3_twisted_setup

from spanforge import centers, central, laxators, monoidal, spans
from spanforge.centers import drinfeld_center, monoidal_centralizer
from spanforge.fincat import Functor, StructureError
from spanforge.groups import cyclic
from spanforge.monoidal import (
    MonFunctor,
    make_skeletal_group_category,
    monoidal_over_product,
    terminal_monoidal,
)

SITES = (centers, laxators, spans)


def recorded_builds(run, modules=SITES) -> list[list]:
    """[args, kwargs, looked_up] for each monoidal_over_product call that
    run() makes through modules, with whether the call ran its coherence
    lookups, seen as monoidal._with_coherence being given callbacks."""
    calls, inside = [], []
    real_build, real_tail = monoidal.monoidal_over_product, monoidal._with_coherence

    def build(*args, **kwargs):
        calls.append([args, kwargs, False])
        inside.append(calls[-1])
        try:
            return real_build(*args, **kwargs)
        finally:
            inside.pop()

    def tail(*args):
        if inside and args[4] is not None:
            inside[-1][2] = True
        return real_tail(*args)

    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            mp.setattr(module, "monoidal_over_product", build)
        mp.setattr(monoidal, "_with_coherence", tail)
        run()
    return calls


def outcome(build, args, kwargs):
    try:
        return build(*args, **kwargs)
    except StructureError as exc:
        return type(exc), str(exc)


def unit_inclusion(ms):
    unit = terminal_monoidal()
    ident = ms.base.identity[ms.unit]
    return MonFunctor(unit, ms, Functor(unit.base, ms.base, (ms.unit,), (ident,)),
                      (ident,), ident)


def cochain_ambients():
    """Skeletal Z/n with Z/n scalars and k times the carry cocycle: strict
    at k = 0, with non-identity associator components otherwise."""
    return {f"z{n}-carry-{k}": make_skeletal_group_category(
        cyclic(n), cyclic(n), carry_cocycle(n, k)) for n in (2, 3, 4) for k in range(n)}


def ambients():
    return {**monoidal_cases(), **cochain_ambients()}


def center_runs():
    """(name, ambient, run) for the Drinfeld center and the monoidal
    centralizer of the unit inclusion of every ambient."""
    return [(f"{name} {kind}", ms, functools.partial(build, arg))
            for name, ms in ambients().items()
            for kind, build, arg in (("drinfeld", drinfeld_center, ms),
                                     ("unit", monoidal_centralizer, unit_inclusion(ms)))]


@functools.cache
def library_calls():
    """kind -> the builder calls that kind of construction makes."""
    def spans_run():
        for _, fd in corpus.span_corpus():
            spans.build_span(fd)

    def two_spans_run():
        for _, ad in corpus.nattrans_corpus():
            spans.build_two_span(ad)

    def laxators_run():
        for _, fd, gd in corpus.composable_pairs():
            laxators.laxator(fd, gd)
        for _, fd, gd, hd in corpus.composable_triples():
            laxators.laxator_coherence(fd, gd, hd)

    def central_run():
        for setup in [*central_setups().values(), s3_twisted_setup()]:
            central.central_module_check(setup)

    def centers_run():
        for _, _, run in center_runs():
            run()

    return {kind: recorded_builds(run) for kind, run in (
        ("span", spans_run), ("2-span", two_spans_run), ("laxator", laxators_run),
        ("central", central_run), ("center", centers_run))}


def test_the_builder_matches_the_reference_on_every_library_call():
    whats = set()
    for kind, calls in library_calls().items():
        assert calls, kind
        for args, kwargs, _ in calls:
            got = outcome(monoidal_over_product, args, kwargs)
            assert got == outcome(reference_monoidal_over_product, args, kwargs), \
                (kind, args[6])
            whats.add(args[6])
    assert whats == {"span", "2-span", "monoidal fiber", "center"}, whats
    assert {kind: len(calls) for kind, calls in library_calls().items()} == {
        "span": 23, "2-span": 13, "laxator": 120, "central": 23, "center": 40}


def test_the_shortcut_fires_over_strict_factors_with_a_strict_tensor():
    # every span, 2-span and fiber product of the corpus and the central
    # setups lies over strict factors, and its tensor is strict on objects
    for kind in ("span", "2-span", "laxator", "central"):
        calls = library_calls()[kind]
        assert all(ms.strict for args, _, _ in calls for ms in args[1]), kind
        assert not any(looked_up for _, _, looked_up in calls), kind


def test_the_shortcut_fires_on_strict_ambient_centers():
    fired, looked = set(), set()
    for name, ms, run in center_runs():
        calls = recorded_builds(run)
        assert len(calls) == 1, name
        (fired, looked)[calls[0][2]].add(name)
        assert calls[0][2] is not ms.strict, name
    assert {"discrete-q8 drinfeld", "toric-z2 drinfeld", "z4-carry-0 drinfeld",
            "idempotent unit"} <= fired
    assert {"twisted-z2 drinfeld", "z3-carry-1 drinfeld", "z4-carry-2 unit"} <= looked


def changed_at(tensor, pair, value, x, y):
    return value if (x, y) == pair else tensor(x, y)


def mutants(calls, rng: random.Random, count: int):
    """(kind, args) with the factors, unit or tensor on objects of a call
    changed: a factor given explicit coherence tables ("explicit"), one
    entry of them set to another morphism ("coherence"), one entry of its
    morphism tensor set to another morphism ("tensor"), the unit set to
    another object ("unit"), or one value of on_objects set to another
    object ("objects")."""
    out = []
    for _ in range(count):
        args = list(rng.choice(calls)[0])
        base, factors = args[0], list(args[1])
        i = rng.randrange(len(factors))
        ms = factors[i]
        m = ms.base.num_morphisms
        kind = rng.choice(("explicit", "coherence", "tensor", "unit", "objects"))
        if kind == "explicit":
            factors[i] = explicit_tables(ms)
        elif kind == "coherence":
            flat = explicit_tables(ms)
            table = rng.choice(("associator", "left_unitor", "right_unitor"))
            entries = list(getattr(flat, table))
            entries[rng.randrange(len(entries))] = rng.randrange(m)
            factors[i] = replace(flat, **{table: tuple(entries)})
        elif kind == "tensor":
            entries = list(ms.tensor_morphisms)
            entries[rng.randrange(len(entries))] = rng.randrange(m)
            factors[i] = replace(ms, tensor_morphisms=tuple(entries))
        elif kind == "unit":
            args[4] = rng.randrange(base.num_objects)
        else:
            x, y, z = (rng.randrange(base.num_objects) for _ in range(3))
            args[5] = functools.partial(changed_at, args[5], (x, y), z)
        args[1] = tuple(factors)
        out.append((kind, args))
    return out


def test_the_builder_matches_the_reference_on_seeded_mutants():
    rng = random.Random(33)
    small = [call for calls in library_calls().values() for call in calls
             if call[0][0].num_morphisms <= 40]
    raised, stored = set(), set()
    for kind, args in mutants(small, rng, 400):
        got = outcome(monoidal_over_product, args, {})
        assert got == outcome(reference_monoidal_over_product, args, {}), kind
        if isinstance(got, tuple):
            raised.add(got[1])
        else:
            stored.add((kind, got.strict))
    laws = ("associator", "left unitor", "right unitor")
    assert raised == {f"{law} {noun} is not an apex morphism"
                      for law in laws for noun in ("pair", "component")} | {
        f"{what} tensor of morphisms left the apex"
        for what in ("span", "2-span", "monoidal fiber", "center")}, raised
    assert {kind for kind, _ in stored} == {
        "explicit", "coherence", "tensor", "unit", "objects"}
    assert {strict for _, strict in stored} == {True, False}
