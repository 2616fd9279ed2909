"""The span and central layers' error contract on seeded mutants of their inputs.

A mutant sets 1-3 entries of a corpus module functor's f (object or
morphism map) to other in-range ids, keeping its transports; a transport
mutant sets one component of one transport to another morphism id; a count
mutant drops the last transport or appends a copy of it.  Every public
span-layer entry returns or raises a SpanforgeError on such an input, never
an IndexError or a KeyError; an f that is not a functor, and a transport
count other than one per acting object, are refused with StructureError,
and a refused input is refused before anything is built.

build_span checks the hypotheses of the theorem in its docstring (lawful
carriers, f a functor, each transport an apex object) in one gate, first;
verify=True also re-derives the finished cell.  On every corpus cell, on
relabelled copies and over both mutant sweeps the two paths agree: equal
cells, or the same SpanforgeError class.

check_module_nattrans, and build_two_span through it, refuse a transport
component that is not a morphism id of the codomain carrier.  The central
layer keeps the same contract: central_module and central_module_check
refuse modules of two kinds, short comparisons, phi without the second
candidate, actions with the wrong ends, a non-symmetric base under braided
carriers and a non-setup with StructureError.
"""
import random
from dataclasses import replace

import pytest

import corpus
import oracles
from test_pasted_transports import COPIES, Renamer

from spanforge.central import central_module, central_module_check
from spanforge.fincat import (
    Functor,
    NatTrans,
    SpanforgeError,
    StructureError,
    check_functor,
    identity_nat_trans,
)
from spanforge.laxators import laxator, laxator_coherence, quadruple_pasting_check
from spanforge.monoidal import terminal_monoidal
from spanforge.spans import (
    ModuleFunctorData,
    ModuleNatTransData,
    build_span,
    build_two_span,
    check_module_functor,
    check_module_nattrans,
    compose_module_functors,
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


def count_mutants(fd: ModuleFunctorData) -> list[ModuleFunctorData]:
    """fd with its last transport dropped, and with a copy of it appended."""
    return [ModuleFunctorData(fd.dom, fd.cod, fd.f, xi)
            for xi in (fd.xi[:-1], fd.xi + fd.xi[-1:])]


COUNT_REFUSAL = "one transport per acting object is required"


def functor_routes(m: ModuleFunctorData):
    """Every public span-layer entry that takes one module functor."""
    ident = ModuleNatTransData(m, m, identity_nat_trans(m.f))
    return {"build_span": lambda: build_span(m),
            "module_functor": lambda: module_functor(m.dom, m.cod, m.f, list(m.xi)),
            "check_module_functor": lambda: check_module_functor(m),
            "check_module_nattrans": lambda: check_module_nattrans(ident),
            "build_two_span": lambda: build_two_span(ident)}


CHAIN_ROUTES = {2: (("compose_module_functors", lambda f, g: compose_module_functors(g, f)),
                    ("laxator", laxator)),
                3: (("laxator_coherence", laxator_coherence),),
                4: (("quadruple_pasting_check", quadruple_pasting_check),)}


def chain_routes(chain, i, m):
    """The chain entries with its member i replaced by m."""
    mutated = chain[:i] + (m,) + chain[i + 1:]
    return {name: (lambda route=route: route(*mutated))
            for name, route in CHAIN_ROUTES[len(chain)]}


def corpus_chains():
    return [tuple(c[1:]) for c in corpus.composable_pairs()
            + corpus.composable_triples() + corpus.composable_quadruples()]


def test_every_entry_refuses_a_wrong_transport_count():
    calls = dict.fromkeys(list(functor_routes(corpus.terminal_id()))
                          + [n for routes in CHAIN_ROUTES.values() for n, _ in routes], 0)
    for chain in corpus_chains():
        for i, fd in enumerate(chain):
            for m in count_mutants(fd):
                routes = {**functor_routes(m), **chain_routes(chain, i, m)}
                for name, call in routes.items():
                    with pytest.raises(StructureError, match=COUNT_REFUSAL):
                        call()
                    calls[name] += 1
    # bz2-id with its transport doubled was built as a span
    for _, fd in corpus.span_corpus():
        for m in count_mutants(fd):
            for call in functor_routes(m).values():
                with pytest.raises(StructureError, match=COUNT_REFUSAL):
                    call()
    assert all(calls.values()), calls


def test_a_short_transport_family_is_refused_where_it_raised_index_error():
    # disc2-id then disc2-swap, with disc2-swap's last transport dropped
    _, fd, gd = dict((c[0], c) for c in corpus.composable_pairs())["disc2-id-swap"]
    short = count_mutants(gd)[0]
    for call in (lambda: compose_module_functors(short, fd),
                 lambda: build_two_span(ModuleNatTransData(
                     short, short, identity_nat_trans(short.f)))):
        with pytest.raises(StructureError, match=COUNT_REFUSAL):
            call()


def test_every_entry_keeps_the_error_contract_on_transport_mutants():
    rng = random.Random(31)
    kinds = {"value": 0, "refused": 0}
    for chain in corpus_chains():
        for i, fd in enumerate(chain):
            for _ in range(2):
                m = transport_mutant(fd, rng)
                if m is None:
                    continue
                for call in {**functor_routes(m), **chain_routes(chain, i, m)}.values():
                    got = outcome(call)
                    kinds["refused" if isinstance(got, type) else "value"] += 1
    assert all(kinds.values()), kinds


def test_a_refused_transport_never_reaches_the_span_builders(monkeypatch):
    import spanforge.spans as spans
    reached = []
    monkeypatch.setattr(spans, "pushforward",
                        lambda *args: reached.append("pushforward"))
    monkeypatch.setattr(spans, "tabulate_monoidal",
                        lambda *args, **kwargs: reached.append("tabulate_monoidal"))
    entries = [fd for _, fd in corpus.span_corpus()]
    refused = 0
    for m in sweep(entries, transport_mutant, 100, random.Random(2026)) \
            + [c for fd in entries for c in count_mutants(fd)]:
        expected = outcome(lambda: oracles.reference_module_functor(
            m.dom, m.cod, m.f, list(m.xi)))
        if expected is StructureError:
            with pytest.raises(StructureError):
                build_span(m)
            assert not reached
            refused += 1
    assert refused > 100


@pytest.mark.parametrize("component", [99, -1])
def test_a_dangling_transport_component_is_refused_by_the_transformation_entries(component):
    # arrow-id's identity transformation with component 0 of its transport
    # out of range: 99 raised IndexError, and -1 was read as the last row of
    # the carrier's composition table
    fd = dict(corpus.span_corpus())["arrow-id"]
    t = fd.xi[0]
    xi = (NatTrans(t.source, t.target, (component,) + t.components[1:]),) + fd.xi[1:]
    m = ModuleFunctorData(fd.dom, fd.cod, fd.f, xi)
    ident = ModuleNatTransData(m, m, identity_nat_trans(m.f))
    for call in (lambda: check_module_nattrans(ident), lambda: build_two_span(ident)):
        with pytest.raises(StructureError,
                           match=f"component at 0 is dangling id {component}$"):
            call()


def central_mutants():
    """Seeded mutants of the central setups of test_central, by name: each
    breaks what the setup's two modules, candidates and comparisons must
    agree on."""
    from test_central import central_setups, phi_fiber_setup, unit_action_into

    setups = central_setups()
    z1, z2 = setups["grading"], setups["discrete-z2"]
    coupled, paired = setups["coupled"], setups["z2-trivial"]
    _, non_symmetric = phi_fiber_setup("z3-pairing")
    out = {"z1-modules-in-a-z2-setup": replace(z2, left=z1.left, right=z1.right),
           "z2-modules-in-a-z1-setup": replace(z1, left=z2.left, right=z2.right),
           "mixed-kinds": replace(z1, right=z2.right),
           "mixed-kinds-reversed": replace(z2, left=z1.left),
           "non-symmetric-base": replace(z2, left=replace(z2.left, base=non_symmetric),
                                         right=replace(z2.right, base=non_symmetric))}
    for name, setup in (("z1", coupled), ("z2", paired)):
        out[f"{name}-short-psi-g"] = replace(setup, psi_g=setup.psi_g[:-1])
        out[f"{name}-short-psi-h"] = replace(setup, psi_h=setup.psi_h[:-1])
        out[f"{name}-phi-without-h"] = replace(setup, h=None)
        out[f"{name}-phi-without-psi-h"] = replace(setup, psi_h=None)
    for name, setup in (("z1", z1), ("z2", z2)):
        module = setup.left
        wrong = unit_action_into(module.center, terminal_monoidal())
        out[f"{name}-action-wrong-ends"] = replace(
            setup, left=replace(module, action=wrong))
    return out


def test_central_setup_mutants_are_refused_with_structure_error():
    for name, setup in central_mutants().items():
        with pytest.raises(StructureError):
            central_module_check(setup)
    for thing in (None, object(), central_mutants()["mixed-kinds"].left):
        with pytest.raises(StructureError, match="unknown central setup"):
            central_module_check(thing)


def test_mixed_kinds_are_refused_before_either_check_runs():
    for name in ("mixed-kinds", "mixed-kinds-reversed"):
        with pytest.raises(StructureError, match="both have MonoidalStructure "
                                                 "or both have Braiding carriers"):
            central_module_check(central_mutants()[name])


def test_central_module_refuses_wrong_ends_and_a_non_symmetric_base():
    from test_central import central_setups, phi_fiber_setup, unit_action_into

    setups = central_setups()
    for module in (setups["grading"].left, setups["discrete-z2"].left):
        wrong = unit_action_into(module.center, terminal_monoidal())
        with pytest.raises(StructureError,
                           match="action does not run from the base into the center"):
            central_module(module.base, module.carrier, wrong)
        assert central_module(module.base, module.carrier, module.action) == module
    _, non_symmetric = phi_fiber_setup("z3-pairing")
    module = setups["discrete-z2"].left
    with pytest.raises(StructureError, match="the acting base must be symmetric"):
        central_module(non_symmetric, module.carrier, module.action)
    with pytest.raises(StructureError, match="MonoidalStructure or a Braiding"):
        central_module(module.base, None, module.action)
