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
refuse modules of two kinds, short comparisons, comparison or phi
components that are not morphism ids of the right carrier, phi without the
second candidate, actions with the wrong ends, a non-symmetric base under
braided carriers and a non-setup with StructureError.  The center search
behind centralizers and intertwiners refuses, before it starts, a functor
table of the wrong length and an object, morphism or cell id out of range.
So do the rest of the center layer on the tables they read: the Drinfeld
center on a dangling tensor or unit id, the braided centralizer,
intertwiner and Müger center on a dangling object image or a short or
dangling braiding table, is_symmetric and check_braided_functor on a short
braiding table, check_hpt_conditions on a dangling comparison and
restrict_monoidal on a dangling object id.  check_braiding reports a
dangling braiding component and reads no further, and is_symmetric refuses
a dangling tensor id.
"""
import random
from dataclasses import replace
from functools import partial

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


def dangling_comparison_mutants():
    """The Z₁ setups grading and coupled and the Z₂ setups discrete-z2 and
    z2-trivial with component 0 of psi_g, psi_h or phi set to 99 or -1, by
    name; psi_h and phi only where the setup has a second candidate."""
    from test_central import central_setups

    setups = central_setups()
    out = {}
    for name in ("grading", "coupled", "discrete-z2", "z2-trivial"):
        setup = setups[name]
        for component in (99, -1):
            for field in ("psi_g", "psi_h"):
                comps = getattr(setup, field)
                if comps is not None:
                    out[f"{name}-{field}-{component}"] = (component, replace(
                        setup, **{field: (component,) + comps[1:]}))
            if setup.phi is not None:
                nat = setup.phi.underlying
                phi = replace(setup.phi, underlying=replace(
                    nat, components=(component,) + nat.components[1:]))
                out[f"{name}-phi-{component}"] = (component,
                                                  replace(setup, phi=phi))
    return out


def test_a_dangling_comparison_component_is_refused_by_the_central_check():
    # psi_g, psi_h or phi at 99 raised IndexError over either kind, -1 was
    # refused only when its endpoints happened to be wrong, and over braided
    # carriers a dangling psi was reported as a comparison violation
    mutants = dangling_comparison_mutants()
    assert len(mutants) == 16
    for name, (component, setup) in mutants.items():
        with pytest.raises(StructureError,
                           match=f"component at 0 is dangling id {component}$"):
            central_module_check(setup)


def dangling_functor_mutants(seed=26, count=24):
    """((table, index, value), g, h): the identity g of skeletal Z/3 with the carry cocycle,
    and h a copy with one object image, morphism image, multiplicativity
    cell or the unit cell set to 99 or -1, or with one table a entry short."""
    from test_centers import carry_cocycle
    from spanforge.groups import cyclic
    from spanforge.monoidal import identity_mon_functor, make_skeletal_group_category

    z3 = cyclic(3)
    g = identity_mon_functor(make_skeletal_group_category(z3, z3, carry_cocycle(3, 1)))

    def with_table(name, table):
        if name == "unit_iso":
            return replace(g, unit_iso=table[0])
        if name == "mult":
            return replace(g, mult=table)
        return replace(g, underlying=replace(g.underlying, **{name: table}))

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        name = rng.choice(("object_map", "morphism_map", "mult", "unit_iso"))
        table = (g.unit_iso,) if name == "unit_iso" else (
            g.mult if name == "mult" else getattr(g.underlying, name))
        i = rng.randrange(len(table))
        value = rng.choice((99, -1, None))
        if value is None:
            if name == "unit_iso":
                continue
            mutant = table[:-1]
        else:
            mutant = table[:i] + (value,) + table[i + 1:]
        out.append(((name, i, value), g, with_table(name, mutant)))
    # the multiplicativity cell at (0, 0) at both dangling ids
    out += [(("mult", 0, value), g, with_table("mult", (value,) + g.mult[1:]))
            for value in (99, -1)]
    return out


def test_a_dangling_functor_id_is_refused_before_the_center_search():
    # such an id raised IndexError from the search, or at -1 it wrapped
    # round to the last id: an intertwiner came back with no object, and a
    # unit cell at -1 went unread
    from spanforge.centers import monoidal_centralizer, monoidal_intertwiner

    mutants = dangling_functor_mutants()
    assert {key[0] for key, _, _ in mutants} == {
        "object_map", "morphism_map", "mult", "unit_iso"}
    assert {key[2] for key, _, _ in mutants} == {99, -1, None}
    for _, g, h in mutants:
        for build in (lambda: monoidal_centralizer(h),
                      lambda: monoidal_intertwiner(g, h),
                      lambda: monoidal_intertwiner(h, g)):
            with pytest.raises(StructureError):
                build()


def center_layer_probes(seed=27, count=80):
    """(kind, value, call) over skeletal Z/3 with Z/3 scalars and its
    identity braiding: a tensor-table entry or the unit of the ambient of
    drinfeld_center set to 99 or -1; a tensor-table entry of the source of
    g and h, or of the structure under a braiding, set to 99 or -1 under the
    monoidal centralizer and intertwiner, mueger_center, check_braiding,
    check_mon_functor and check_braided_functor; an entry of each tensor
    table of the target of g set to 99 or -1 under the braided centralizer
    and intertwiner, check_mon_functor and check_braided_functor; a braiding
    table one entry short, or with an entry set to 99 or -1, under the
    Müger side, is_symmetric and check_braided_functor; an object image of
    g set to 99 or -1 under the braided centralizer and intertwiner; a
    comparison xi of check_hpt_conditions set to 99 or -1; and a
    subcategory of restrict_monoidal naming the object 99 or -1."""
    from test_central import identity_braiding
    from spanforge.centers import (
        HptSetup,
        braided_centralizer,
        braided_intertwiner,
        check_hpt_conditions,
        drinfeld_center,
        monoidal_centralizer,
        monoidal_intertwiner,
        mueger_center,
    )
    from spanforge.groups import cyclic
    from spanforge.monoidal import (
        check_braided_functor,
        check_braiding,
        check_mon_functor,
        identity_mon_functor,
        is_symmetric,
        make_skeletal_group_category,
        restrict_monoidal,
        trivial_cochain,
    )

    z3 = cyclic(3)
    ms = make_skeletal_group_category(z3, z3, trivial_cochain(z3))
    b, g = identity_braiding(ms), identity_mon_functor(ms)
    half = drinfeld_center(ms).objects_data[0]

    def set_entry(table, value):
        i = rng.randrange(len(table))
        return table[:i] + (value,) + table[i + 1:]

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.choice(("tensor", "source", "target", "unit", "beta", "short-beta",
                           "object", "xi", "subcategory"))
        value = rng.choice((99, -1))
        if kind == "tensor":
            name = rng.choice(("tensor_objects", "tensor_morphisms"))
            calls = [partial(drinfeld_center, replace(
                ms, **{name: set_entry(getattr(ms, name), value)}))]
        elif kind == "source":
            name = rng.choice(("tensor_objects", "tensor_morphisms"))
            source = replace(ms, **{name: set_entry(getattr(ms, name), value)})
            g_bad, b_bad = replace(g, source=source), replace(b, on=source)
            calls = [partial(monoidal_centralizer, g_bad),
                     partial(monoidal_intertwiner, g_bad, g_bad),
                     partial(mueger_center, b_bad),
                     partial(check_braiding, b_bad),
                     partial(check_mon_functor, g_bad),
                     partial(check_braided_functor, g_bad, b_bad, b)]
        elif kind == "target":
            calls = []
            for name in ("tensor_objects", "tensor_morphisms"):
                target = replace(ms, **{name: set_entry(getattr(ms, name), value)})
                g_bad, b_bad = replace(g, target=target), replace(b, on=target)
                calls += [partial(braided_centralizer, g_bad, b, b_bad),
                          partial(braided_intertwiner, g_bad, g_bad, b, b_bad),
                          partial(check_mon_functor, g_bad),
                          partial(check_braided_functor, g_bad, b, b_bad)]
        elif kind == "unit":
            calls = [partial(drinfeld_center, replace(ms, unit=value))]
        elif kind in ("beta", "short-beta"):
            bad = replace(b, beta=b.beta[:-1] if kind == "short-beta"
                          else set_entry(b.beta, value))
            calls = [partial(mueger_center, bad),
                     partial(braided_centralizer, g, bad, bad),
                     partial(braided_intertwiner, g, g, b, bad),
                     partial(is_symmetric, bad),
                     partial(check_braided_functor, g, bad, b),
                     partial(check_braided_functor, g, b, bad)]
        elif kind == "object":
            bad = replace(g, underlying=replace(
                g.underlying, object_map=set_entry(g.underlying.object_map, value)))
            calls = [partial(braided_centralizer, bad, b, b),
                     partial(braided_intertwiner, g, bad, b, b),
                     partial(braided_intertwiner, bad, g, b, b)]
        elif kind == "xi":
            calls = [partial(check_hpt_conditions, HptSetup(g, half, half, value)),
                     partial(check_hpt_conditions, HptSetup(
                         g, half, half, ms.base.identity[0], g, value))]
        else:
            calls = [partial(restrict_monoidal, ms, (0, value))]
        out += [(kind, value, call) for call in calls]
    return out


def test_the_center_layer_refuses_dangling_ids_and_short_braidings():
    # each raised IndexError, or at -1 wrapped round to the last id
    probes = center_layer_probes()
    assert {kind for kind, _, _ in probes} == {
        "tensor", "source", "target", "unit", "beta", "short-beta", "object", "xi",
        "subcategory"}
    assert {value for kind, value, _ in probes if kind == "target"} == {99, -1}
    for kind, value, call in probes:
        assert outcome(call) is StructureError, (kind, value)


@pytest.mark.parametrize("value", [99, -1])
def test_the_braiding_readers_stop_at_dangling_ids(value):
    # on skeletal Z/3 with its trivial bicharacter braiding, 99 raised
    # IndexError in both; -1 gave 21 check_braiding reports read through
    # the last composition row, and is_symmetric returned False
    from spanforge.groups import cyclic
    from spanforge.monoidal import (
        check_braiding,
        is_symmetric,
        make_bicharacter_braiding,
        make_skeletal_group_category,
        trivial_cochain,
    )

    z3 = cyclic(3)
    ms = make_skeletal_group_category(z3, z3, trivial_cochain(z3))
    b = make_bicharacter_braiding(ms, z3, [[0] * 3] * 3)
    assert check_braiding(b).ok and is_symmetric(b)
    report = check_braiding(replace(b, beta=(value,) + b.beta[1:]))
    assert [(v.law, v.witness) for v in report.violations] \
        == [("braiding-component", (0, 0))], report.lines()
    bad = replace(b, on=replace(ms, tensor_objects=(value,) + ms.tensor_objects[1:]))
    with pytest.raises(StructureError, match="dangling id"):
        is_symmetric(bad)
