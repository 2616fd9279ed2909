import pathlib
import random
from dataclasses import replace
from itertools import product

import pytest

import corpus
from oracles import (
    _partial_tensor,
    brute_force_functors,
    mediated_verify_span_construction,
)
from test_module_laws import MODULES

from spanforge.docs import decode_module, parse
from spanforge.fincat import (
    Budget,
    BudgetError,
    Functor,
    NatTrans,
    SpanforgeError,
    StructureError,
    check_nat_trans,
    compose_functors,
    discrete_category,
    functor_category,
    identity_functor,
    identity_nat_trans,
    terminal_category,
    walking_arrow,
)
from spanforge.groups import cyclic
from spanforge.laxators import laxator
from spanforge.limits import mediate
from spanforge.monoidal import (
    check_mon_functor,
    check_mon_nattrans,
    check_monoidal,
    make_discrete_group_category,
)
from spanforge.spans import (
    ModuleNatTransData,
    _verify_span_construction,
    build_span,
    build_two_span,
    check_module_nattrans,
    compose_module_functors,
    end_monoidal,
    identity_module_functor,
    make_module,
    module_functor,
    module_structures_on,
)

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# endofunctor categories
# ---------------------------------------------------------------------------

def test_end_of_terminal():
    end = end_monoidal(terminal_category())
    assert end.monoidal.base.num_objects == 1
    assert check_monoidal(end.monoidal).ok


def test_end_of_walking_arrow_is_three_chain_under_composition():
    arrow = walking_arrow()
    end = end_monoidal(arrow)
    assert end.monoidal.base.num_objects == 3
    assert check_monoidal(end.monoidal).ok
    # composition table against the pointwise oracle
    fid = end.fc.functor_id
    for f in end.fc.functors:
        for g in end.fc.functors:
            expected = fid(compose_functors(f, g))
            assert end.monoidal.tensor_obj(fid(f), fid(g)) == expected


def test_end_of_two_points_has_four_endomaps():
    end = end_monoidal(discrete_category(2))
    assert end.monoidal.base.num_objects == 4
    oracle = brute_force_functors(discrete_category(2), discrete_category(2))
    assert len(oracle) == 4
    assert check_monoidal(end.monoidal).ok


def test_module_action_is_monoidal_functor():
    md = corpus.m_swap_action()
    assert check_mon_functor(md.action).ok
    md2 = corpus.m_klein_on_disc2()
    assert check_mon_functor(md2.action).ok


def test_make_module_rejects_non_strict_assignment():
    acting = make_discrete_group_category(cyclic(2))
    carrier = discrete_category(2)
    with pytest.raises(StructureError):
        # the swap squared is the identity, but assigning swap to the unit
        # breaks strictness
        make_module(acting, carrier,
                    [corpus.swap_functor(carrier), identity_functor(carrier)])


def test_make_module_reads_each_cell_under_the_ends_its_place_requires():
    # a multiplicativity cell runs F(x)⊗F(y) -> F(x⊗y) and the unit cell
    # I -> F(I); the identity of the swap is a transformation, but not one
    # between those ends, so it is refused in either place
    md = corpus.m_swap_action()
    trans = md.end.fc.transformations
    n = md.acting.base.num_objects
    objs = [md.functor_at(c) for c in range(n)]
    mors = [trans[md.action.on_mor(u)] for u in range(md.acting.base.num_morphisms)]
    mult = [trans[g] for g in md.action.mult]
    unit = trans[md.action.unit_iso]
    assert make_module(md.acting, md.carrier, objs, mors, mult, unit) == md
    swap_id = identity_nat_trans(corpus.swap_functor(md.carrier))
    with pytest.raises(StructureError, match=r"multiplicativity cell at \(1, 1\)"):
        make_module(md.acting, md.carrier, objs, mors,
                    mult[:n * n - 1] + [swap_id], unit)
    with pytest.raises(StructureError, match="unit cell"):
        make_module(md.acting, md.carrier, objs, mors, mult, swap_id)
    with pytest.raises(StructureError, match="acting morphism 1"):
        make_module(md.acting, md.carrier, objs, [mors[0], mors[0]], mult, unit)
    with pytest.raises(StructureError, match="one multiplicativity cell per acting pair"):
        make_module(md.acting, md.carrier, objs, mors, mult[:-1], unit)


def module_args(md):
    """The object functors, acting-morphism transformations, multiplicativity
    cells and unit cell (in a list of one) that rebuild md."""
    trans = md.end.fc.transformations
    return ([md.functor_at(c) for c in range(md.acting.base.num_objects)],
            [trans[md.action.on_mor(u)] for u in range(md.acting.base.num_morphisms)],
            [trans[g] for g in md.action.mult],
            [trans[md.action.unit_iso]])


def test_make_module_mutants_return_or_refuse():
    # the arguments that rebuild each corpus module, one table entry changed:
    # an object functor, an acting morphism's transformation, a
    # multiplicativity cell or the unit cell that is not one of End(carrier)
    # is refused as a SpanforgeError, never a KeyError
    rng = random.Random(13)
    modules = [getattr(corpus, name)() for name in dir(corpus)
               if name.startswith("m_")]
    outcomes = {"ok": 0, "refused": 0}
    for md in modules:
        args = module_args(md)
        assert make_module(md.acting, md.carrier, *args[:3], args[3][0]) == md
        for _ in range(12):
            which = rng.randrange(4)
            i = rng.randrange(len(args[which]))
            entry = args[which][i]
            if which == 0:
                field = rng.choice(("object_map", "morphism_map"))
                size = (md.carrier.num_objects if field == "object_map"
                        else md.carrier.num_morphisms)
            else:
                field, size = "components", md.carrier.num_morphisms
            table = list(getattr(entry, field))
            k = rng.randrange(len(table))
            table[k] = rng.randrange(size + 1)  # may be dangling
            mutated = [list(a) for a in args]
            mutated[which][i] = replace(entry, **{field: tuple(table)})
            try:
                make_module(md.acting, md.carrier, *mutated[:3], mutated[3][0])
                outcomes["ok"] += 1
            except SpanforgeError:
                outcomes["refused"] += 1
    assert outcomes["ok"] > 0 and outcomes["refused"] > 0, outcomes


def test_make_module_returns_only_lawful_actions():
    # one cell replaced by a transformation of End(carrier) between the ends
    # its place requires: make_module returns the module exactly when the
    # action with that table entry is a monoidal functor, and refuses it
    # otherwise
    rng = random.Random(15)
    outcomes = {"ok": 0, "refused": 0}
    for name in MODULES:
        md = getattr(corpus, name)()
        args = module_args(md)
        transformations = md.end.fc.transformations
        for _ in range(12):
            which = rng.randrange(1, 4)
            i = rng.randrange(len(args[which]))
            entry = args[which][i]
            tid = rng.choice([k for k, t in enumerate(transformations)
                              if (t.source, t.target) == (entry.source, entry.target)])
            mutated = [list(a) for a in args]
            mutated[which][i] = transformations[tid]
            action = md.action
            if which == 1:
                mor_map = list(action.underlying.morphism_map)
                mor_map[i] = tid
                action = replace(action, underlying=replace(
                    action.underlying, morphism_map=tuple(mor_map)))
            elif which == 2:
                mult = list(action.mult)
                mult[i] = tid
                action = replace(action, mult=tuple(mult))
            else:
                action = replace(action, unit_iso=tid)
            if check_mon_functor(action).ok:
                got = make_module(md.acting, md.carrier, *mutated[:3], mutated[3][0])
                assert got.action == action, name
                outcomes["ok"] += 1
            else:
                with pytest.raises(StructureError,
                                   match="action is not a monoidal functor: "):
                    make_module(md.acting, md.carrier, *mutated[:3], mutated[3][0])
                outcomes["refused"] += 1
    assert outcomes["ok"] > 0 and outcomes["refused"] > 0, outcomes


def test_make_module_refuses_the_broken_module_fixture():
    # decode_module reads the document unchecked, so validate reports its
    # witnesses; make_module refuses the same cells
    tree = parse((DATA / "broken_module.json").read_text()).payload
    md = decode_module(tree, Budget())
    first = check_mon_functor(md.action).violations[0]
    args = module_args(md)
    with pytest.raises(StructureError) as exc:
        make_module(md.acting, md.carrier, *args[:3], args[3][0])
    assert str(exc.value) == "action is not a monoidal functor: " + first.render()


# ---------------------------------------------------------------------------
# spans of module functors
# ---------------------------------------------------------------------------

def test_span_of_arrow_identity_has_diagonal_apex():
    cell = build_span(identity_module_functor(corpus.m_arrow()))
    # only identity isomorphisms exist in End([1]), so triples are diagonal
    assert cell.apex.base.num_objects == 3
    assert all(p == q for p, q, _ in cell.apex_objects)
    assert check_monoidal(cell.apex).ok
    assert check_mon_functor(cell.leg_left).ok
    assert check_mon_functor(cell.leg_right).ok
    assert check_mon_functor(cell.action_lift).ok
    assert check_nat_trans(cell.filler).ok


def test_span_corpus_passes_all_coherence_checks():
    for name, fd in corpus.span_corpus():
        cell = build_span(fd)
        assert check_monoidal(cell.apex).ok, name
        assert check_mon_functor(cell.leg_left).ok, name
        assert check_mon_functor(cell.leg_right).ok, name
        assert check_mon_functor(cell.action_lift).ok, name
        assert check_nat_trans(cell.filler).ok, name
        # legs recover the actions
        from spanforge.monoidal import compose_mon_functors
        left = compose_mon_functors(cell.leg_left, cell.action_lift)
        assert left.underlying.object_map == fd.dom.action.underlying.object_map, name
        right = compose_mon_functors(cell.leg_right, cell.action_lift)
        assert right.underlying.object_map == fd.cod.action.underlying.object_map, name


def test_build_span_budget_refuses_the_tensor_table():
    fd = dict(corpus.span_corpus())["bz2-id"]
    m = build_span(fd).apex.base.num_morphisms
    with pytest.raises(BudgetError) as exc:
        build_span(fd, Budget(max_morphisms=m * m - 1))
    assert exc.value.what == "tensor table (morphisms)"
    assert exc.value.estimate == m * m
    build_span(fd, Budget(max_morphisms=m * m))


SPAN_TABLES = ("tensor_objects", "tensor_morphisms", "unit", "left_unitor",
               "right_unitor", "associator", "filler")


def span_table_mutant(cell, table, rng):
    """cell with one entry of one table the span verifier reads set to
    another id of the same kind, half the time a parallel morphism where
    there is one; None when no other id exists."""
    apex, fp = cell.apex, cell.fp
    if table == "filler":
        cat, entries = cell.hom_fc.as_category, fp.filler.components
    elif table == "unit":
        cat, entries = None, (apex.unit,)
    else:
        cat, entries = apex.base, getattr(apex, table)
    i = rng.randrange(len(entries))
    old = entries[i]
    if cat is None or table == "tensor_objects":
        choices = [x for x in range(apex.base.num_objects) if x != old]
    else:
        choices = [h for h in range(cat.num_morphisms) if h != old]
        parallel = [h for h in cat.hom(cat.source[old], cat.target[old]) if h != old]
        if parallel and rng.randrange(2):
            choices = parallel
    if not choices:
        return None
    if table == "unit":
        return replace(cell, apex=replace(apex, unit=rng.choice(choices)))
    changed = entries[:i] + (rng.choice(choices),) + entries[i + 1:]
    if table == "filler":
        return replace(cell, fp=replace(
            fp, filler=replace(fp.filler, components=changed)))
    return replace(cell, apex=replace(apex, **{table: changed}))


def span_verification_verdicts(seed, per_pair):
    """(entry, table, verdict) for per_pair seeded single-entry mutants of
    each table of each span_corpus() cell, and (entry, None, verdict) for the
    cell itself, where a verdict pairs the table-form verifier's outcome
    with the mediator route's (oracles): "ok" or "refused"."""
    def outcome(verify, cell, fd):
        try:
            verify(cell, fd.dom.end, fd.cod.end)
        except StructureError:
            return "refused"
        return "ok"

    rng = random.Random(seed)
    results = []
    for name, fd in corpus.span_corpus():
        cell = build_span(fd)
        mutants = [(None, cell)] + [
            (table, span_table_mutant(cell, table, rng))
            for table in SPAN_TABLES for _ in range(per_pair)]
        for table, mutant in mutants:
            if mutant is not None:
                results.append((name, table, (
                    outcome(_verify_span_construction, mutant, fd),
                    outcome(mediated_verify_span_construction, mutant, fd))))
    return results


def test_span_verification_agrees_with_the_mediator_route():
    # the table-form verifier against the one that builds a Functor and a
    # NatTrans per partial tensor and runs mediate and mediate_2cell; the
    # mediator route never reads the associator, which strict pasting
    # requires to be the identity, so only the table form refuses its
    # mutants (every corpus apex holds identities there)
    results = span_verification_verdicts(seed=13, per_pair=2)
    disagreements = [r for r in results
                     if r[2][0] != r[2][1] and r[1] != "associator"]
    assert not disagreements, disagreements[:5]
    assert all(v == ("refused", "ok") for _, table, v in results
               if table == "associator")
    assert all(v == ("ok", "ok") for _, table, v in results if table is None)
    covered = {(name, table) for name, table, _ in results if table is not None}
    changeable = set()
    for name, fd in corpus.span_corpus():
        cell = build_span(fd)
        ids = {"objects": cell.apex.base.num_objects,
               "morphisms": cell.apex.base.num_morphisms,
               "filler": cell.hom_fc.as_category.num_morphisms}
        changeable |= {(name, table) for table in SPAN_TABLES if ids[
            "objects" if table in ("tensor_objects", "unit") else
            "filler" if table == "filler" else "morphisms"] > 1}
    assert covered == changeable
    assert {v for _, _, v in results} == {("ok", "ok"), ("refused", "refused"),
                                          ("refused", "ok")}


def test_span_verification_mediates_each_partial_tensor(monkeypatch):
    # verification reads the mediator's table form and runs no mediator;
    # each of the 2n partial tensors a⊗− and −⊗a it checks is the strict
    # mediator of its cone over the End categories' partial tensors
    import spanforge.limits as limits
    import spanforge.spans as spans
    calls = {"mediate": 0, "mediate_2cell": 0}
    for module in (limits, spans):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _original=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _original(*args)
                monkeypatch.setattr(module, name, counted)
    fd = dict(corpus.span_corpus())["bz2-id"]
    cell = build_span(fd, verify=True)
    assert calls == {"mediate": 0, "mediate_2cell": 0}
    monkeypatch.undo()
    fp, apex, n = cell.fp, cell.apex, cell.apex.base.num_objects
    ident = identity_functor(apex.base)
    for on_left in (True, False):
        for a in range(n):
            explicit = _partial_tensor(apex, a, on_left, ident)
            p_cone = _partial_tensor(fd.dom.end.monoidal, fp.pr1.object_map[a],
                                     on_left, fp.pr1)
            q_cone = _partial_tensor(fd.cod.end.monoidal, fp.pr2.object_map[a],
                                     on_left, fp.pr2)
            comparison = NatTrans(
                compose_functors(fp.left, p_cone), compose_functors(fp.right, q_cone),
                tuple(fp.filler.components[x] for x in explicit.object_map))
            assert mediate(fp, p_cone, q_cone, comparison) == explicit


def test_span_verification_compares_the_mediated_tensor():
    # the mediator a ↦ (p a, q a, ξ_a) read off a skewed filler no longer
    # lands on the explicit tensor; the mediator route refuses it too, inside
    # mediate
    fd = dict(corpus.span_corpus())["bz2-id"]
    cell = build_span(fd)
    comps = cell.fp.filler.components
    skewed = replace(cell, fp=replace(cell.fp, filler=replace(
        cell.fp.filler, components=comps[1:] + comps[:1])))
    with pytest.raises(StructureError, match="mediator tensor disagrees"):
        _verify_span_construction(skewed, fd.dom.end, fd.cod.end)
    with pytest.raises(StructureError):
        mediated_verify_span_construction(skewed, fd.dom.end, fd.cod.end)


def test_span_verification_catches_a_wrong_tensor_entry():
    from dataclasses import replace
    from spanforge.spans import _verify_span_construction
    fd = dict(corpus.span_corpus())["bz2-id"]
    cell = build_span(fd)
    base = cell.apex.base
    m = base.num_morphisms
    caught = set()
    for k, img in enumerate(cell.apex.tensor_morphisms):
        f, g = divmod(k, m)
        kind = (base.is_identity(f), base.is_identity(g))
        parallel = [h for h in base.hom(base.source[img], base.target[img])
                    if h != img]
        if kind in caught or kind == (True, True) or not parallel:
            continue
        entries = list(cell.apex.tensor_morphisms)
        entries[k] = parallel[0]
        wrong = replace(cell, apex=replace(cell.apex,
                                           tensor_morphisms=tuple(entries)))
        with pytest.raises(StructureError):
            _verify_span_construction(wrong, fd.dom.end, fd.cod.end)
        caught.add(kind)
    assert caught == {(True, False), (False, True), (False, False)}


def test_span_apex_of_set_pullback_flavor():
    fd = dict(corpus.span_corpus())["disc2-id"]
    cell = build_span(fd)
    # End(2 points) is discrete, so the apex is its diagonal copy
    assert cell.apex.base.num_objects == 4
    assert all(p == q for p, q, _ in cell.apex_objects)


def test_mismatched_module_bases_raise():
    left = corpus.m_swap_action()
    right = corpus.m_disc2()  # trivial acting category
    with pytest.raises(StructureError) as exc:
        module_functor(left, right, identity_functor(discrete_category(2)))
    # constructing the raw data and feeding build_span also raises
    from spanforge.spans import ModuleFunctorData
    from spanforge.fincat import identity_nat_trans
    raw = ModuleFunctorData(left, right, identity_functor(discrete_category(2)),
                            tuple(identity_nat_trans(identity_functor(
                                discrete_category(2))) for _ in range(2)))
    with pytest.raises(StructureError) as exc2:
        build_span(raw)
    assert "module bases differ" in str(exc2.value)


# ---------------------------------------------------------------------------
# module structures: exhaustive transports vs monoidal lifts
# ---------------------------------------------------------------------------

def count_monoidal_lifts(f, dom, cod):
    """Independent oracle: monoidal functors from the acting category into the
    span apex over some transport family, projecting to the two actions."""
    apex_cells = []
    acting = dom.acting
    # enumerate object maps c ↦ apex object with the right projections, then
    # filter whole assignments through check_mon_functor
    from spanforge.spans import ModuleFunctorData, build_span
    from spanforge.fincat import enumerate_nat_transes, identity_nat_trans
    # build the apex once, from any valid transport family if one exists;
    # the apex itself does not depend on the family
    probe = module_structures_on(f, dom, cod)
    if not probe:
        # build the span of some other functor sharing the carriers is not
        # possible in general; count lifts directly as zero by checking that
        # no family satisfies even the object conditions
        return 0
    cell = build_span(probe[0])
    oi = {t: i for i, t in enumerate(cell.apex_objects)}
    n = acting.base.num_objects
    per_object = []
    for c in range(n):
        options = []
        fm = dom.action.on_obj(c)
        fn = cod.action.on_obj(c)
        for i, (p, q, xi) in enumerate(cell.apex_objects):
            if p == fm and q == fn:
                options.append(i)
        per_object.append(options)
    count = 0
    from spanforge.monoidal import MonFunctor, check_mon_functor
    mi = cell.fp.morphism_index
    for assignment in product(*per_object):
        # morphisms, multiplicativity cells, and the unit cell are forced
        try:
            mor_map = tuple(mi[(assignment[acting.base.source[u]],
                                assignment[acting.base.target[u]],
                                dom.action.on_mor(u), cod.action.on_mor(u))]
                            for u in range(acting.base.num_morphisms))
            mult = tuple(mi[(cell.apex.tensor_obj(assignment[x], assignment[y]),
                             assignment[acting.tensor_obj(x, y)],
                             dom.action.gamma(x, y), cod.action.gamma(x, y))]
                         for x in range(n) for y in range(n))
            unit_cell = mi[(cell.apex.unit, assignment[acting.unit],
                            dom.action.unit_iso, cod.action.unit_iso)]
        except KeyError:
            continue
        candidate = MonFunctor(acting, cell.apex,
                               Functor(acting.base, cell.apex.base,
                                       assignment, mor_map),
                               mult, unit_cell)
        if check_mon_functor(candidate).ok:
            count += 1
    return count


def test_trivial_acting_category_has_unique_structure():
    md = corpus.m_arrow()
    found = module_structures_on(identity_functor(walking_arrow()), md, md)
    assert len(found) == 1
    assert count_monoidal_lifts(identity_functor(walking_arrow()), md, md) == 1


def test_swap_equivariant_functor_counts_match():
    md = corpus.m_swap_action()
    f = corpus.swap_functor(discrete_category(2))
    found = module_structures_on(f, md, md)
    assert len(found) == count_monoidal_lifts(f, md, md) == 1


def test_non_equivariant_functor_has_no_structure():
    swap = corpus.m_swap_action()
    triv = corpus.m_trivial_z2_on_disc2()
    f = identity_functor(discrete_category(2))
    assert module_structures_on(f, swap, triv) == []


def test_twisted_bz2_has_two_structures():
    md = corpus.m_trivial_z2_on_bz2()
    f = identity_functor(corpus.bz2())
    found = module_structures_on(f, md, md)
    assert len(found) == 2
    assert count_monoidal_lifts(f, md, md) == 2
    # the two transports differ by the central scalar at the acting generator
    comps = sorted(t.xi[1].components for t in found)
    assert comps == [(0,), (1,)]


def test_module_structure_search_honours_its_budget():
    # two families: the object ceiling refuses the second before it is
    # kept, the morphism ceiling the candidates of the second acting object
    md = corpus.m_trivial_z2_on_bz2()
    f = identity_functor(corpus.bz2())
    found = module_structures_on(f, md, md)
    assert module_structures_on(f, md, md, Budget()) == found
    assert len(found) == 2
    with pytest.raises(BudgetError) as exc:
        module_structures_on(f, md, md, Budget(max_objects=1))
    assert (exc.value.what, exc.value.estimate) == ("module structures (objects)", 2)
    assert module_structures_on(f, md, md, Budget(max_objects=2)) == found
    with pytest.raises(BudgetError) as exc:
        module_structures_on(f, md, md, Budget(max_morphisms=3))
    assert (exc.value.what, exc.value.estimate) \
        == ("module structure candidates (morphisms)", 4)
    assert module_structures_on(f, md, md, Budget(max_morphisms=4)) == found


def test_bijection_on_full_corpus():
    seen_zero = seen_many = False
    for name, fd in corpus.span_corpus():
        found = module_structures_on(fd.f, fd.dom, fd.cod)
        lifts = count_monoidal_lifts(fd.f, fd.dom, fd.cod)
        assert len(found) == lifts, name
        seen_many = seen_many or len(found) >= 2
    swap = corpus.m_swap_action()
    triv = corpus.m_trivial_z2_on_disc2()
    assert module_structures_on(identity_functor(discrete_category(2)),
                                swap, triv) == []
    seen_zero = True
    assert seen_zero and seen_many


# ---------------------------------------------------------------------------
# 2-spans of module transformations
# ---------------------------------------------------------------------------

def test_two_span_of_identity_transformation_is_diagonal():
    cell = build_two_span(dict(corpus.nattrans_corpus())["arrow-identity"])
    span = build_span(identity_module_functor(corpus.m_arrow()))
    assert cell.apex.base.num_objects == span.apex.base.num_objects
    assert all(xf == xg for _, _, xf, xg in cell.apex_objects)
    assert check_monoidal(cell.apex).ok


def test_two_span_corpus_passes_checks():
    for name, ad in corpus.nattrans_corpus():
        cell = build_two_span(ad)
        assert check_monoidal(cell.apex).ok, name
        assert check_mon_functor(cell.leg_left).ok, name
        assert check_mon_functor(cell.leg_right).ok, name
        assert check_mon_functor(cell.action_lift).ok, name
        assert check_nat_trans(cell.filler).ok, name
        vert_f, vert_g = cell.vertical_legs
        assert check_mon_functor(vert_f).ok, name
        assert check_mon_functor(vert_g).ok, name
        fill_l, fill_r = cell.vertical_fillers
        assert check_mon_nattrans(fill_l).ok, name
        assert check_mon_nattrans(fill_r).ok, name


def test_two_span_rejects_incompatible_transformation():
    arrow = walking_arrow()
    const0 = module_functor(corpus.m_arrow(), corpus.m_arrow(),
                            identity_functor(arrow))
    const1 = module_functor(corpus.m_arrow(), corpus.m_arrow(),
                            identity_functor(arrow))
    from spanforge.fincat import NatTrans
    bad = ModuleNatTransData(const0, const1,
                             NatTrans(identity_functor(arrow),
                                      identity_functor(arrow),
                                      (arrow.identity[0], arrow.identity[0])))
    report = check_module_nattrans(bad)
    assert not report.ok  # component at 1 has the wrong endpoints


def test_two_span_condition_violation_names_witness():
    bz2 = corpus.bz2()
    md = corpus.m_trivial_z2_on_bz2()
    ident = identity_module_functor(md)
    twisted = dict(corpus.span_corpus())["z2-trivial-bz2-twisted"]
    from spanforge.fincat import NatTrans
    a = ModuleNatTransData(ident, twisted,
                           NatTrans(identity_functor(bz2),
                                    identity_functor(bz2), (0,)))
    report = check_module_nattrans(a)
    assert not report.ok
    assert any(v.law == "transport-exchange" for v in report.violations)
    with pytest.raises(StructureError) as exc:
        build_two_span(a)
    assert "witness" in str(exc.value)


def test_two_span_mutation_conditions_are_load_bearing():
    """Dropping any of the three membership conditions admits an extra object
    on some corpus instance."""
    ad = dict(corpus.nattrans_corpus())["idem-absorbing"]
    cell = build_two_span(ad)
    span_f = cell.top
    span_g = cell.bottom
    hom_fc = span_f.hom_fc
    n_cat = ad.dom.cod.carrier
    phi = ad.a
    quads = {(cell.apex_objects[i][0], cell.apex_objects[i][1],
              cell.apex_objects[i][2], cell.apex_objects[i][3])
             for i in range(len(cell.apex_objects))}

    # without condition (c), every pair of span objects over the same (P, Q)
    # would be admitted
    unfiltered = 0
    for p0, q0, xf in span_f.fp.objects:
        for p1, q1, xg in span_g.fp.objects:
            if (p0, q0) == (p1, q1):
                unfiltered += 1
    assert unfiltered > len(quads)

    # without condition (a) (valid transport for the source functor), tuples
    # whose first comparison is not invertible-natural would slip in: comma
    # objects over the same cospan strictly contain the fiber objects here
    from spanforge.limits import comma
    lax = comma(span_f.fp.left, span_f.fp.right)
    assert len(lax.objects) > len(span_f.fp.objects)

    # without condition (b), same for the target side
    lax_g = comma(span_g.fp.left, span_g.fp.right)
    assert len(lax_g.objects) > len(span_g.fp.objects)


def test_compose_module_functors_transports():
    named = dict(corpus.span_corpus())
    f = named["disc2-into-arrow"]
    g = named["arrow-into-bz2"]
    gf = compose_module_functors(g, f)
    assert gf.f == compose_functors(g.f, f.f)
    cell = build_span(gf)
    assert check_monoidal(cell.apex).ok


# ---------------------------------------------------------------------------
# outside input: transports not made by module_functor, and budgets
# ---------------------------------------------------------------------------

def test_transport_mutants_are_refused_as_structure_errors():
    # a ModuleFunctorData built without module_functor, one transport entry
    # changed: build_span and laxator return or refuse, never a KeyError
    rng = random.Random(12)
    pairs = corpus.composable_pairs()
    outcomes = {"ok": 0, "refused": 0}
    for _ in range(225):
        _, fd, gd = rng.choice(pairs)
        side = rng.randrange(2)
        d = (fd, gd)[side]
        c = rng.randrange(len(d.xi))
        t = d.xi[c]
        comps = list(t.components)
        k = rng.randrange(len(comps))
        comps[k] = rng.choice([m for m in range(d.cod.carrier.num_morphisms)
                               if m != comps[k]] or [comps[k]])
        mutant = replace(d, xi=d.xi[:c] + (NatTrans(t.source, t.target,
                                                    tuple(comps)),)
                         + d.xi[c + 1:])
        f, g = (mutant, gd) if side == 0 else (fd, mutant)
        for call in (lambda: build_span(mutant), lambda: laxator(f, g)):
            try:
                call()
                outcomes["ok"] += 1
            except SpanforgeError:
                outcomes["refused"] += 1
    assert outcomes == {"ok": 52, "refused": 398}
    # the right components under a wrong declared source are refused too
    misdeclared = 0
    for _, fd, _ in pairs:
        t = fd.xi[0]
        for other in build_span(fd).hom_fc.functors:
            if other != t.source:
                mutant = replace(fd, xi=(NatTrans(other, t.target,
                                                  t.components),) + fd.xi[1:])
                with pytest.raises(StructureError, match="acting object 0"):
                    build_span(mutant)
                misdeclared += 1
    assert misdeclared > 0


def _outcome(fn):
    try:
        return "ok", fn()
    except SpanforgeError as exc:
        return type(exc).__name__, str(exc)


def test_reused_functor_category_refuses_where_enumeration_does():
    # build_span reuses the End category's Fun(M, M) when both modules share
    # a carrier; within(budget) refuses as functor_category would: the
    # estimate, then the functor count, then the first transformation past
    # the limit, with the same messages
    for md in (corpus.m_terminal(), corpus.m_arrow(), corpus.m_disc3(),
               corpus.m_bz2()):
        c, fc = md.carrier, md.end.fc
        top = max(c.num_objects ** c.num_objects, len(fc.transformations))
        for b in range(-1, top + 2):
            for budget in (Budget(max_objects=b), Budget(max_morphisms=b)):
                assert _outcome(lambda: fc.within(budget)) == _outcome(
                    lambda: functor_category(c, c, budget)), (b, budget)
    # on the [1] carrier, build_span refuses with functor_category's message
    # wherever functor_category refuses
    fd = dict(corpus.span_corpus())["arrow-id"]
    c = fd.dom.carrier
    refused = 0
    for b in range(-1, 8):
        for budget in (Budget(max_objects=b), Budget(max_morphisms=b)):
            enumerated = _outcome(lambda: functor_category(c, c, budget))
            if enumerated[0] != "ok":
                refused += 1
                assert _outcome(lambda: build_span(fd, budget)) == enumerated
    assert refused == 12
