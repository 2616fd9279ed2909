"""Module actions on finite categories and the spans they generate.

A module is a category together with a monoidal functor from the acting
category into its endofunctor category.  A module functor gives a span of
monoidal categories: the apex pairs an endofunctor on each side with an
invertible comparison between the two transports, tensored by the explicit
pasting formula and cross-checked against the mediator of the underlying
fiber product.  A module transformation refines this to quadruple data over
the comma category of the two transports.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fincat import (
    Budget,
    DEFAULT_BUDGET,
    FinCategory,
    Functor,
    FunctorCategory,
    NatTrans,
    StructureError,
    category_over_product,
    check_category,
    check_nat_trans,
    compose_functors,
    enumerate_nat_transes,
    functor_category,
    identity_functor,
    identity_nat_trans,
    pullback,
    pushforward,
    vertical_composite,
    whisker_post,
    whisker_pre,
)
from .limits import FiberProductResult, fiber_product, mediate, mediate_2cell
from .monoidal import (
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    compose_mon_functors,
    strict_mon_functor,
    tabulate_monoidal,
)
from .reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder


@dataclass(frozen=True)
class EndCategory:
    """An endofunctor category with its composition monoidal structure."""

    fc: FunctorCategory
    monoidal: MonoidalStructure


def end_monoidal(carrier: FinCategory, budget: Budget = DEFAULT_BUDGET) -> EndCategory:
    """End(carrier) with tensor = composition of endofunctors (strict).
    Enumeration assumes a lawful carrier, so the laws are checked first."""
    laws = check_category(carrier, cap=1)
    if not laws.ok:
        raise StructureError("carrier is not a category: "
                             + laws.violations[0].render())
    fc = functor_category(carrier, carrier, budget)
    cat = fc.as_category
    fi = fc.functor_index()
    ti = fc.transformation_index()

    def tensor_mor(a: int, b: int, s: int, t: int) -> int:
        mu, nu = fc.transformations[a], fc.transformations[b]
        composite = vertical_composite(whisker_pre(mu, nu.target),
                                       whisker_post(mu.source, nu))
        return ti[(s, t, composite.components)]

    monoidal = tabulate_monoidal(
        cat, fi[identity_functor(carrier)],
        lambda i, j: fi[compose_functors(fc.functors[i], fc.functors[j])],
        tensor_mor)
    return EndCategory(fc, monoidal)


@dataclass(frozen=True)
class ModuleData:
    """A carrier category with a monoidal action of the acting category."""

    acting: MonoidalStructure
    carrier: FinCategory
    end: EndCategory
    action: MonFunctor

    def functor_at(self, c: int) -> Functor:
        return self.end.fc.functors[self.action.on_obj(c)]


def make_module(acting: MonoidalStructure, carrier: FinCategory,
                object_functors: list[Functor],
                morphism_transes: list[NatTrans] | None = None,
                mult_cells: list[NatTrans] | None = None,
                unit_cell: NatTrans | None = None,
                budget: Budget = DEFAULT_BUDGET) -> ModuleData:
    """Assemble a module from per-object endofunctors.

    Defaults realize a strict action: acting morphisms must then all be
    identities, tensors of assigned functors must compose on the nose, and
    the unit must act as the identity functor.
    """
    end = end_monoidal(carrier, budget)
    fi = end.fc.functor_index()
    ti = end.fc.transformation_index()
    n = acting.base.num_objects
    if len(object_functors) != n:
        raise StructureError("one endofunctor per acting object is required")
    obj_map = tuple(fi[f] for f in object_functors)

    def trans_id(t: NatTrans) -> int:
        return ti[(fi[t.source], fi[t.target], t.components)]

    if morphism_transes is None:
        morphism_transes = []
        for m in range(acting.base.num_morphisms):
            if not acting.base.is_identity(m):
                raise StructureError(
                    "non-identity acting morphisms need explicit transformations")
            morphism_transes.append(
                identity_nat_trans(object_functors[acting.base.source[m]]))
    mor_map = tuple(trans_id(t) for t in morphism_transes)
    underlying = Functor(acting.base, end.fc.as_category, obj_map, mor_map)

    if mult_cells is None:
        mult = []
        for x in range(n):
            for y in range(n):
                composite = compose_functors(object_functors[x], object_functors[y])
                if composite != object_functors[acting.tensor_obj(x, y)]:
                    raise StructureError(
                        f"action is not strict at ({x}, {y}); pass mult_cells")
                mult.append(end.fc.as_category.identity[fi[composite]])
        mult = tuple(mult)
    else:
        mult = tuple(trans_id(t) for t in mult_cells)
    if unit_cell is None:
        if object_functors[acting.unit] != identity_functor(carrier):
            raise StructureError("unit does not act as the identity; pass unit_cell")
        unit_iso = end.fc.as_category.identity[end.monoidal.unit]
    else:
        unit_iso = trans_id(unit_cell)
    action = MonFunctor(acting, end.monoidal, underlying, mult, unit_iso)
    return ModuleData(acting, carrier, end, action)


def trivial_module(carrier: FinCategory, budget: Budget = DEFAULT_BUDGET) -> ModuleData:
    from .monoidal import terminal_monoidal
    acting = terminal_monoidal()
    return make_module(acting, carrier, [identity_functor(carrier)], budget=budget)


@dataclass(frozen=True)
class ModuleFunctorData:
    """A functor between carriers with transports xi_c: f∘F(c) -> G(c)∘f."""

    dom: ModuleData
    cod: ModuleData
    f: Functor
    xi: tuple[NatTrans, ...]


def module_functor(dom: ModuleData, cod: ModuleData, f: Functor,
                   xi: list[NatTrans] | None = None) -> ModuleFunctorData:
    """Wrap transport data; defaults to identity transports, which requires
    f to commute with the two actions on the nose."""
    if f.source != dom.carrier or f.target != cod.carrier:
        raise StructureError("functor does not match the module carriers")
    if dom.acting != cod.acting:
        raise StructureError(
            "module bases differ: acting category with "
            f"{dom.acting.base.num_objects} objects / unit {dom.acting.unit} vs "
            f"{cod.acting.base.num_objects} objects / unit {cod.acting.unit}")
    n = dom.acting.base.num_objects
    if xi is None:
        xi = []
        for c in range(n):
            left = compose_functors(f, dom.functor_at(c))
            right = compose_functors(cod.functor_at(c), f)
            if left != right:
                raise StructureError(
                    f"functor is not strictly equivariant at acting object {c}")
            xi.append(identity_nat_trans(left))
    if len(xi) != n:
        raise StructureError("one transport per acting object is required")
    for c, t in enumerate(xi):
        if t.source != compose_functors(f, dom.functor_at(c)) \
                or t.target != compose_functors(cod.functor_at(c), f):
            raise StructureError(f"transport at {c} has the wrong shape")
        bad = check_nat_trans(t)
        if not bad.ok:
            raise StructureError(f"transport at {c} is not natural")
        for m in range(dom.carrier.num_objects):
            if cod.carrier.inverse(t.components[m]) is None:
                raise StructureError(f"transport at {c} is not invertible")
    return ModuleFunctorData(dom, cod, f, tuple(xi))


def identity_module_functor(md: ModuleData) -> ModuleFunctorData:
    return module_functor(md, md, identity_functor(md.carrier))


def check_module_functor(fd: ModuleFunctorData,
                         cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Shape, naturality, invertibility, and equivariance of the transports,
    reported as violations rather than raised."""
    rb = ReportBuilder("module_functor", cap)
    dom, cod = fd.dom, fd.cod
    if dom.acting != cod.acting:
        raise StructureError("module bases differ")
    if fd.f.source != dom.carrier or fd.f.target != cod.carrier:
        raise StructureError("functor does not match the module carriers")
    n = dom.acting.base.num_objects
    if len(fd.xi) != n:
        raise StructureError("one transport per acting object is required")
    n_cat = cod.carrier
    for c, t in enumerate(fd.xi):
        if t.source != compose_functors(fd.f, dom.functor_at(c)) \
                or t.target != compose_functors(cod.functor_at(c), fd.f):
            rb.add("transport-shape", (c,), "transport has the wrong endpoints")
            continue
        sub = check_nat_trans(t)
        for v in sub.violations:
            rb.add("transport-" + v.law, (c,) + v.witness, v.detail)
        for m in range(dom.carrier.num_objects):
            if n_cat.inverse(t.components[m]) is None:
                rb.add("transport-iso", (c, m), "component is not invertible")
        if rb.full:
            return rb.report()
    if rb.report().ok:
        # equivariance across acting morphisms and multiplicativity
        for u in range(dom.acting.base.num_morphisms):
            c0, c1 = dom.acting.base.source[u], dom.acting.base.target[u]
            p_trans = dom.end.fc.transformations[dom.action.on_mor(u)]
            q_trans = cod.end.fc.transformations[cod.action.on_mor(u)]
            for m in range(dom.carrier.num_objects):
                lhs = n_cat.comp[fd.xi[c1].components[m]][
                    fd.f.morphism_map[p_trans.components[m]]]
                rhs = n_cat.comp[q_trans.components[fd.f.object_map[m]]][
                    fd.xi[c0].components[m]]
                if lhs != rhs or lhs == -1:
                    rb.add("transport-equivariance", (u, m),
                           f"paths {lhs} vs {rhs}")
        acting = dom.acting
        for x in range(n):
            for y in range(n):
                xy = acting.tensor_obj(x, y)
                gamma_p = dom.end.fc.transformations[dom.action.gamma(x, y)]
                gamma_q = cod.end.fc.transformations[cod.action.gamma(x, y)]
                p1 = dom.functor_at(y)
                q0 = cod.functor_at(x)
                for m in range(dom.carrier.num_objects):
                    lhs = n_cat.comp[fd.xi[xy].components[m]][
                        fd.f.morphism_map[gamma_p.components[m]]]
                    rhs = n_cat.compose_path(
                        gamma_q.components[fd.f.object_map[m]],
                        q0.morphism_map[fd.xi[y].components[m]],
                        fd.xi[x].components[p1.object_map[m]])
                    if lhs != rhs or lhs == -1:
                        rb.add("transport-multiplicativity", (x, y, m),
                               f"paths {lhs} vs {rhs}")
                        if rb.full:
                            return rb.report()
        eta_p = dom.end.fc.transformations[dom.action.unit_iso]
        eta_q = cod.end.fc.transformations[cod.action.unit_iso]
        for m in range(dom.carrier.num_objects):
            lhs = n_cat.comp[fd.xi[acting.unit].components[m]][
                fd.f.morphism_map[eta_p.components[m]]]
            if lhs != eta_q.components[fd.f.object_map[m]] or lhs == -1:
                rb.add("transport-unit", (m,), "unit square does not commute")
    return rb.report()


def compose_module_functors(g: ModuleFunctorData,
                            f: ModuleFunctorData) -> ModuleFunctorData:
    """g∘f with transports pasted: slide f's transport through g's functor,
    then apply g's transport."""
    if f.cod != g.dom:
        raise StructureError("module functors are not composable")
    xi = []
    for c in range(f.dom.acting.base.num_objects):
        step1 = whisker_post(g.f, f.xi[c])
        step2 = whisker_pre(g.xi[c], f.f)
        xi.append(vertical_composite(step2, step1))
    return ModuleFunctorData(f.dom, g.cod, compose_functors(g.f, f.f), tuple(xi))


@dataclass(frozen=True)
class ModuleNatTransData:
    """A transformation between module functors, compatible with transports."""

    dom: ModuleFunctorData
    cod: ModuleFunctorData
    a: NatTrans


def check_module_nattrans(ad: ModuleNatTransData,
                          cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Naturality plus the transport-exchange condition at every acting object."""
    rb = ReportBuilder("module_nattrans", cap)
    fd, gd = ad.dom, ad.cod
    if fd.dom != gd.dom or fd.cod != gd.cod:
        raise StructureError("module transformation between mismatched functors")
    if ad.a.source != fd.f or ad.a.target != gd.f:
        raise StructureError("underlying transformation has the wrong shape")
    sub = check_nat_trans(ad.a)
    for v in sub.violations:
        rb.add("underlying-" + v.law, v.witness, v.detail)
    n_cat = fd.cod.carrier
    for c in range(fd.dom.acting.base.num_objects):
        q_functor = gd.cod.functor_at(c)
        p_functor = fd.dom.functor_at(c)
        for m in range(fd.dom.carrier.num_objects):
            lhs = n_cat.comp[q_functor.morphism_map[ad.a.components[m]]][
                fd.xi[c].components[m]]
            rhs = n_cat.comp[gd.xi[c].components[m]][
                ad.a.components[p_functor.object_map[m]]]
            if lhs != rhs or lhs == -1:
                rb.add("transport-exchange", (c, m), f"paths {lhs} vs {rhs}")
                if rb.full:
                    return rb.report()
    return rb.report()


@dataclass(frozen=True)
class SpanCell:
    """A span of monoidal categories, or a 2-span when the vertical data is set.

    apex_objects lists (P, Q, xi) triples for spans and (P, Q, xi_f, xi_g)
    quadruples for 2-spans, in enumeration order of the apex category.
    """

    apex: MonoidalStructure
    apex_objects: tuple[tuple[int, ...], ...]
    leg_left: MonFunctor
    leg_right: MonFunctor
    filler: NatTrans
    hom_fc: FunctorCategory
    fp: FiberProductResult | None
    action_lift: MonFunctor
    top: "SpanCell | None" = None
    bottom: "SpanCell | None" = None
    vertical_legs: tuple[MonFunctor, MonFunctor] | None = None
    vertical_fillers: tuple[MonNatTrans, MonNatTrans] | None = None


def _pasted_transport(t0: NatTrans, t1: NatTrans,
                      p1: Functor, q0: Functor) -> NatTrans:
    """(Q0 after t1) ∘ (t0 before P1): the transport of a composite pair."""
    return vertical_composite(whisker_post(q0, t1), whisker_pre(t0, p1))


def build_span(fd: ModuleFunctorData, budget: Budget = DEFAULT_BUDGET,
               verify: bool = True) -> SpanCell:
    """The span associated to a module functor.

    Apex objects are triples (P, Q, xi: f∘P ≅ Q∘f); the tensor composes
    endofunctors on both sides and pastes the comparisons.  When verify is
    set, the tensor is recomputed through the fiber product's mediator and
    the coherence components are revalidated through the unique-2-cell
    machinery; any disagreement raises.
    """
    dom, cod = fd.dom, fd.cod
    if dom.acting != cod.acting:
        raise StructureError(
            "module bases differ: acting category with "
            f"{dom.acting.base.num_objects} objects / unit {dom.acting.unit} vs "
            f"{cod.acting.base.num_objects} objects / unit {cod.acting.unit}")
    endM, endN = dom.end, cod.end
    hom_fc = functor_category(dom.carrier, cod.carrier, budget)
    post = pushforward(fd.f, endM.fc, hom_fc)
    pre = pullback(fd.f, endN.fc, hom_fc)
    fp = fiber_product(post, pre, budget)
    apex_cat = fp.apex
    oi = fp.object_index()
    mi = fp.morphism_index()
    hom_fi = hom_fc.functor_index()
    hom_ti = hom_fc.transformation_index()

    def pasted_id(a0: int, a1: int) -> int:
        p0, q0, x0 = fp.objects[a0]
        p1, q1, x1 = fp.objects[a1]
        pasted = _pasted_transport(hom_fc.transformations[x0],
                                   hom_fc.transformations[x1],
                                   endM.fc.functors[p1],
                                   endN.fc.functors[q0])
        return hom_ti[(hom_fi[pasted.source], hom_fi[pasted.target],
                       pasted.components)]

    def tensor_obj(a0: int, a1: int) -> int:
        key = (endM.monoidal.tensor_obj(fp.objects[a0][0], fp.objects[a1][0]),
               endN.monoidal.tensor_obj(fp.objects[a0][1], fp.objects[a1][1]),
               pasted_id(a0, a1))
        if key not in oi:
            raise StructureError("span tensor left the apex; transports do not paste")
        return oi[key]

    def tensor_mor(k0: int, k1: int, s: int, t: int) -> int:
        key = (s, t,
               endM.monoidal.tensor_mor(fp.morphisms[k0][0], fp.morphisms[k1][0]),
               endN.monoidal.tensor_mor(fp.morphisms[k0][1], fp.morphisms[k1][1]))
        if key not in mi:
            raise StructureError("span tensor of morphisms left the apex")
        return mi[key]

    unit_hom = fp.left.object_map[endM.monoidal.unit]
    unit_key = (endM.monoidal.unit, endN.monoidal.unit,
                hom_ti[(unit_hom, unit_hom,
                        identity_nat_trans(hom_fc.functors[unit_hom]).components)])
    if unit_key not in oi:
        raise StructureError("span unit is missing from the apex")
    unit = oi[unit_key]
    apex_ms = tabulate_monoidal(apex_cat, unit, tensor_obj, tensor_mor,
                                budget=budget)

    leg_left = strict_mon_functor(apex_ms, endM.monoidal, fp.pr1)
    leg_right = strict_mon_functor(apex_ms, endN.monoidal, fp.pr2)

    # the action lift c ↦ (F(c), G(c), xi_c)
    acting = dom.acting
    lift_obj = []
    for c in range(acting.base.num_objects):
        t = fd.xi[c]
        key = (dom.action.on_obj(c), cod.action.on_obj(c),
               hom_ti[(hom_fi[t.source], hom_fi[t.target], t.components)])
        if key not in oi:
            raise StructureError(f"transport at acting object {c} is not an apex object")
        lift_obj.append(oi[key])
    lift_mor = []
    for u in range(acting.base.num_morphisms):
        key = (lift_obj[acting.base.source[u]], lift_obj[acting.base.target[u]],
               dom.action.on_mor(u), cod.action.on_mor(u))
        if key not in mi:
            raise StructureError(
                f"transports are not natural across acting morphism {u}")
        lift_mor.append(mi[key])
    lift_mult = []
    nb = acting.base.num_objects
    for x in range(nb):
        for y in range(nb):
            key = (apex_ms.tensor_obj(lift_obj[x], lift_obj[y]),
                   lift_obj[acting.tensor_obj(x, y)],
                   dom.action.gamma(x, y), cod.action.gamma(x, y))
            if key not in mi:
                raise StructureError(
                    f"transports are not multiplicative at ({x}, {y})")
            lift_mult.append(mi[key])
    unit_cell_key = (unit, lift_obj[acting.unit],
                     dom.action.unit_iso, cod.action.unit_iso)
    if unit_cell_key not in mi:
        raise StructureError("transports do not respect the unit cell")
    action_lift = MonFunctor(acting, apex_ms,
                             Functor(acting.base, apex_cat,
                                     tuple(lift_obj), tuple(lift_mor)),
                             tuple(lift_mult), mi[unit_cell_key])

    cell = SpanCell(apex_ms, fp.objects, leg_left, leg_right, fp.filler,
                    hom_fc, fp, action_lift)
    if verify:
        _verify_span_construction(cell, endM, endN, budget)
    return cell


def _partial_tensor(ms: MonoidalStructure, a: int, on_left: bool,
                    leg: Functor) -> Functor:
    """x ↦ a⊗leg(x) (on_left) or leg(x)⊗a, read off the tables."""
    id_a = ms.base.identity[a]
    if on_left:
        return Functor(leg.source, ms.base,
                       tuple(ms.tensor_obj(a, x) for x in leg.object_map),
                       tuple(ms.tensor_mor(id_a, f) for f in leg.morphism_map))
    return Functor(leg.source, ms.base,
                   tuple(ms.tensor_obj(x, a) for x in leg.object_map),
                   tuple(ms.tensor_mor(f, id_a) for f in leg.morphism_map))


def _verify_span_construction(cell: SpanCell, endM: EndCategory,
                              endN: EndCategory, budget: Budget) -> None:
    """Cross-check the explicit tensor against the mediator of the fiber
    product, and the coherence components against the unique-2-cell route.

    The mediator is taken one variable at a time: each partial tensor a⊗−
    and −⊗a of the apex is a cone over the two partial tensors of the End
    categories, so 2n calls to mediate fix every object entry and every
    morphism entry with an identity factor.  The interchange law of a
    bifunctor, f⊗g = (f⊗1)∘(1⊗g) (CWM §II.3), then ties every other entry
    to those, as the mediator on apex × apex would.
    """
    fp = cell.fp
    apex_ms = cell.apex
    base = apex_ms.base
    n = base.num_objects
    ident = identity_functor(base)
    partials: dict[bool, list[Functor]] = {True: [], False: []}
    for on_left in (True, False):
        for a in range(n):
            explicit = _partial_tensor(apex_ms, a, on_left, ident)
            p_cone = _partial_tensor(endM.monoidal, fp.pr1.object_map[a], on_left,
                                     fp.pr1)
            q_cone = _partial_tensor(endN.monoidal, fp.pr2.object_map[a], on_left,
                                     fp.pr2)
            comparison = NatTrans(
                compose_functors(fp.left, p_cone), compose_functors(fp.right, q_cone),
                tuple(fp.filler.components[x] for x in explicit.object_map))
            if mediate(fp, p_cone, q_cone, comparison).functor != explicit:
                raise StructureError("mediator tensor disagrees with the explicit tensor")
            partials[on_left].append(explicit)
    a_tensor, tensor_b = partials[True], partials[False]  # a⊗− and −⊗b
    for f in range(base.num_morphisms):
        for g in range(base.num_morphisms):
            interchanged = base.comp[tensor_b[base.target[g]].morphism_map[f]][
                a_tensor[base.source[f]].morphism_map[g]]
            if apex_ms.tensor_mor(f, g) != interchanged:
                raise StructureError(
                    f"explicit tensor breaks interchange at ({f}, {g})")
    # associator compatibility: pasting is associative on the nose
    for i in range(n):
        for j in range(n):
            ij = apex_ms.tensor_obj(i, j)
            for k in range(n):
                left = apex_ms.tensor_obj(ij, k)
                right = apex_ms.tensor_obj(i, apex_ms.tensor_obj(j, k))
                if left != right:
                    raise StructureError(
                        f"span tensor is not strictly associative at ({i}, {j}, {k})")
                if fp.filler.components[left] != fp.filler.components[right]:
                    raise StructureError("pasted transports do not associate")
    # unitor compatibility via the unique-2-cell machinery
    for on_left, expected in ((True, apex_ms.left_unitor),
                              (False, apex_ms.right_unitor)):
        tensored = partials[on_left][apex_ms.unit]
        gamma1 = NatTrans(compose_functors(fp.pr1, tensored),
                          compose_functors(fp.pr1, ident),
                          tuple(endM.monoidal.base.identity[fp.pr1.object_map[a]]
                                for a in range(n)))
        gamma2 = NatTrans(compose_functors(fp.pr2, tensored),
                          compose_functors(fp.pr2, ident),
                          tuple(endN.monoidal.base.identity[fp.pr2.object_map[a]]
                                for a in range(n)))
        theta = mediate_2cell(fp, tensored, ident, gamma1, gamma2)
        if theta.components != expected:
            raise StructureError("mediated unitor disagrees with the explicit one")


def module_structures_on(f: Functor, dom: ModuleData, cod: ModuleData,
                         budget: Budget = DEFAULT_BUDGET) -> list[ModuleFunctorData]:
    """All transport families making f a module functor, by exhaustive search
    with incremental pruning; families are ordered lexicographically."""
    if f.source != dom.carrier or f.target != cod.carrier:
        raise StructureError("functor does not match the module carriers")
    if dom.acting != cod.acting:
        raise StructureError("modules have different acting categories")
    acting = dom.acting
    n = acting.base.num_objects
    n_cat = cod.carrier
    candidates: list[list[NatTrans]] = []
    for c in range(n):
        left = compose_functors(f, dom.functor_at(c))
        right = compose_functors(cod.functor_at(c), f)
        found = [t for t in enumerate_nat_transes(left, right)
                 if all(n_cat.is_iso(x) for x in t.components)]
        candidates.append(found)

    chosen: list[NatTrans | None] = [None] * n
    results: list[ModuleFunctorData] = []

    def natural_in_acting(just: int) -> bool:
        for u in range(acting.base.num_morphisms):
            c0, c1 = acting.base.source[u], acting.base.target[u]
            if just not in (c0, c1) or chosen[c0] is None or chosen[c1] is None:
                continue
            p_trans = dom.end.fc.transformations[dom.action.on_mor(u)]
            q_trans = cod.end.fc.transformations[cod.action.on_mor(u)]
            for m in range(dom.carrier.num_objects):
                lhs = n_cat.comp[chosen[c1].components[m]][
                    f.morphism_map[p_trans.components[m]]]
                rhs = n_cat.comp[q_trans.components[f.object_map[m]]][
                    chosen[c0].components[m]]
                if lhs != rhs or lhs == -1:
                    return False
        return True

    def multiplicative() -> bool:
        for x in range(n):
            for y in range(n):
                xy = acting.tensor_obj(x, y)
                gamma_p = dom.end.fc.transformations[dom.action.gamma(x, y)]
                gamma_q = cod.end.fc.transformations[cod.action.gamma(x, y)]
                p1 = dom.functor_at(y)
                q0 = cod.functor_at(x)
                for m in range(dom.carrier.num_objects):
                    lhs = n_cat.comp[chosen[xy].components[m]][
                        f.morphism_map[gamma_p.components[m]]]
                    rhs = n_cat.compose_path(
                        gamma_q.components[f.object_map[m]],
                        q0.morphism_map[chosen[y].components[m]],
                        chosen[x].components[p1.object_map[m]])
                    if lhs != rhs or lhs == -1:
                        return False
        eta_p = dom.end.fc.transformations[dom.action.unit_iso]
        eta_q = cod.end.fc.transformations[cod.action.unit_iso]
        for m in range(dom.carrier.num_objects):
            lhs = n_cat.comp[chosen[acting.unit].components[m]][
                f.morphism_map[eta_p.components[m]]]
            if lhs != eta_q.components[f.object_map[m]] or lhs == -1:
                return False
        return True

    def backtrack(c: int) -> None:
        if c == n:
            if multiplicative():
                results.append(ModuleFunctorData(
                    dom, cod, f, tuple(chosen)))  # type: ignore[arg-type]
            return
        for t in candidates[c]:
            chosen[c] = t
            if natural_in_acting(c):
                backtrack(c + 1)
            chosen[c] = None

    backtrack(0)
    return results


def build_two_span(ad: ModuleNatTransData, budget: Budget = DEFAULT_BUDGET,
                   verify: bool = True) -> SpanCell:
    """The 2-span associated to a module transformation.

    The apex holds quadruples (P, Q, xi_f, xi_g) subject to the exchange
    condition against the transformation, built over End(M) × End(N) through
    category_over_product: (mu, nu) is a morphism when it is one in both
    fiber products.  Its vertical legs into the two spans are produced
    through the mediator of each fiber product.
    """
    fd, gd = ad.dom, ad.cod
    if fd.dom != gd.dom or fd.cod != gd.cod:
        raise StructureError("module transformation between mismatched functors")
    bad = check_module_nattrans(ad)
    if not bad.ok:
        first = bad.violations[0]
        raise StructureError(
            f"module transformation condition fails at witness {first.witness}")
    span_f = build_span(fd, budget, verify)
    span_g = build_span(gd, budget, verify)
    hom_fc = span_f.hom_fc
    n_cat = fd.cod.carrier
    phi = ad.a

    f_objs = span_f.fp.objects
    g_objs = span_g.fp.objects

    def exchange(fi_obj: int, gi_obj: int) -> bool:
        p0, q0, x0 = f_objs[fi_obj]
        p1, q1, x1 = g_objs[gi_obj]
        if (p0, q0) != (p1, q1):
            return False
        t_f = hom_fc.transformations[x0]
        t_g = hom_fc.transformations[x1]
        q_functor = fd.cod.end.fc.functors[q0]
        p_functor = fd.dom.end.fc.functors[p0]
        for m in range(fd.dom.carrier.num_objects):
            lhs = n_cat.comp[t_g.components[m]][phi.components[p_functor.object_map[m]]]
            rhs = n_cat.comp[q_functor.morphism_map[phi.components[m]]][
                t_f.components[m]]
            if lhs != rhs or lhs == -1:
                return False
        return True

    quads: list[tuple[int, int]] = []
    for i in range(len(f_objs)):
        for j in range(len(g_objs)):
            if exchange(i, j):
                quads.append((i, j))
    quad_index = {q: i for i, q in enumerate(quads)}

    f_mi = span_f.fp.morphism_index()
    g_mi = span_g.fp.morphism_index()
    endM, endN = fd.dom.end, fd.cod.end

    def admits(i: int, j: int, arrow: tuple[int, int]) -> bool:
        (fi0, gi0), (fi1, gi1) = quads[i], quads[j]
        return (fi0, fi1) + arrow in f_mi and (gi0, gi1) + arrow in g_mi

    apex_cat, morphisms, mor_index = category_over_product(
        (endM.fc.as_category, endN.fc.as_category),
        [f_objs[fi][:2] for fi, _ in quads], admits, budget, "2-span apex")

    def tensor_obj(a0: int, a1: int) -> int:
        fi0, gi0 = quads[a0]
        fi1, gi1 = quads[a1]
        pair = (span_f.apex.tensor_obj(fi0, fi1), span_g.apex.tensor_obj(gi0, gi1))
        if pair not in quad_index:
            raise StructureError("2-span tensor left the apex")
        return quad_index[pair]

    def tensor_mor(k0: int, k1: int, s: int, t: int) -> int:
        key = (s, t,
               endM.monoidal.tensor_mor(morphisms[k0][0], morphisms[k1][0]),
               endN.monoidal.tensor_mor(morphisms[k0][1], morphisms[k1][1]))
        if key not in mor_index:
            raise StructureError("2-span tensor of morphisms left the apex")
        return mor_index[key]

    unit_pair = (span_f.apex.unit, span_g.apex.unit)
    if unit_pair not in quad_index:
        raise StructureError("2-span unit is missing")
    unit = quad_index[unit_pair]
    apex_ms = tabulate_monoidal(apex_cat, unit, tensor_obj, tensor_mor,
                                budget=budget)

    # vertical legs through the mediators of the two fiber products
    p_proj = Functor(apex_cat, endM.fc.as_category,
                     tuple(f_objs[fi][0] for fi, _ in quads),
                     tuple(mu for mu, _ in morphisms))
    q_proj = Functor(apex_cat, endN.fc.as_category,
                     tuple(f_objs[fi][1] for fi, _ in quads),
                     tuple(nu for _, nu in morphisms))
    xi_f = NatTrans(compose_functors(span_f.fp.left, p_proj),
                    compose_functors(span_f.fp.right, q_proj),
                    tuple(f_objs[fi][2] for fi, _ in quads))
    xi_g = NatTrans(compose_functors(span_g.fp.left, p_proj),
                    compose_functors(span_g.fp.right, q_proj),
                    tuple(g_objs[gi][2] for _, gi in quads))
    med_f = mediate(span_f.fp, p_proj, q_proj, xi_f)
    med_g = mediate(span_g.fp, p_proj, q_proj, xi_g)
    vert_f = strict_mon_functor(apex_ms, span_f.apex, med_f.functor)
    vert_g = strict_mon_functor(apex_ms, span_g.apex, med_g.functor)

    leg_left = strict_mon_functor(apex_ms, endM.monoidal, p_proj)
    leg_right = strict_mon_functor(apex_ms, endN.monoidal, q_proj)
    hom_ti = hom_fc.transformation_index()
    hom_fi = hom_fc.functor_index()
    # the comma-shaped filler: slide the transformation through Q after xi_f
    filler_comps = []
    for fi, gi in quads:
        p0, q0, x0 = f_objs[fi]
        t_f = hom_fc.transformations[x0]
        q_functor = endN.fc.functors[q0]
        pasted = vertical_composite(whisker_post(q_functor, phi), t_f)
        filler_comps.append(hom_ti[(hom_fi[pasted.source], hom_fi[pasted.target],
                                    pasted.components)])
    g_star = pushforward(fd.f, endM.fc, hom_fc)
    g_pre = pullback(gd.f, endN.fc, hom_fc)
    filler = NatTrans(compose_functors(g_star, p_proj),
                      compose_functors(g_pre, q_proj),
                      tuple(filler_comps))

    ident_f = MonNatTrans(
        compose_mon_functors(span_f.leg_left, vert_f),
        compose_mon_functors(span_g.leg_left, vert_g),
        identity_nat_trans(compose_functors(span_f.leg_left.underlying,
                                            med_f.functor)))
    ident_g = MonNatTrans(
        compose_mon_functors(span_f.leg_right, vert_f),
        compose_mon_functors(span_g.leg_right, vert_g),
        identity_nat_trans(compose_functors(span_f.leg_right.underlying,
                                            med_f.functor)))

    apex_objects = tuple((f_objs[fi][0], f_objs[fi][1], f_objs[fi][2],
                          g_objs[gi][2]) for fi, gi in quads)
    lift_obj = []
    for c in range(fd.dom.acting.base.num_objects):
        key = (span_f.action_lift.on_obj(c), span_g.action_lift.on_obj(c))
        if key not in quad_index:
            raise StructureError(
                f"transports of the two module functors are incompatible at {c}")
        lift_obj.append(quad_index[key])
    acting = fd.dom.acting
    lift_mor = tuple(mor_index[(lift_obj[acting.base.source[u]],
                                lift_obj[acting.base.target[u]],
                                fd.dom.action.on_mor(u), fd.cod.action.on_mor(u))]
                     for u in range(acting.base.num_morphisms))
    nb = acting.base.num_objects
    lift_mult = tuple(mor_index[(apex_ms.tensor_obj(lift_obj[x], lift_obj[y]),
                                 lift_obj[acting.tensor_obj(x, y)],
                                 fd.dom.action.gamma(x, y), fd.cod.action.gamma(x, y))]
                      for x in range(nb) for y in range(nb))
    action_lift = MonFunctor(acting, apex_ms,
                             Functor(acting.base, apex_cat, tuple(lift_obj),
                                     lift_mor),
                             lift_mult,
                             mor_index[(unit, lift_obj[acting.unit],
                                        fd.dom.action.unit_iso,
                                        fd.cod.action.unit_iso)])

    return SpanCell(apex_ms, apex_objects, leg_left, leg_right, filler,
                    hom_fc, None, action_lift, top=span_f, bottom=span_g,
                    vertical_legs=(vert_f, vert_g),
                    vertical_fillers=(ident_f, ident_g))
