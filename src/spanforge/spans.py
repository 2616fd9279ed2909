"""Module actions on finite categories and the spans they generate.

A module is a category together with a monoidal functor from the acting
category into its endofunctor category.  A module functor gives a span of
monoidal categories: the apex pairs an endofunctor on each side with an
invertible comparison between the two transports, tensored by the explicit
pasting formula.  One gate, _require_module_functor, checks the hypotheses
of the theorem in build_span before anything is enumerated; the span is
then lawful, and verify=True re-derives it against the table form of the
fiber product's mediator.  A module transformation refines this to
quadruple data over the comma category of the two transports.
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
    check_functor,
    check_nat_trans,
    compose_functors,
    enumerate_nat_transes,
    functor_category,
    identity_functor,
    identity_nat_trans,
    lift_functor,
    pullback,
    pushforward,
)
from .limits import FiberProductResult, fiber_product
from .monoidal import (
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    check_mon_functor,
    identity_mon_nattrans,
    lift_mon_functor,
    strict_mon_functor,
    tabulate_monoidal,
    tensor_mor_over_product,
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
    funs, transes, comp = fc.functors, fc.transformations, carrier.comp
    fi, ti = fc.functor_index, fc.transformation_index

    def tensor_obj(i: int, j: int) -> int:
        f, g = funs[i], funs[j]
        return fi[(tuple(f.object_map[x] for x in g.object_map),
                   tuple(f.morphism_map[h] for h in g.morphism_map))]

    def tensor_mor(a: int, b: int, s: int, t: int) -> int:
        # (μ★ν)_x = μ_{G'x} ∘ F(ν_x) for μ: F -> F' and ν: G -> G'; over a
        # lawful carrier every one of these composites is defined
        mu, nu = transes[a], transes[b]
        mu_at, f_mor = mu.components, mu.source.morphism_map
        g_obj = nu.target.object_map
        return ti[(s, t, tuple(comp[mu_at[g_obj[x]]][f_mor[nu_x]]
                               for x, nu_x in enumerate(nu.components)))]

    n = carrier.num_objects
    unit = fi[(tuple(range(n)), tuple(range(carrier.num_morphisms)))]
    return EndCategory(fc, tabulate_monoidal(cat, unit, tensor_obj, tensor_mor))


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
    the unit must act as the identity functor.  A given transformation must
    run F(src u) -> F(tgt u), F(x)⊗F(y) -> F(x⊗y) or I -> F(I), by its place,
    and the assembled action must be a monoidal functor.
    """
    end = end_monoidal(carrier, budget)
    n = acting.base.num_objects
    if len(object_functors) != n:
        raise StructureError("one endofunctor per acting object is required")

    def functor_id(fun: Functor, what: str) -> int:
        i = end.fc.functor_index.get((fun.object_map, fun.morphism_map))
        if i is None or (fun.source, fun.target) != (carrier, carrier):
            raise StructureError(f"{what} is not an endofunctor of the carrier")
        return i

    def trans_id(t: NatTrans, src: int, tgt: int, what: str) -> int:
        # src -> tgt are the ends t's place requires, as in docs.decode_module
        i = end.fc.transformation_index.get((src, tgt, t.components))
        if i is None or (functor_id(t.source, what), functor_id(t.target, what)) \
                != (src, tgt):
            raise StructureError(
                f"{what} is not a transformation {src} -> {tgt} of endofunctors")
        return i

    obj_map = tuple(functor_id(f, f"action at acting object {c}")
                    for c, f in enumerate(object_functors))
    if morphism_transes is None:
        if not all(map(acting.base.is_identity, range(acting.base.num_morphisms))):
            raise StructureError(
                "non-identity acting morphisms need explicit transformations")
        morphism_transes = [identity_nat_trans(object_functors[c])
                            for c in acting.base.source]
    if len(morphism_transes) != acting.base.num_morphisms:
        raise StructureError("one transformation per acting morphism is required")
    mor_map = tuple(trans_id(t, obj_map[acting.base.source[u]],
                             obj_map[acting.base.target[u]],
                             f"action at acting morphism {u}")
                    for u, t in enumerate(morphism_transes))
    underlying = Functor(acting.base, end.fc.as_category, obj_map, mor_map)

    if mult_cells is None:
        mult = []
        for x in range(n):
            for y in range(n):
                composite = compose_functors(object_functors[x], object_functors[y])
                if composite != object_functors[acting.tensor_obj(x, y)]:
                    raise StructureError(
                        f"action is not strict at ({x}, {y}); pass mult_cells")
                mult.append(end.fc.as_category.identity[obj_map[acting.tensor_obj(x, y)]])
        mult = tuple(mult)
    else:
        if len(mult_cells) != n * n:
            raise StructureError("one multiplicativity cell per acting pair is required")
        mult = tuple(trans_id(mult_cells[x * n + y],
                              end.monoidal.tensor_obj(obj_map[x], obj_map[y]),
                              obj_map[acting.tensor_obj(x, y)],
                              f"multiplicativity cell at {(x, y)}")
                     for x in range(n) for y in range(n))
    if unit_cell is None:
        if object_functors[acting.unit] != identity_functor(carrier):
            raise StructureError("unit does not act as the identity; pass unit_cell")
        unit_iso = end.fc.as_category.identity[end.monoidal.unit]
    else:
        unit_iso = trans_id(unit_cell, end.monoidal.unit, obj_map[acting.unit],
                            "unit cell")
    action = MonFunctor(acting, end.monoidal, underlying, mult, unit_iso)
    bad = check_mon_functor(action, cap=1)
    if not bad.ok:
        raise StructureError("action is not a monoidal functor: "
                             + bad.violations[0].render())
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


def _require_frame(dom: ModuleData, cod: ModuleData, f: Functor, xi=None) -> None:
    """The gate on the hypotheses of the theorem in build_span starts here:
    one acting category, f between the carriers and, given xi, one
    transport per acting object."""
    if dom.acting != cod.acting:
        raise StructureError(
            "module bases differ: acting category with "
            f"{dom.acting.base.num_objects} objects / unit {dom.acting.unit} vs "
            f"{cod.acting.base.num_objects} objects / unit {cod.acting.unit}")
    if f.source != dom.carrier or f.target != cod.carrier:
        raise StructureError("functor does not match the module carriers")
    if xi is not None and len(xi) != dom.acting.base.num_objects:
        raise StructureError("one transport per acting object is required")


def _require_functor(f: Functor, dom: ModuleData, cod: ModuleData, xi=None) -> None:
    """(H2): the frame holds and f is a functor."""
    _require_frame(dom, cod, f, xi)
    bad = check_functor(f, cap=1)
    if not bad.ok:
        raise StructureError("f is not a functor: " + bad.violations[0].render())


def _transport_failures(dom: ModuleData, cod: ModuleData, f: Functor,
                        c: int, t: NatTrans):
    """Where t fails to be an invertible natural transformation
    f∘P(c) -> Q(c)∘f: its shape, else each naturality violation and then
    each component with no inverse."""
    if t.source != compose_functors(f, dom.functor_at(c)) \
            or t.target != compose_functors(cod.functor_at(c), f):
        yield "transport-shape", (c,), "transport has the wrong endpoints"
        return
    for v in check_nat_trans(t).violations:
        yield "transport-" + v.law, (c,) + v.witness, v.detail
    for m, x in enumerate(t.components):
        if cod.carrier.inverse(x) is None:
            yield "transport-iso", (c, m), "component is not invertible"


def _require_module_functor(fd: ModuleFunctorData) -> None:
    """(H2) and (H3): also, each transport is an apex object.  A pass is kept
    on fd, whose fields are immutable, as FinCategory keeps its tables, so
    a module functor is checked once however many spans and composites it
    enters."""
    if "_gate_passed" in fd.__dict__:
        return
    _require_functor(fd.f, fd.dom, fd.cod, fd.xi)
    for c, t in enumerate(fd.xi):
        for law, _, _ in _transport_failures(fd.dom, fd.cod, fd.f, c, t):
            raise StructureError(f"transport at acting object {c} " + (
                "has the wrong shape" if law == "transport-shape" else
                "is not invertible" if law == "transport-iso" else "is not natural"))
    fd.__dict__["_gate_passed"] = True


def module_functor(dom: ModuleData, cod: ModuleData, f: Functor,
                   xi: list[NatTrans] | None = None) -> ModuleFunctorData:
    """Wrap transport data; defaults to identity transports, which requires
    f to commute with the two actions on the nose."""
    if xi is None:
        _require_functor(f, dom, cod)
        xi = []
        for c in range(dom.acting.base.num_objects):
            left = compose_functors(f, dom.functor_at(c))
            if left != compose_functors(cod.functor_at(c), f):
                raise StructureError(
                    f"functor is not strictly equivariant at acting object {c}")
            xi.append(identity_nat_trans(left))
    fd = ModuleFunctorData(dom, cod, f, tuple(xi))
    _require_module_functor(fd)
    return fd


def identity_module_functor(md: ModuleData) -> ModuleFunctorData:
    return module_functor(md, md, identity_functor(md.carrier))


# The module-functor laws on transports xi: f∘P(c) -> Q(c)∘f, each stated
# once.  A scan yields every failing instance with the ids of its two paths
# (-1 for an undefined composite) in ascending order; checking reports them,
# the structure search and the 2-span apex stop at the first.

def _equivariance_failures(dom: ModuleData, cod: ModuleData, f: Functor,
                           xi, u: int):
    """xi_{c1} ∘ f(P(u)) = Q(u)_f ∘ xi_{c0} for the acting morphism u: c0 -> c1,
    at each carrier object m."""
    c0, c1 = dom.acting.base.source[u], dom.acting.base.target[u]
    p_at = dom.end.fc.transformations[dom.action.on_mor(u)].components
    q_at = cod.end.fc.transformations[cod.action.on_mor(u)].components
    t0, t1 = xi[c0].components, xi[c1].components
    comp, f_obj, f_mor = cod.carrier.comp, f.object_map, f.morphism_map
    for m in range(dom.carrier.num_objects):
        lhs = comp[t1[m]][f_mor[p_at[m]]]
        rhs = comp[q_at[f_obj[m]]][t0[m]]
        if lhs != rhs or lhs == -1:
            yield m, lhs, rhs


def _multiplicativity_failures(dom: ModuleData, cod: ModuleData, f: Functor, xi):
    """xi_{x⊗y} ∘ f(γ^P_{x,y}) = γ^Q_{x,y} f ∘ Q(x) xi_y ∘ xi_x P(y), at each
    (x, y, m)."""
    acting, n_cat = dom.acting, cod.carrier
    comp, f_obj, f_mor = n_cat.comp, f.object_map, f.morphism_map
    n = acting.base.num_objects
    for x in range(n):
        for y in range(n):
            gamma_p = dom.end.fc.transformations[dom.action.gamma(x, y)].components
            gamma_q = cod.end.fc.transformations[cod.action.gamma(x, y)].components
            p1, q0 = dom.functor_at(y).object_map, cod.functor_at(x).morphism_map
            t_xy = xi[acting.tensor_obj(x, y)].components
            t_x, t_y = xi[x].components, xi[y].components
            for m in range(dom.carrier.num_objects):
                lhs = comp[t_xy[m]][f_mor[gamma_p[m]]]
                rhs = n_cat.compose_path(gamma_q[f_obj[m]], q0[t_y[m]], t_x[p1[m]])
                if lhs != rhs or lhs == -1:
                    yield (x, y, m), lhs, rhs


def _unit_failures(dom: ModuleData, cod: ModuleData, f: Functor, xi):
    """xi_I ∘ f(η^P) = η^Q f, at each carrier object m."""
    eta_p = dom.end.fc.transformations[dom.action.unit_iso].components
    eta_q = cod.end.fc.transformations[cod.action.unit_iso].components
    t_unit = xi[dom.acting.unit].components
    comp = cod.carrier.comp
    for m in range(dom.carrier.num_objects):
        lhs = comp[t_unit[m]][f.morphism_map[eta_p[m]]]
        rhs = eta_q[f.object_map[m]]
        if lhs != rhs or lhs == -1:
            yield m, lhs, rhs


def _exchange_failures(dom: ModuleData, cod: ModuleData, a: NatTrans,
                       p: Functor, q: Functor, t_f: NatTrans, t_g: NatTrans):
    """Q(a) ∘ t_f = t_g ∘ a_P for a: f -> g and transports t_f: f∘P -> Q∘f,
    t_g: g∘P -> Q∘g, at each carrier object m."""
    comp, a_at = cod.carrier.comp, a.components
    for m in range(dom.carrier.num_objects):
        lhs = comp[q.morphism_map[a_at[m]]][t_f.components[m]]
        rhs = comp[t_g.components[m]][a_at[p.object_map[m]]]
        if lhs != rhs or lhs == -1:
            yield m, lhs, rhs


def check_module_functor(fd: ModuleFunctorData,
                         cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """The gate's transport scan, then equivariance, multiplicativity and the
    unit law, reported rather than raised; a bad frame raises, and f's own
    laws are check_functor's."""
    rb = ReportBuilder("module_functor", cap)
    dom, cod = fd.dom, fd.cod
    _require_frame(dom, cod, fd.f, fd.xi)
    for c, t in enumerate(fd.xi):
        shaped = True
        for law, witness, detail in _transport_failures(dom, cod, fd.f, c, t):
            rb.add(law, witness, detail)
            shaped = law != "transport-shape"
        if shaped and rb.full:  # a wrong shape never stops the scan
            return rb.report()
    if rb.report().ok:
        for u in range(dom.acting.base.num_morphisms):
            for m, lhs, rhs in _equivariance_failures(dom, cod, fd.f, fd.xi, u):
                rb.add("transport-equivariance", (u, m), f"paths {lhs} vs {rhs}")
        for witness, lhs, rhs in _multiplicativity_failures(dom, cod, fd.f, fd.xi):
            rb.add("transport-multiplicativity", witness, f"paths {lhs} vs {rhs}")
            if rb.full:
                return rb.report()
        for m, _, _ in _unit_failures(dom, cod, fd.f, fd.xi):
            rb.add("transport-unit", (m,), "unit square does not commute")
    return rb.report()


def compose_module_functors(g: ModuleFunctorData,
                            f: ModuleFunctorData) -> ModuleFunctorData:
    """g∘f with transports pasted: slide f's transport through g's functor,
    then apply g's transport, ξ_{c,m} = ξ^g_{c, f m} ∘ g(ξ^f_{c,m})
    (whiskering, CWM §II.5).  Both pass the gate first, so the middle
    functors g∘Q(c)∘f agree and every composite is defined."""
    if f.cod != g.dom:
        raise StructureError("module functors are not composable")
    for d in (f, g):
        _require_module_functor(d)
    comp, g_mor = g.f.target.comp, g.f.morphism_map
    xi = tuple(NatTrans(compose_functors(g.f, t_f.source),
                        compose_functors(t_g.target, f.f),
                        tuple(comp[t_g.components[fm]][g_mor[t]]
                              for fm, t in zip(f.f.object_map, t_f.components)))
               for t_f, t_g in zip(f.xi, g.xi))
    return ModuleFunctorData(f.dom, g.cod, compose_functors(g.f, f.f), xi)


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
    for d in (fd, gd):
        _require_frame(d.dom, d.cod, d.f, d.xi)
        # the exchange scan reads every transport component as an id of
        # the codomain carrier; check_nat_trans refuses the same shapes
        for t in d.xi:
            if len(t.components) != d.dom.carrier.num_objects:
                raise StructureError("component table length does not match "
                                     "the source category")
            for x, cx in enumerate(t.components):
                if not 0 <= cx < d.cod.carrier.num_morphisms:
                    raise StructureError(f"component at {x} is dangling id {cx}")
    rb.merge("underlying-", check_nat_trans(ad.a))
    for c in range(fd.dom.acting.base.num_objects):
        for m, lhs, rhs in _exchange_failures(
                fd.dom, fd.cod, ad.a, fd.dom.functor_at(c), gd.cod.functor_at(c),
                fd.xi[c], gd.xi[c]):
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


def _transport_id(fc: FunctorCategory, source: int, target: int,
                  components: tuple[int, ...]) -> int:
    """The id in fc of the transformation source -> target with these
    components.  A pasting of transports is one or two lookups in the
    carrier's comp table per component (whiskering and interchange, CWM
    §II.5); an undefined composite (-1) or an unnatural family is refused."""
    t = fc.transformation_index.get((source, target, components))
    if t is None:
        raise StructureError("pasted transport is not a transformation")
    return t


def build_span(fd: ModuleFunctorData, budget: Budget = DEFAULT_BUDGET,
               verify: bool = False) -> SpanCell:
    """The span associated to a module functor.

    Apex objects are triples (P, Q, xi: f∘P ≅ Q∘f); the tensor composes
    endofunctors on both sides and pastes the comparisons.

    Theorem.  Suppose (H1) both carriers are lawful; (H2) f is a functor
    dom.carrier -> cod.carrier over one acting category; (H3) each acting
    object has one transport, an invertible natural f∘P(c) -> Q(c)∘f, i.e.
    an apex object.  H1-H3 are checked before any enumeration: end_monoidal
    checks (H1) when each module is made, and _require_module_functor (H2)
    and (H3) first thing here.  Then the returned cell passes
    _verify_span_construction:
    - partial tensors: tensor_obj looks a⊗x up under exactly the key
      (P a⊗P x, Q a⊗Q x, pasted transport) the audit compares, and
      tensor_mor_over_product looks a⊗k up under (id⊗P k, id⊗Q k);
    - interchange: the apex composes and tensors factor by factor, and
      End(M) and End(N) are strict 2-categorical composites (CWM §II.3,
      §II.5);
    - associativity and unit: composing functors and pasting whiskered
      transformations are associative and unital on the nose (CWM §II.5),
      and tabulate_monoidal fills the associator and unitors with
      identities.
    So the default path checks only the hypotheses, and any failure of
    them raises StructureError.  verify=True re-derives the finished cell
    against the table form of the fiber product's mediator, the unitors
    against their unique 2-cells and the associator against identities;
    any disagreement raises.
    """
    dom, cod = fd.dom, fd.cod
    _require_module_functor(fd)
    endM, endN = dom.end, cod.end
    # over one carrier, Fun(M, N) is the End category's functor category
    hom_fc = endM.fc.within(budget) if dom.carrier == cod.carrier \
        else functor_category(dom.carrier, cod.carrier, budget)
    fp = fiber_product(pushforward(fd.f, endM.fc, hom_fc),
                       pullback(fd.f, endN.fc, hom_fc), budget)
    oi, mi = fp.object_index, fp.morphism_index
    comp, transes = cod.carrier.comp, hom_fc.transformations

    def tensor_obj(a0: int, a1: int) -> int:
        # the pasted transport (Q0 t1) ∘ (t0 P1): f∘P0∘P1 -> Q0∘Q1∘f
        p0, q0, x0 = fp.objects[a0]
        p1, q1, x1 = fp.objects[a1]
        p, q = endM.monoidal.tensor_obj(p0, p1), endN.monoidal.tensor_obj(q0, q1)
        t0, q0_mor = transes[x0].components, endN.fc.functors[q0].morphism_map
        pasted = tuple(comp[q0_mor[t1_m]][t0[p1_m]] for t1_m, p1_m in
                       zip(transes[x1].components, endM.fc.functors[p1].object_map))
        key = (p, q, _transport_id(hom_fc, fp.left.object_map[p],
                                   fp.right.object_map[q], pasted))
        if key not in oi:
            raise StructureError("span tensor left the apex; transports do not paste")
        return oi[key]

    unit_hom = fp.left.object_map[endM.monoidal.unit]
    unit_key = (endM.monoidal.unit, endN.monoidal.unit,
                hom_fc.as_category.identity[unit_hom])
    if unit_key not in oi:
        raise StructureError("span unit is missing from the apex")
    tensor_mor = tensor_mor_over_product(endM.monoidal, endN.monoidal, fp.morphisms,
                                         mi, "span tensor of morphisms left the apex")
    apex_ms = tabulate_monoidal(fp.apex, oi[unit_key], tensor_obj, tensor_mor,
                                budget=budget)

    leg_left = strict_mon_functor(apex_ms, endM.monoidal, fp.pr1)
    leg_right = strict_mon_functor(apex_ms, endN.monoidal, fp.pr2)

    # the action lift c ↦ (F(c), G(c), xi_c), an apex object by (H2), (H3)
    lift_obj = []
    for c, t in enumerate(fd.xi):
        p, q = dom.action.on_obj(c), cod.action.on_obj(c)
        x = hom_fc.transformation_index[(fp.left.object_map[p], fp.right.object_map[q],
                                         t.components)]
        lift_obj.append(oi[(p, q, x)])
    action_lift = lift_mon_functor(dom.acting, apex_ms, mi, lift_obj,
                                   (dom.action, cod.action), "action lift")

    cell = SpanCell(apex_ms, fp.objects, leg_left, leg_right, fp.filler,
                    hom_fc, fp, action_lift)
    if verify:
        _verify_span_construction(cell, endM, endN)
    return cell


def _verify_span_construction(cell: SpanCell, endM: EndCategory,
                              endN: EndCategory) -> None:
    """Check the explicit tensor against the mediator of the fiber product,
    the unitors against their unique 2-cells and the associator against the
    identities of strictly associative pasting, on tables.

    The mediator of a cone (p, q, ξ) is a ↦ (p a, q a, ξ_a), with identity
    witnesses in the strict model (limits.mediate).  So a⊗− is the mediator
    of its cone P(a)⊗P(−), Q(a)⊗Q(−), filler_{a⊗−} iff each a⊗x is the apex
    object (P a⊗P x, Q a⊗Q x, filler_{a⊗x}) and each a⊗k the apex morphism
    over (id⊗P k, id⊗Q k); likewise −⊗a.  These 2n partial tensors fix
    every entry with an identity factor, and interchange, f⊗g = (f⊗1)∘(1⊗g)
    (CWM §II.3), ties every other entry to those.
    """
    fp, apex_ms = cell.fp, cell.apex
    base = apex_ms.base
    n, m = base.num_objects, base.num_morphisms
    objects, arrows, mi = fp.objects, fp.morphisms, fp.morphism_index
    filler, unit = fp.filler.components, apex_ms.unit
    ident, src, tgt = base.identity, base.source, base.target
    partials: dict[bool, list[list[int]]] = {True: [], False: []}
    for on_left, unitor in ((True, apex_ms.left_unitor), (False, apex_ms.right_unitor)):
        def pair(a: int, x: int) -> tuple[int, int]:
            return (a, x) if on_left else (x, a)
        for a, (pa, qa, _) in enumerate(objects):
            row = [apex_ms.tensor_obj(*pair(a, x)) for x in range(n)]
            mor_row = [apex_ms.tensor_mor(*pair(ident[a], k)) for k in range(m)]
            partials[on_left].append(mor_row)
            id_pa, id_qa = endM.monoidal.base.identity[pa], endN.monoidal.base.identity[qa]
            if any(objects[ax] != (endM.monoidal.tensor_obj(*pair(pa, px)),
                                   endN.monoidal.tensor_obj(*pair(qa, qx)), filler[ax])
                   for ax, (px, qx, _) in zip(row, objects)) \
                    or any(mi.get((row[src[k]], row[tgt[k]],
                                   endM.monoidal.tensor_mor(*pair(id_pa, pk)),
                                   endN.monoidal.tensor_mor(*pair(id_qa, qk)))) != ak
                           for k, ((pk, qk), ak) in enumerate(zip(arrows, mor_row))):
                raise StructureError("mediator tensor disagrees with the explicit tensor")
        # the unique 2-cell I⊗− => id over identity whiskers (mediate_2cell)
        # exists iff I⊗− is the identity functor, and is then the identity;
        # with it the filler check above covers every apex object
        if [apex_ms.tensor_obj(*pair(unit, x)) for x in range(n)] != list(range(n)) \
                or partials[on_left][unit] != list(range(m)) or unitor != ident:
            raise StructureError("mediated unitor disagrees with the explicit one")
    a_tensor, tensor_b = partials[True], partials[False]  # a⊗− and −⊗b
    for f in range(m):
        for g in range(m):
            interchanged = base.comp[tensor_b[tgt[g]][f]][a_tensor[src[f]][g]]
            if apex_ms.tensor_mor(f, g) != interchanged:
                raise StructureError(
                    f"explicit tensor breaks interchange at ({f}, {g})")
    # pasting is associative on the nose, with identity associator components
    rows, assoc = apex_ms.tensor_rows(), apex_ms.associator
    for i in range(n):
        i_row = rows[i]
        for j in range(n):
            ij_row, j_row = rows[i_row[j]], rows[j]
            at = (i * n + j) * n
            for k in range(n):
                left = ij_row[k]
                right = i_row[j_row[k]]
                if left != right or assoc[at + k] != ident[left]:
                    raise StructureError(
                        f"span tensor is not strictly associative at ({i}, {j}, {k})")


def module_structures_on(f: Functor, dom: ModuleData, cod: ModuleData,
                         budget: Budget = DEFAULT_BUDGET) -> list[ModuleFunctorData]:
    """All transport families making f a module functor, by exhaustive search
    with incremental pruning; families are ordered lexicographically."""
    _require_functor(f, dom, cod)
    acting = dom.acting
    n = acting.base.num_objects
    n_cat = cod.carrier
    candidates: list[list[NatTrans]] = []
    considered = 0
    for c in range(n):
        left = compose_functors(f, dom.functor_at(c))
        right = compose_functors(cod.functor_at(c), f)
        found = [t for t in enumerate_nat_transes(left, right)
                 if all(n_cat.is_iso(x) for x in t.components)]
        considered += len(found)
        budget.check_morphisms(considered, "module structure candidates")
        candidates.append(found)
    # equivariance at u is tested once both of its ends are chosen, i.e.
    # when the later end is
    closing: list[list[int]] = [[] for _ in range(n)]
    for u in range(acting.base.num_morphisms):
        closing[max(acting.base.source[u], acting.base.target[u])].append(u)

    chosen: list[NatTrans | None] = [None] * n
    results: list[ModuleFunctorData] = []

    def backtrack(c: int) -> None:
        if c == n:
            if next(_multiplicativity_failures(dom, cod, f, chosen), None) is None \
                    and next(_unit_failures(dom, cod, f, chosen), None) is None:
                budget.check_objects(len(results) + 1, "module structures")
                results.append(ModuleFunctorData(
                    dom, cod, f, tuple(chosen)))  # type: ignore[arg-type]
            return
        for t in candidates[c]:
            chosen[c] = t
            if all(next(_equivariance_failures(dom, cod, f, chosen, u), None) is None
                   for u in closing[c]):
                backtrack(c + 1)
            chosen[c] = None

    backtrack(0)
    return results


def build_two_span(ad: ModuleNatTransData,
                   budget: Budget = DEFAULT_BUDGET) -> SpanCell:
    """The 2-span associated to a module transformation.

    The apex holds quadruples (P, Q, xi_f, xi_g) subject to the exchange
    condition against the transformation, built over End(M) × End(N) through
    category_over_product: (mu, nu) is a morphism when it is one in both
    fiber products.  Its vertical legs into the two spans send a quadruple
    to its triple in each and are lifted along the 2-span's own legs
    (lift_functor), as the strict mediators of the two fiber products are.
    So their composites with the spans' legs are the 2-span's legs on the
    nose, and each vertical filler, a 2-cell over identity whiskers in a
    strict iso-comma, is an identity (CWM §II.6).
    """
    fd, gd = ad.dom, ad.cod
    bad = check_module_nattrans(ad)
    if not bad.ok:
        first = bad.violations[0]
        raise StructureError(
            f"module transformation condition fails at witness {first.witness}")
    span_f = build_span(fd, budget)
    span_g = span_f if gd == fd else build_span(gd, budget)
    hom_fc = span_f.hom_fc
    phi = ad.a
    f_objs = span_f.fp.objects
    g_objs = span_g.fp.objects
    endM, endN = fd.dom.end, fd.cod.end

    quads: list[tuple[int, int]] = []
    for i, (p0, q0, x0) in enumerate(f_objs):
        for j, (p1, q1, x1) in enumerate(g_objs):
            if (p0, q0) == (p1, q1) and next(_exchange_failures(
                    fd.dom, fd.cod, phi, endM.fc.functors[p0], endN.fc.functors[q0],
                    hom_fc.transformations[x0], hom_fc.transformations[x1]),
                    None) is None:
                quads.append((i, j))
    quad_index = {q: i for i, q in enumerate(quads)}

    f_mi = span_f.fp.morphism_index
    g_mi = span_g.fp.morphism_index

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

    unit_pair = (span_f.apex.unit, span_g.apex.unit)
    if unit_pair not in quad_index:
        raise StructureError("2-span unit is missing")
    unit = quad_index[unit_pair]
    tensor_mor = tensor_mor_over_product(endM.monoidal, endN.monoidal, morphisms,
                                         mor_index, "2-span tensor of morphisms left the apex")
    apex_ms = tabulate_monoidal(apex_cat, unit, tensor_obj, tensor_mor,
                                budget=budget)

    # the vertical legs send (fi, gi) to fi and gi, lying over (mu, nu) in both
    p_proj = Functor(apex_cat, endM.fc.as_category,
                     tuple(f_objs[fi][0] for fi, _ in quads),
                     tuple(mu for mu, _ in morphisms))
    q_proj = Functor(apex_cat, endN.fc.as_category,
                     tuple(f_objs[fi][1] for fi, _ in quads),
                     tuple(nu for _, nu in morphisms))
    vert_f, vert_g = (
        strict_mon_functor(apex_ms, span.apex, lift_functor(
            apex_cat, span.fp.apex, span.fp.morphism_index, [q[side] for q in quads],
            morphisms, "2-span vertical leg"))
        for side, span in enumerate((span_f, span_g)))

    leg_left = strict_mon_functor(apex_ms, endM.monoidal, p_proj)
    leg_right = strict_mon_functor(apex_ms, endN.monoidal, q_proj)
    # the comma-shaped filler (Q φ) ∘ xi_f: f∘P -> Q∘g
    comp = fd.cod.carrier.comp
    filler_comps = []
    for fi, _ in quads:
        p0, q0, x0 = f_objs[fi]
        q_mor = endN.fc.functors[q0].morphism_map
        filler_comps.append(_transport_id(
            hom_fc, span_f.fp.left.object_map[p0], span_g.fp.right.object_map[q0],
            tuple(comp[q_mor[a]][t] for a, t in
                  zip(phi.components, hom_fc.transformations[x0].components))))
    filler = NatTrans(compose_functors(span_f.fp.left, p_proj),
                      compose_functors(span_g.fp.right, q_proj), tuple(filler_comps))

    apex_objects = tuple((f_objs[fi][0], f_objs[fi][1], f_objs[fi][2],
                          g_objs[gi][2]) for fi, gi in quads)
    lift_obj = []
    for c in range(fd.dom.acting.base.num_objects):
        key = (span_f.action_lift.on_obj(c), span_g.action_lift.on_obj(c))
        if key not in quad_index:
            raise StructureError(
                f"transports of the two module functors are incompatible at {c}")
        lift_obj.append(quad_index[key])
    action_lift = lift_mon_functor(fd.dom.acting, apex_ms, mor_index, lift_obj,
                                   (fd.dom.action, fd.cod.action),
                                   "2-span action lift")

    return SpanCell(apex_ms, apex_objects, leg_left, leg_right, filler,
                    hom_fc, None, action_lift, top=span_f, bottom=span_g,
                    vertical_legs=(vert_f, vert_g),
                    vertical_fillers=(identity_mon_nattrans(leg_left),
                                      identity_mon_nattrans(leg_right)))
