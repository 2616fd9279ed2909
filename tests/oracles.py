"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's incremental/backtracking
code paths: full cartesian products filtered by the defining laws, and
direct cochain arithmetic for cocycle and bicharacter conditions.  The
per-call hom and inverse scans are the ones FinCategory's tables replaced,
kept as their reference.  The exhaustive monoidal scans at the end are the
ones check_monoidal replaced with reduced scans, kept as their reference:
they compose every instance, in hom-sets with at most one morphism too.
The module-functor and module-transformation checkers at the end are the
bodies each law had before it was stated once in spans, and the module
structure search there takes the full product of transport candidates.
The pasted transports are built through whiskering and vertical
composition, as the span layer built them before it read each component
off the carrier's comp table.  The span verifier builds a Functor and
a NatTrans per partial tensor and runs the mediator on each, as build_span
did before it read the mediator's table form.  The laxator comparison, the
two ends of the coherence cell and the 2-span vertical legs last go through
the mediator and the reassociation functor, as the laxator and 2-span
layers built them before they lifted each functor along its outer legs.
The coherence cell through mediate_2cell and its scans, the 2-span vertical
fillers pasted from the legs, and the normalization check that compares
both legs of the diagonal with the identity are the routes those layers
took before each cell over identity whiskers was built as an identity.
The vertical and horizontal composites of monoidal transformations have no
caller in the library; they are kept here for the test that checks them.
"""
from __future__ import annotations

from itertools import product

from spanforge.fincat import (
    Budget,
    FinCategory,
    Functor,
    MediationError,
    NatTrans,
    StructureError,
    check_functor,
    check_nat_trans,
    compose_functors,
    horizontal_composite,
    identity_functor,
    identity_nat_trans,
    lift_functor,
    product_category,
    vertical_composite,
    whisker_post,
    whisker_pre,
)
from spanforge.groups import GroupTable
from spanforge.monoidal import (
    MonNatTrans,
    MonoidalStructure,
    _check_monoidal_laws,
    check_mon_functor,
    check_mon_nattrans,
    compose_mon_functors,
    identity_mon_functor,
    strict_mon_functor,
)
from spanforge.reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder
from spanforge.limits import mediate, mediate_2cell
from spanforge.laxators import (
    LaxatorCoherenceResult,
    LaxatorResult,
    MonoidalSquare,
    NormalizationResult,
    _composite_transport,
    _hom_profile,
    _image,
    monoidal_fiber_product,
)
from spanforge.spans import (
    EndCategory,
    ModuleData,
    ModuleFunctorData,
    ModuleNatTransData,
    SpanCell,
    build_span,
    identity_module_functor,
)


def scan_hom(c: FinCategory, x: int, y: int) -> tuple[int, ...]:
    """hom(x, y) by a scan over all morphisms, ascending."""
    return tuple(m for m in range(c.num_morphisms)
                 if c.source[m] == x and c.target[m] == y)


def scan_inverse(c: FinCategory, f: int) -> int | None:
    """The first g in ascending hom(y, x) that is a two-sided inverse of f."""
    x, y = c.source[f], c.target[f]
    for g in scan_hom(c, y, x):
        if c.comp[g][f] == c.identity[x] and c.comp[f][g] == c.identity[y]:
            return g
    return None


def brute_force_functors(m: FinCategory, n: FinCategory) -> list[Functor]:
    """Filter every (object_map, morphism_map) pair by the functor laws."""
    found = []
    for obj_map in product(range(n.num_objects), repeat=m.num_objects):
        for mor_map in product(range(n.num_morphisms), repeat=m.num_morphisms):
            ok = all(
                n.source[mor_map[f]] == obj_map[m.source[f]]
                and n.target[mor_map[f]] == obj_map[m.target[f]]
                for f in range(m.num_morphisms))
            ok = ok and all(mor_map[m.identity[x]] == n.identity[obj_map[x]]
                            for x in range(m.num_objects))
            ok = ok and all(
                n.comp[mor_map[g]][mor_map[f]] == mor_map[m.comp[g][f]]
                for g in range(m.num_morphisms)
                for f in range(m.num_morphisms)
                if m.comp[g][f] != -1)
            if ok:
                found.append(Functor(m, n, obj_map, mor_map))
    return found


def brute_force_nat_transes(fun: Functor, gun: Functor) -> list[NatTrans]:
    m, n = fun.source, fun.target
    found = []
    for comps in product(range(n.num_morphisms), repeat=m.num_objects):
        ok = all(n.source[comps[x]] == fun.object_map[x]
                 and n.target[comps[x]] == gun.object_map[x]
                 for x in range(m.num_objects))
        ok = ok and all(
            n.comp[gun.morphism_map[f]][comps[m.source[f]]]
            == n.comp[comps[m.target[f]]][fun.morphism_map[f]]
            for f in range(m.num_morphisms))
        if ok:
            found.append(NatTrans(fun, gun, comps))
    return found


def brute_force_fiber_objects(f: Functor, g: Functor, invertible: bool) -> list[tuple[int, int, int]]:
    """Triples (x, y, m) with m: f(x) -> g(y), restricted to isos when asked."""
    z = f.target
    found = []
    for x in range(f.source.num_objects):
        for y in range(g.source.num_objects):
            for m in range(z.num_morphisms):
                if z.source[m] != f.object_map[x] or z.target[m] != g.object_map[y]:
                    continue
                if invertible and z.inverse(m) is None:
                    continue
                found.append((x, y, m))
    return found


def brute_force_fiber_morphisms(f: Functor, g: Functor,
                                objs: list[tuple[int, int, int]]) -> list[tuple[int, int, int, int]]:
    """Quadruples (src_idx, tgt_idx, p, q) with xi'∘f(p) = g(q)∘xi."""
    z = f.target
    found = []
    for si, (x0, y0, m0) in enumerate(objs):
        for ti, (x1, y1, m1) in enumerate(objs):
            for p in f.source.hom(x0, x1):
                for q in g.source.hom(y0, y1):
                    if z.comp[m1][f.morphism_map[p]] == z.comp[g.morphism_map[q]][m0]:
                        found.append((si, ti, p, q))
    return found


def coboundary_vanishes(omega, g: GroupTable, u: GroupTable) -> bool:
    """d(omega) = 0 for omega: G^3 -> U, written multiplicatively in U."""
    n = g.order
    for a, b, c, d in product(range(n), repeat=4):
        lhs = u.mul(u.mul(omega[b][c][d], omega[a][g.mul(b, c)][d]),
                    omega[a][b][c])
        rhs = u.mul(omega[g.mul(a, b)][c][d], omega[a][b][g.mul(c, d)])
        if lhs != rhs:
            return False
    return True


def is_bicharacter(c, g: GroupTable, u: GroupTable) -> bool:
    n = g.order
    for a, b, x in product(range(n), repeat=3):
        if c[a][g.mul(b, x)] != u.mul(c[a][b], c[a][x]):
            return False
        if c[g.mul(a, b)][x] != u.mul(c[a][x], c[b][x]):
            return False
    return True


def bicharacter_radical(c, g: GroupTable, u: GroupTable) -> set[int]:
    """Elements whose pairing c(a,b)·c(b,a) is the unit of U for every b."""
    return {a for a in range(g.order)
            if all(u.mul(c[a][b], c[b][a]) == 0 for b in range(g.order))}


def brute_force_half_braidings(ms, x: int) -> list[tuple[int, ...]]:
    """All invertible half-braidings on the carrier x, by filtering the full
    product of component choices through naturality and the hexagon."""
    base = ms.base
    n = base.num_objects
    slots = [ms.base.isos(ms.tensor_obj(x, y), ms.tensor_obj(y, x))
             for y in range(n)]
    found = []
    for comps in product(*slots):
        natural = all(
            base.comp[comps[base.target[u]]][ms.tensor_mor(base.identity[x], u)]
            == base.comp[ms.tensor_mor(u, base.identity[x])][comps[base.source[u]]]
            for u in range(base.num_morphisms))
        if not natural:
            continue
        hexagon = True
        for y in range(n):
            for z in range(n):
                one_step = base.comp[comps[ms.tensor_obj(y, z)]][
                    ms.alpha(x, y, z)]
                lhs = base.comp[ms.alpha(y, z, x)][one_step]
                two_step = base.comp[ms.alpha(y, x, z)][
                    ms.tensor_mor(comps[y], base.identity[z])]
                rhs = base.comp[ms.tensor_mor(base.identity[y], comps[z])][two_step]
                if lhs != rhs or lhs == -1:
                    hexagon = False
        if hexagon:
            found.append(tuple(comps))
    return found


def exhaustive_tensor_scan(ms: MonoidalStructure, rb: ReportBuilder) -> None:
    """check_functor on the tensor as a functor out of the materialised
    product base × base, whose pair (f, g) has id f*m + g."""
    base = ms.base
    square = product_category(base, base, Budget(base.num_objects ** 2,
                                                 base.num_morphisms ** 2))
    tensor = Functor(square.category, base, ms.tensor_objects,
                     ms.tensor_morphisms)
    for v in check_functor(tensor, rb.cap).violations:
        rb.add("tensor-" + v.law, v.witness, v.detail)


def joint_associator_naturality(ms: MonoidalStructure, rb: ReportBuilder) -> None:
    """Naturality of the associator in all three arguments at once: m³ triples."""
    base = ms.base
    m = base.num_morphisms
    for p in range(m):
        for q in range(m):
            pq = ms.tensor_mor(p, q)
            for r in range(m):
                lhs = base.comp[ms.alpha(base.target[p], base.target[q], base.target[r])][
                    ms.tensor_mor(pq, r)]
                rhs = base.comp[ms.tensor_mor(p, ms.tensor_mor(q, r))][
                    ms.alpha(base.source[p], base.source[q], base.source[r])]
                if lhs != rhs or lhs == -1:
                    rb.add("associator-naturality", (p, q, r),
                           f"paths {lhs} vs {rhs}")
                    if rb.full:
                        return


def exhaustive_coherence(ms: MonoidalStructure, rb: ReportBuilder) -> None:
    """Associator naturality over all m³ triples, then unitor naturality, the
    pentagon and the triangle, composing both paths of every instance, thin
    hom-sets included."""
    joint_associator_naturality(ms, rb)
    if rb.full:
        return
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    id_unit = base.identity[ms.unit]
    for p in range(m):
        x, y = base.source[p], base.target[p]
        lhs = base.comp[ms.left_unitor[y]][ms.tensor_mor(id_unit, p)]
        if lhs != base.comp[p][ms.left_unitor[x]] or lhs == -1:
            rb.add("left-unitor-naturality", (p,), "square does not commute")
        lhs = base.comp[ms.right_unitor[y]][ms.tensor_mor(p, id_unit)]
        if lhs != base.comp[p][ms.right_unitor[x]] or lhs == -1:
            rb.add("right-unitor-naturality", (p,), "square does not commute")
        if rb.full:
            return
    for w, x, y, z in product(range(n), repeat=4):
        lhs = base.compose_path(
            ms.tensor_mor(base.identity[w], ms.alpha(x, y, z)),
            ms.alpha(w, ms.tensor_obj(x, y), z),
            ms.tensor_mor(ms.alpha(w, x, y), base.identity[z]))
        rhs = base.comp[ms.alpha(w, x, ms.tensor_obj(y, z))][
            ms.alpha(ms.tensor_obj(w, x), y, z)]
        if lhs != rhs:
            rb.add("pentagon", (w, x, y, z), f"paths {lhs} vs {rhs}")
            if rb.full:
                return
    for x, y in product(range(n), repeat=2):
        lhs = base.comp[ms.tensor_mor(base.identity[x], ms.left_unitor[y])][
            ms.alpha(x, ms.unit, y)]
        rhs = ms.tensor_mor(ms.right_unitor[x], base.identity[y])
        if lhs != rhs:
            rb.add("triangle", (x, y), f"paths {lhs} vs {rhs}")
            if rb.full:
                return


def exhaustive_check_monoidal(ms: MonoidalStructure,
                              cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """check_monoidal with the exhaustive bifunctor scan and the exhaustive
    coherence scans in place of the reduced ones; the gates before them are
    shared."""
    return _check_monoidal_laws(ms, cap, exhaustive_tensor_scan,
                                exhaustive_coherence)


# ---------------------------------------------------------------------------
# module functors and transformations
# ---------------------------------------------------------------------------

def reference_check_module_functor(fd: ModuleFunctorData,
                                   cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """check_module_functor with each transport law written in place."""
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


def reference_check_module_nattrans(ad: ModuleNatTransData,
                                    cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """check_module_nattrans with the exchange condition written in place."""
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


def transport_candidates(f: Functor, dom: ModuleData,
                         cod: ModuleData) -> list[list[NatTrans]]:
    """Per acting object c, every natural transformation f∘P(c) -> Q(c)∘f
    with invertible components, by brute force."""
    n_cat = cod.carrier
    return [[t for t in brute_force_nat_transes(compose_functors(f, dom.functor_at(c)),
                                                compose_functors(cod.functor_at(c), f))
             if all(scan_inverse(n_cat, x) is not None for x in t.components)]
            for c in range(dom.acting.base.num_objects)]


def brute_force_module_structures(f: Functor, dom: ModuleData,
                                  cod: ModuleData) -> list[tuple[NatTrans, ...]]:
    """Every transport family making f a module functor: the full product of
    transport_candidates, filtered by equivariance, multiplicativity and the
    unit law, each composite taken from the table."""
    acting, comp = dom.acting, cod.carrier.comp
    carrier_objects = range(dom.carrier.num_objects)
    fc_p, fc_q = dom.end.fc, cod.end.fc

    def lawful(xi: tuple[NatTrans, ...]) -> bool:
        at = [t.components for t in xi]
        for u in range(acting.base.num_morphisms):
            c0, c1 = acting.base.source[u], acting.base.target[u]
            p_u = fc_p.transformations[dom.action.on_mor(u)].components
            q_u = fc_q.transformations[cod.action.on_mor(u)].components
            for m in carrier_objects:
                if comp[at[c1][m]][f.morphism_map[p_u[m]]] \
                        != comp[q_u[f.object_map[m]]][at[c0][m]]:
                    return False
        for x in range(acting.base.num_objects):
            for y in range(acting.base.num_objects):
                xy = acting.tensor_obj(x, y)
                g_p = fc_p.transformations[dom.action.gamma(x, y)].components
                g_q = fc_q.transformations[cod.action.gamma(x, y)].components
                q_x, p_y = cod.functor_at(x), dom.functor_at(y)
                for m in carrier_objects:
                    inner = comp[q_x.morphism_map[at[y][m]]][at[x][p_y.object_map[m]]]
                    if comp[at[xy][m]][f.morphism_map[g_p[m]]] \
                            != comp[g_q[f.object_map[m]]][inner]:
                        return False
        e_p = fc_p.transformations[dom.action.unit_iso].components
        e_q = fc_q.transformations[cod.action.unit_iso].components
        return all(comp[at[acting.unit][m]][f.morphism_map[e_p[m]]]
                   == e_q[f.object_map[m]] for m in carrier_objects)

    return [xi for xi in product(*transport_candidates(f, dom, cod)) if lawful(xi)]


# ---------------------------------------------------------------------------
# pasted transports
# ---------------------------------------------------------------------------

def whiskered_apex_transport(t0: NatTrans, t1: NatTrans, p1: Functor,
                             q0: Functor) -> NatTrans:
    """(Q0 after t1) ∘ (t0 before P1): the transport of the tensor of two
    span apex objects (P0, Q0, t0) and (P1, Q1, t1)."""
    return vertical_composite(whisker_post(q0, t1), whisker_pre(t0, p1))


def whiskered_composite_transport(fd: ModuleFunctorData, gd: ModuleFunctorData,
                                  t1: NatTrans, t2: NatTrans,
                                  w: NatTrans) -> NatTrans:
    """(t2 before f) ∘ (g after w before f) ∘ (g after t1): the comparison w
    between middle endofunctors slid into the transport of g∘f."""
    step1 = whisker_post(gd.f, t1)
    step2 = whisker_post(gd.f, whisker_pre(w, fd.f))
    step3 = whisker_pre(t2, fd.f)
    return vertical_composite(step3, vertical_composite(step2, step1))


def whiskered_filler_transport(q: Functor, phi: NatTrans,
                               t_f: NatTrans) -> NatTrans:
    """(Q after phi) ∘ t_f: the 2-span filler at a quadruple over (P, Q)."""
    return vertical_composite(whisker_post(q, phi), t_f)


def whiskered_compose_module_functors(g: ModuleFunctorData,
                                      f: ModuleFunctorData) -> ModuleFunctorData:
    """g∘f with each transport (g's transport before f) ∘ (g after f's)."""
    if f.cod != g.dom:
        raise StructureError("module functors are not composable")
    xi = tuple(vertical_composite(whisker_pre(g.xi[c], f.f), whisker_post(g.f, f.xi[c]))
               for c in range(f.dom.acting.base.num_objects))
    return ModuleFunctorData(f.dom, g.cod, compose_functors(g.f, f.f), xi)


# ---------------------------------------------------------------------------
# span verification
# ---------------------------------------------------------------------------

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


def mediated_verify_span_construction(cell: SpanCell, endM: EndCategory,
                                      endN: EndCategory) -> None:
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
            if mediate(fp, p_cone, q_cone, comparison) != explicit:
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
    rows, filler = apex_ms.tensor_rows(), fp.filler.components
    for i in range(n):
        i_row = rows[i]
        for j in range(n):
            ij_row, j_row = rows[i_row[j]], rows[j]
            for k in range(n):
                left = ij_row[k]
                right = i_row[j_row[k]]
                if left != right:
                    raise StructureError(
                        f"span tensor is not strictly associative at ({i}, {j}, {k})")
                if filler[left] != filler[right]:
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


# ---------------------------------------------------------------------------
# mediated laxator comparisons, coherence ends and 2-span vertical legs
# ---------------------------------------------------------------------------

def mediated_comparison(fd: ModuleFunctorData, gd: ModuleFunctorData,
                        lax: LaxatorResult) -> Functor:
    """The laxator comparison as the mediator of the composite span's fiber
    product, over the cone of outer legs and pasted transports."""
    span_f, span_g, span_gf = lax.span_left, lax.span_right, lax.span_composite
    w_fp = lax.pairing.fp
    p = compose_functors(span_f.leg_left.underlying, w_fp.pr1)
    q = compose_functors(span_g.leg_right.underlying, w_fp.pr2)
    xi = NatTrans(compose_functors(span_gf.fp.left, p),
                  compose_functors(span_gf.fp.right, q),
                  tuple(_composite_transport(fd, gd, span_f, span_g, span_gf, af, ag, w)
                        for af, ag, w in w_fp.objects))
    return mediate(span_gf.fp, p, q, xi)


def _induced_pairing_map(source_sq: MonoidalSquare, target_sq: MonoidalSquare,
                         left_map: Functor | None,
                         right_map: Functor | None) -> Functor:
    """The functor between fiber products acting by the given maps on the two
    coordinates and leaving the comparison morphism untouched; the maps must
    commute with the relevant cospan legs on the nose."""
    src_fp, tgt_fp = source_sq.fp, target_sq.fp
    oi = tgt_fp.object_index
    obj_map = []
    for x, y, w in src_fp.objects:
        nx = left_map.object_map[x] if left_map is not None else x
        ny = right_map.object_map[y] if right_map is not None else y
        key = (nx, ny, w)
        if key not in oi:
            raise StructureError("induced map left the fiber product")
        obj_map.append(oi[key])
    arrows = ((left_map.morphism_map[p] if left_map is not None else p,
               right_map.morphism_map[q] if right_map is not None else q)
              for p, q in src_fp.morphisms)
    return lift_functor(src_fp.apex, tgt_fp.apex, tgt_fp.morphism_index,
                        obj_map, arrows, "induced pairing map")


def _reassociate(t_right: MonoidalSquare, t_left: MonoidalSquare,
                 inner_right: MonoidalSquare,
                 inner_left: MonoidalSquare) -> Functor:
    """x ×_N (y ×_P z)  →  (x ×_N y) ×_P z on literal triples."""
    in_left_oi = inner_left.fp.object_index
    in_left_mi = inner_left.fp.morphism_index
    out_oi = t_left.fp.object_index
    out_mi = t_left.fp.morphism_index
    obj_map = []
    for x, j, w1 in t_right.fp.objects:
        y, z, w2 = inner_right.fp.objects[j]
        inner = in_left_oi[(x, y, w1)]
        obj_map.append(out_oi[(inner, z, w2)])
    mor_map = []
    for k in range(t_right.fp.apex.num_morphisms):
        p, mj = t_right.fp.morphisms[k]
        q, r = inner_right.fp.morphisms[mj]
        src = t_right.fp.apex.source[k]
        tgt = t_right.fp.apex.target[k]
        x0, j0, w_src = t_right.fp.objects[src]
        x1, j1, w_tgt = t_right.fp.objects[tgt]
        y0 = inner_right.fp.objects[j0][0]
        y1 = inner_right.fp.objects[j1][0]
        inner = in_left_mi[(in_left_oi[(x0, y0, w_src)],
                            in_left_oi[(x1, y1, w_tgt)], p, q)]
        mor_map.append(out_mi[(obj_map[src], obj_map[tgt], inner, r)])
    return Functor(t_right.fp.apex, t_left.fp.apex, tuple(obj_map),
                   tuple(mor_map))


def reassociated_coherence_ends(result: LaxatorCoherenceResult,
                                budget: Budget) -> tuple[Functor, Functor]:
    """u and v of the coherence cell: u reassociates x ×_N (y ×_P z) into
    (x ×_N y) ×_P z and collapses (f, g) first, v collapses (g, h) first;
    both must agree on the outer legs."""
    lax_fg, lax_gh = result.lax_fg, result.lax_gh
    lax_gf_h, lax_f_hg = result.lax_gf_h, result.lax_f_hg
    span_hgf = lax_gf_h.span_composite
    # (A_f x A_g) x A_h and A_f x (A_g x A_h)
    left_edge = compose_mon_functors(lax_fg.span_right.leg_right,
                                     lax_fg.pairing.pr2)
    t_left = monoidal_fiber_product(left_edge, lax_gh.span_right.leg_left,
                                    budget)
    right_edge = compose_mon_functors(lax_gh.span_left.leg_left,
                                      lax_gh.pairing.pr1)
    t_right = monoidal_fiber_product(lax_fg.span_left.leg_right, right_edge,
                                     budget)
    reassoc = _reassociate(t_right, t_left, lax_gh.pairing, lax_fg.pairing)

    # route A: collapse (f, g) first, then against h
    phi_fg_one = _induced_pairing_map(t_left, lax_gf_h.pairing,
                                      lax_fg.comparison.underlying, None)
    route_a = compose_functors(lax_gf_h.comparison.underlying, phi_fg_one)
    # route B: collapse (g, h) first, then against f
    one_phi_gh = _induced_pairing_map(t_right, lax_f_hg.pairing, None,
                                      lax_gh.comparison.underlying)
    route_b = compose_functors(lax_f_hg.comparison.underlying, one_phi_gh)

    u = compose_functors(route_a, reassoc)
    v = route_b
    pr1u = compose_functors(span_hgf.fp.pr1, u)
    pr1v = compose_functors(span_hgf.fp.pr1, v)
    pr2u = compose_functors(span_hgf.fp.pr2, u)
    pr2v = compose_functors(span_hgf.fp.pr2, v)
    if pr1u != pr1v or pr2u != pr2v:
        raise StructureError("triple collapses disagree on the outer legs")
    return u, v


def mediated_vertical_legs(cell: SpanCell) -> tuple[Functor, Functor]:
    """The vertical legs of a 2-span as the mediators of its two spans' fiber
    products, over its own legs and the xi_f and xi_g of its quadruples."""
    span_f, span_g = cell.top, cell.bottom
    p_proj, q_proj = cell.leg_left.underlying, cell.leg_right.underlying
    xi_f = NatTrans(compose_functors(span_f.fp.left, p_proj),
                    compose_functors(span_f.fp.right, q_proj),
                    tuple(x_f for _, _, x_f, _ in cell.apex_objects))
    xi_g = NatTrans(compose_functors(span_g.fp.left, p_proj),
                    compose_functors(span_g.fp.right, q_proj),
                    tuple(x_g for _, _, _, x_g in cell.apex_objects))
    return (mediate(span_f.fp, p_proj, q_proj, xi_f),
            mediate(span_g.fp, p_proj, q_proj, xi_g))


# ---------------------------------------------------------------------------
# cells over identity whiskers, mediated and pasted
# ---------------------------------------------------------------------------

def mediated_coherence_cell(result: LaxatorCoherenceResult, budget: Budget
                            ) -> tuple[MonNatTrans, bool, Report]:
    """The coherence cell of a triple, with cell_is_identity and cell_report,
    as mediate_2cell gives it and check_mon_nattrans scans it."""
    lax_fg, lax_gh = result.lax_fg, result.lax_gh
    lax_gf_h, lax_f_hg = result.lax_gf_h, result.lax_f_hg
    span_h, span_hgf = lax_gh.span_right, lax_gf_h.span_composite
    right_edge = compose_mon_functors(lax_gh.span_left.leg_left,
                                      lax_gh.pairing.pr1)
    t_right = monoidal_fiber_product(lax_fg.span_left.leg_right, right_edge,
                                     budget)
    u_obj, v_obj = [], []
    for x, j, w1 in t_right.fp.objects:
        y, z, w2 = lax_gh.pairing.fp.objects[j]
        u_obj.append(_image(lax_gf_h, (_image(lax_fg, (x, y, w1)), z, w2)))
        v_obj.append(_image(lax_f_hg, (x, _image(lax_gh, (y, z, w2)), w1)))
    outer_p = compose_functors(lax_fg.span_left.leg_left.underlying, t_right.fp.pr1)
    outer_r = compose_functors(span_h.leg_right.underlying,
                               compose_functors(lax_gh.pairing.fp.pr2, t_right.fp.pr2))
    arrows = list(zip(outer_p.morphism_map, outer_r.morphism_map))
    u, v = (lift_functor(t_right.fp.apex, span_hgf.fp.apex, span_hgf.fp.morphism_index,
                         obj_map, arrows, "triple collapse")
            for obj_map in (u_obj, v_obj))
    theta = mediate_2cell(span_hgf.fp, u, v, identity_nat_trans(outer_p),
                          identity_nat_trans(outer_r))
    is_identity = u == v and theta == identity_nat_trans(u)

    rb = ReportBuilder("laxator_coherence")
    apex = span_hgf.apex.base
    for a in range(u.source.num_objects):
        if apex.inverse(theta.components[a]) is None:
            rb.add("coherence-cell-iso", (a,), "component is not invertible")
    # as a monoidal transformation between monoidal comparisons
    cell = MonNatTrans(strict_mon_functor(t_right.apex, span_hgf.apex, u),
                       strict_mon_functor(t_right.apex, span_hgf.apex, v), theta)
    sub = check_mon_nattrans(cell)
    for viol in sub.violations:
        rb.add(viol.law, viol.witness, viol.detail)
    return cell, is_identity, rb.report()


def pasted_vertical_fillers(cell: SpanCell) -> tuple[MonNatTrans, MonNatTrans]:
    """The vertical fillers of a 2-span between the composites of its
    vertical legs with the two spans' legs, pasted through
    compose_mon_functors."""
    span_f, span_g = cell.top, cell.bottom
    vert_f, vert_g = cell.vertical_legs
    p_proj, q_proj = cell.leg_left.underlying, cell.leg_right.underlying
    # the legs lie over the 2-span's: pr1∘vert = p_proj, pr2∘vert = q_proj
    ident_f = MonNatTrans(compose_mon_functors(span_f.leg_left, vert_f),
                          compose_mon_functors(span_g.leg_left, vert_g),
                          identity_nat_trans(p_proj))
    ident_g = MonNatTrans(compose_mon_functors(span_f.leg_right, vert_f),
                          compose_mon_functors(span_g.leg_right, vert_g),
                          identity_nat_trans(q_proj))
    return ident_f, ident_g


def retracted_normalization_check(md: ModuleData,
                                  budget: Budget) -> NormalizationResult:
    """normalization_check with the diagonal's objects looked up by the
    transformation id of each identity transport, and both legs composed
    with the diagonal and compared with the identity."""
    rb = ReportBuilder("normalization")
    idf = identity_module_functor(md)
    cell = build_span(idf, budget)
    end = md.end
    apex = cell.apex.base
    oi = cell.fp.object_index
    end_cat = end.fc.as_category
    obj_map = [oi[(i, i, cell.hom_fc.transformation_id(identity_nat_trans(fun)))]
               for i, fun in enumerate(end.fc.functors)]
    try:
        diag_fun = lift_functor(end_cat, apex, cell.fp.morphism_index, obj_map,
                                ((k, k) for k in range(end_cat.num_morphisms)),
                                "diagonal")
    except MediationError as exc:
        rb.add("diagonal-morphism", exc.witness, "pair is not an apex morphism")
        return NormalizationResult(rb.report(), False, apex.num_objects,
                                   end_cat.num_objects)
    n = end_cat.num_objects
    diag = strict_mon_functor(end.monoidal, cell.apex, diag_fun)
    sub = check_mon_functor(diag)
    for v in sub.violations:
        rb.add("diagonal-" + v.law, v.witness, v.detail)
    left = compose_mon_functors(cell.leg_left, diag)
    right = compose_mon_functors(cell.leg_right, diag)
    ident_mon = identity_mon_functor(end.monoidal)
    if left != ident_mon:
        rb.add("left-leg-identity", (), "left leg does not retract the diagonal")
    if right != ident_mon:
        rb.add("right-leg-identity", (), "right leg does not retract the diagonal")
    pairs, missed = _hom_profile(diag_fun)
    for witness, collide, uncovered in pairs:
        if collide:
            rb.add("diagonal-faithful", witness, "images collide")
        if uncovered:
            rb.add("diagonal-full", witness, "hom-set is not covered")
    if missed is not None:
        rb.add("diagonal-essentially-surjective", (missed,),
               "apex object misses the diagonal")
    return NormalizationResult(rb.report(), apex.num_objects == n,
                               apex.num_objects, n)


def vcomp_mon_nattrans(b: MonNatTrans, a: MonNatTrans) -> MonNatTrans:
    if a.target != b.source:
        raise StructureError("vertical composition: middle monoidal functors differ")
    return MonNatTrans(a.source, b.target,
                       vertical_composite(b.underlying, a.underlying))


def hcomp_mon_nattrans(b: MonNatTrans, a: MonNatTrans) -> MonNatTrans:
    """b★a for a between functors C -> D and b between functors D -> E."""
    if a.source.target != b.source.source:
        raise StructureError("horizontal composition: structures do not meet")
    return MonNatTrans(compose_mon_functors(b.source, a.source),
                       compose_mon_functors(b.target, a.target),
                       horizontal_composite(b.underlying, a.underlying))
