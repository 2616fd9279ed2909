"""Lax functoriality of the span construction.

Composing two module functors gives two spans of monoidal categories: the
fiber-product composite of the individual spans, and the span of the
composite functor.  The comparison from the former into the latter is
produced by the mediator of the underlying fiber product; it need not be
invertible, so its failure modes (essential surjectivity, fullness,
faithfulness) are measured and reported, never assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fincat import (
    Budget,
    DEFAULT_BUDGET,
    Functor,
    NatTrans,
    StructureError,
    compose_functors,
    identity_nat_trans,
    vertical_composite,
    whisker_post,
    whisker_pre,
)
from .limits import FiberProductResult, fiber_product, mediate, mediate_2cell
from .monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    check_mon_functor,
    check_mon_nattrans,
    compose_mon_functors,
    identity_mon_functor,
    strict_mon_functor,
    tabulate_monoidal,
)
from .reporting import Report, ReportBuilder
from .spans import (
    ModuleFunctorData,
    SpanCell,
    build_span,
    compose_module_functors,
    identity_module_functor,
)


@dataclass(frozen=True)
class MonoidalSquare:
    """A fiber product of monoidal categories along two monoidal functors,
    with its induced tensor (tensor both sides, paste comparisons through
    the multiplicativity cells) and projections."""

    fp: FiberProductResult
    apex: MonoidalStructure
    pr1: MonFunctor
    pr2: MonFunctor
    braiding: Braiding | None = None


def monoidal_fiber_product(f: MonFunctor, g: MonFunctor,
                           budget: Budget = DEFAULT_BUDGET,
                           braidings: tuple[Braiding, Braiding] | None = None,
                           ) -> MonoidalSquare:
    if f.target != g.target:
        raise StructureError("monoidal fiber product needs a common codomain")
    fp = fiber_product(f.underlying, g.underlying, budget)
    z = f.target
    zb = z.base
    oi = fp.object_index()
    mi = fp.morphism_index()
    xs, ys = f.source, g.source
    apex_cat = fp.apex
    n = apex_cat.num_objects

    def tensor_obj(a0: int, a1: int) -> int:
        x0, y0, xi0 = fp.objects[a0]
        x1, y1, xi1 = fp.objects[a1]
        xi = zb.compose_path(g.gamma(y0, y1), z.tensor_mor(xi0, xi1),
                             f.gamma_inv(x0, x1))
        key = (xs.tensor_obj(x0, x1), ys.tensor_obj(y0, y1), xi)
        if key not in oi:
            raise StructureError("monoidal fiber tensor left the apex")
        return oi[key]

    def lift(src: int, tgt: int, p: int, q: int, what: str) -> int:
        key = (src, tgt, p, q)
        if key not in mi:
            raise StructureError(f"{what} is not an apex morphism")
        return mi[key]

    def tensor_mor(k0: int, k1: int, s: int, t: int) -> int:
        key = (s, t, xs.tensor_mor(fp.morphisms[k0][0], fp.morphisms[k1][0]),
               ys.tensor_mor(fp.morphisms[k0][1], fp.morphisms[k1][1]))
        if key not in mi:
            raise StructureError("monoidal fiber tensor of morphisms left the apex")
        return mi[key]

    eta_f_inv = zb.inverse(f.unit_iso)
    if eta_f_inv is None:
        raise StructureError("unit cell of the first leg is not invertible")
    unit_key = (xs.unit, ys.unit, zb.compose(g.unit_iso, eta_f_inv))
    if unit_key not in oi:
        raise StructureError("monoidal fiber unit is missing")
    obj = fp.objects
    apex_ms = tabulate_monoidal(
        apex_cat, oi[unit_key], tensor_obj, tensor_mor,
        associator=lambda i, j, k, s, t: lift(
            s, t, xs.alpha(obj[i][0], obj[j][0], obj[k][0]),
            ys.alpha(obj[i][1], obj[j][1], obj[k][1]), "associator pair"),
        left_unitor=lambda i, s: lift(s, i, xs.left_unitor[obj[i][0]],
                                      ys.left_unitor[obj[i][1]], "left unitor pair"),
        right_unitor=lambda i, s: lift(s, i, xs.right_unitor[obj[i][0]],
                                       ys.right_unitor[obj[i][1]], "right unitor pair"),
        budget=budget)
    pr1 = strict_mon_functor(apex_ms, xs, fp.pr1)
    pr2 = strict_mon_functor(apex_ms, ys, fp.pr2)
    braiding = None
    if braidings is not None:
        bx, by = braidings
        if bx.on != xs or by.on != ys:
            raise StructureError("braidings do not match the cospan feet")
        beta = tuple(lift(apex_ms.tensor_obj(i, j), apex_ms.tensor_obj(j, i),
                          bx.at(fp.objects[i][0], fp.objects[j][0]),
                          by.at(fp.objects[i][1], fp.objects[j][1]),
                          "braiding pair")
                     for i in range(n) for j in range(n))
        braiding = Braiding(apex_ms, beta)
    return MonoidalSquare(fp, apex_ms, pr1, pr2, braiding)


# ---------------------------------------------------------------------------
# the comparison into the span of a composite
# ---------------------------------------------------------------------------

def _composite_transport(fd: ModuleFunctorData, gd: ModuleFunctorData,
                         span_f: SpanCell, span_g: SpanCell,
                         span_gf: SpanCell, af: int, ag: int,
                         w: int) -> NatTrans:
    """Slide the comparison w between the middle endofunctors into the pasted
    transport of the composite: (xi2 before f) ∘ (g after w before f) ∘ (g after xi1)."""
    p0, q0, x0 = span_f.fp.objects[af]
    q1, r1, x1 = span_g.fp.objects[ag]
    t1 = span_f.hom_fc.transformations[x0]
    t2 = span_g.hom_fc.transformations[x1]
    w_nat = fd.cod.end.fc.transformations[w]
    step1 = whisker_post(gd.f, t1)
    step2 = whisker_post(gd.f, whisker_pre(w_nat, fd.f))
    step3 = whisker_pre(t2, fd.f)
    return vertical_composite(step3, vertical_composite(step2, step1))


@dataclass(frozen=True)
class LaxatorResult:
    composite: ModuleFunctorData
    span_left: SpanCell
    span_right: SpanCell
    span_composite: SpanCell
    pairing: MonoidalSquare
    comparison: MonFunctor
    essentially_surjective: bool
    missed_object: int | None
    full: bool
    faithful: bool
    bijective_on_objects: bool
    table_isomorphism: bool


def laxator(fd: ModuleFunctorData, gd: ModuleFunctorData,
            budget: Budget = DEFAULT_BUDGET) -> LaxatorResult:
    """The canonical comparison from the composite of the two spans into the
    span of the composite module functor, with its invertibility profile."""
    if fd.cod != gd.dom:
        raise StructureError("module functors are not composable")
    span_f = build_span(fd, budget)
    span_g = build_span(gd, budget)
    composite = compose_module_functors(gd, fd)
    span_gf = build_span(composite, budget)
    pairing = monoidal_fiber_product(span_f.leg_right, span_g.leg_left, budget)
    w_fp = pairing.fp
    p = compose_functors(span_f.leg_left.underlying, w_fp.pr1)
    q = compose_functors(span_g.leg_right.underlying, w_fp.pr2)
    hom_ti = span_gf.hom_fc.transformation_index()
    hom_fi = span_gf.hom_fc.functor_index()
    comps = []
    for af, ag, w in w_fp.objects:
        total = _composite_transport(fd, gd, span_f, span_g, span_gf, af, ag, w)
        comps.append(hom_ti[(hom_fi[total.source], hom_fi[total.target],
                             total.components)])
    xi = NatTrans(compose_functors(span_gf.fp.left, p),
                  compose_functors(span_gf.fp.right, q), tuple(comps))
    med = mediate(span_gf.fp, p, q, xi)
    phi_fun = med.functor
    # tensors are preserved on the nose in the strict model
    napex = pairing.apex.base.num_objects
    for i in range(napex):
        for j in range(napex):
            if phi_fun.object_map[pairing.apex.tensor_obj(i, j)] != \
                    span_gf.apex.tensor_obj(phi_fun.object_map[i],
                                            phi_fun.object_map[j]):
                raise StructureError("comparison does not preserve tensors")
    ngf = span_gf.apex.base.num_objects
    mult = tuple(span_gf.apex.base.identity[span_gf.apex.tensor_obj(
        phi_fun.object_map[divmod(k, napex)[0]],
        phi_fun.object_map[divmod(k, napex)[1]])]
        for k in range(napex * napex))
    comparison = MonFunctor(pairing.apex, span_gf.apex, phi_fun, mult,
                            span_gf.apex.base.identity[span_gf.apex.unit])

    target = span_gf.apex.base
    image = set(phi_fun.object_map)
    missed = None
    for o in range(ngf):
        if not any(target.isos(o2, o) for o2 in image):
            missed = o
            break
    full = True
    faithful = True
    w_cat = pairing.apex.base
    for w0 in range(napex):
        for w1 in range(napex):
            hom_w = [k for k in range(w_cat.num_morphisms)
                     if w_cat.source[k] == w0 and w_cat.target[k] == w1]
            images = [phi_fun.morphism_map[k] for k in hom_w]
            if len(set(images)) != len(images):
                faithful = False
            hom_target = set(target.hom(phi_fun.object_map[w0],
                                        phi_fun.object_map[w1]))
            if set(images) != hom_target:
                full = False
    bij = len(image) == napex == ngf
    table_iso = bij and faithful and full and \
        len(set(phi_fun.morphism_map)) == w_cat.num_morphisms == target.num_morphisms
    return LaxatorResult(composite, span_f, span_g, span_gf, pairing,
                         comparison, missed is None, missed, full, faithful,
                         bij, table_iso)


# ---------------------------------------------------------------------------
# coherence of the comparisons
# ---------------------------------------------------------------------------

def _induced_pairing_map(source_sq: MonoidalSquare, target_sq: MonoidalSquare,
                         left_map: Functor | None,
                         right_map: Functor | None) -> Functor:
    """The functor between fiber products acting by the given maps on the two
    coordinates and leaving the comparison morphism untouched; the maps must
    commute with the relevant cospan legs on the nose."""
    src_fp, tgt_fp = source_sq.fp, target_sq.fp
    oi = tgt_fp.object_index()
    mi = tgt_fp.morphism_index()
    obj_map = []
    for x, y, w in src_fp.objects:
        nx = left_map.object_map[x] if left_map is not None else x
        ny = right_map.object_map[y] if right_map is not None else y
        key = (nx, ny, w)
        if key not in oi:
            raise StructureError("induced map left the fiber product")
        obj_map.append(oi[key])
    mor_map = []
    for k in range(src_fp.apex.num_morphisms):
        p, q = src_fp.morphisms[k]
        np = left_map.morphism_map[p] if left_map is not None else p
        nq = right_map.morphism_map[q] if right_map is not None else q
        key = (obj_map[src_fp.apex.source[k]], obj_map[src_fp.apex.target[k]],
               np, nq)
        if key not in mi:
            raise StructureError("induced map lost a fiber morphism")
        mor_map.append(mi[key])
    return Functor(src_fp.apex, tgt_fp.apex, tuple(obj_map), tuple(mor_map))


def _reassociate(t_right: MonoidalSquare, t_left: MonoidalSquare,
                 inner_right: MonoidalSquare,
                 inner_left: MonoidalSquare) -> Functor:
    """x ×_N (y ×_P z)  →  (x ×_N y) ×_P z on literal triples."""
    in_left_oi = inner_left.fp.object_index()
    in_left_mi = inner_left.fp.morphism_index()
    out_oi = t_left.fp.object_index()
    out_mi = t_left.fp.morphism_index()
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


@dataclass(frozen=True)
class LaxatorCoherenceResult:
    lax_fg: LaxatorResult
    lax_gh: LaxatorResult
    lax_gf_h: LaxatorResult
    lax_f_hg: LaxatorResult
    coherence_cell: MonNatTrans
    cell_is_identity: bool
    cell_report: Report


def laxator_coherence(fd: ModuleFunctorData, gd: ModuleFunctorData,
                      hd: ModuleFunctorData,
                      budget: Budget = DEFAULT_BUDGET) -> LaxatorCoherenceResult:
    """The 2-cell comparing the two ways of collapsing a composable triple,
    produced by the unique-2-cell machinery of the target fiber product."""
    lax_fg = laxator(fd, gd, budget)
    lax_gh = laxator(gd, hd, budget)
    lax_gf_h = laxator(lax_fg.composite, hd, budget)
    lax_f_hg = laxator(fd, lax_gh.composite, budget)
    if lax_gf_h.span_composite.apex != lax_f_hg.span_composite.apex:
        raise StructureError("the two triple composites have different spans")
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
    gamma1 = NatTrans(pr1u, pr1v, tuple(
        pr1u.target.identity[x] for x in pr1u.object_map))
    gamma2 = NatTrans(pr2u, pr2v, tuple(
        pr2u.target.identity[x] for x in pr2u.object_map))
    theta = mediate_2cell(span_hgf.fp, u, v, gamma1, gamma2)
    is_identity = u == v and theta == identity_nat_trans(u)

    rb = ReportBuilder("laxator_coherence")
    apex = span_hgf.apex.base
    for a in range(u.source.num_objects):
        if apex.inverse(theta.components[a]) is None:
            rb.add("coherence-cell-iso", (a,), "component is not invertible")
    # as a monoidal transformation between monoidal comparisons
    mult_u = tuple(apex.identity[span_hgf.apex.tensor_obj(
        u.object_map[divmod(k, u.source.num_objects)[0]],
        u.object_map[divmod(k, u.source.num_objects)[1]])]
        for k in range(u.source.num_objects ** 2))
    mon_u = MonFunctor(t_right.apex, span_hgf.apex, u, mult_u,
                       apex.identity[span_hgf.apex.unit])
    mon_v = MonFunctor(t_right.apex, span_hgf.apex, v, mult_u,
                       apex.identity[span_hgf.apex.unit])
    cell = MonNatTrans(mon_u, mon_v, theta)
    sub = check_mon_nattrans(cell)
    for viol in sub.violations:
        rb.add(viol.law, viol.witness, viol.detail)
    return LaxatorCoherenceResult(lax_fg, lax_gh, lax_gf_h, lax_f_hg,
                                  cell, is_identity, rb.report())


def quadruple_pasting_check(fd: ModuleFunctorData, gd: ModuleFunctorData,
                            hd: ModuleFunctorData, kd: ModuleFunctorData,
                            budget: Budget = DEFAULT_BUDGET) -> Report:
    """Collapse every composable chain of four span objects in the two extreme
    orders and compare the resulting objects of the total span, table-exactly."""
    rb = ReportBuilder("quadruple_pasting")
    span_f = build_span(fd, budget)
    span_g = build_span(gd, budget)
    span_h = build_span(hd, budget)
    span_k = build_span(kd, budget)
    gf = compose_module_functors(gd, fd)
    hg = compose_module_functors(hd, gd)
    kh = compose_module_functors(kd, hd)
    span_gf = build_span(gf, budget)
    span_hg = build_span(hg, budget)
    span_kh = build_span(kh, budget)
    hgf = compose_module_functors(hd, gf)
    khg = compose_module_functors(kd, hg)
    span_hgf = build_span(hgf, budget)
    span_khg = build_span(khg, budget)
    total = compose_module_functors(kd, hgf)
    span_total = build_span(total, budget)
    if span_total.apex != build_span(compose_module_functors(khg, fd),
                                     budget).apex:
        rb.add("composite-associativity", (), "the two total spans differ")
        return rb.report()

    def collapse(fa, ga, sf, sg, sgf, af, ag, w):
        total_nat = _composite_transport(fa, ga, sf, sg, sgf, af, ag, w)
        ti = sgf.hom_fc.transformation_index()
        fi = sgf.hom_fc.functor_index()
        xi_id = ti[(fi[total_nat.source], fi[total_nat.target],
                    total_nat.components)]
        key = (sf.fp.objects[af][0], sg.fp.objects[ag][1], xi_id)
        return sgf.fp.object_index()[key]

    endN = fd.cod.end.fc.as_category
    endP = gd.cod.end.fc.as_category
    endQ = hd.cod.end.fc.as_category

    checked = 0
    for af in range(len(span_f.fp.objects)):
        qf = span_f.fp.objects[af][1]
        for ag in range(len(span_g.fp.objects)):
            pg, qg = span_g.fp.objects[ag][0], span_g.fp.objects[ag][1]
            for w1 in endN.isos(qf, pg):
                for ah in range(len(span_h.fp.objects)):
                    ph, qh = span_h.fp.objects[ah][0], span_h.fp.objects[ah][1]
                    for w2 in endP.isos(qg, ph):
                        for ak in range(len(span_k.fp.objects)):
                            pk = span_k.fp.objects[ak][0]
                            for w3 in endQ.isos(qh, pk):
                                left = collapse(fd, gd, span_f, span_g,
                                                span_gf, af, ag, w1)
                                left = collapse(gf, hd, span_gf, span_h,
                                                span_hgf, left, ah, w2)
                                left = collapse(hgf, kd, span_hgf, span_k,
                                                span_total, left, ak, w3)
                                right = collapse(hd, kd, span_h, span_k,
                                                 span_kh, ah, ak, w3)
                                right = collapse(gd, kh, span_g, span_kh,
                                                 span_khg, ag, right, w2)
                                right = collapse(fd, khg, span_f, span_khg,
                                                 span_total, af, right, w1)
                                checked += 1
                                if left != right:
                                    rb.add("quadruple-pasting",
                                           (af, ag, ah, ak, w1, w2, w3),
                                           f"collapses {left} vs {right}")
                                    if rb.full:
                                        return rb.report()
    if checked == 0:
        rb.add("quadruple-pasting", (), "no composable chains at this size")
    return rb.report()


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationResult:
    report: Report
    bijective_on_objects: bool
    apex_objects: int
    end_objects: int


def normalization_check(md, budget: Budget = DEFAULT_BUDGET) -> NormalizationResult:
    """The span of the identity module functor retracts onto the endofunctor
    category through the diagonal; the diagonal must be a monoidal, fully
    faithful, essentially surjective functor with identity legs, and it is
    bijective on objects exactly when the endofunctor category has no
    non-identity isomorphisms."""
    rb = ReportBuilder("normalization")
    idf = identity_module_functor(md)
    cell = build_span(idf, budget)
    end = md.end
    apex = cell.apex.base
    oi = cell.fp.object_index()
    mi = cell.fp.morphism_index()
    hom_ti = cell.hom_fc.transformation_index()
    hom_fi = cell.hom_fc.functor_index()
    end_cat = end.fc.as_category
    obj_map = []
    for i, fun in enumerate(end.fc.functors):
        ident = identity_nat_trans(fun)
        xi = hom_ti[(hom_fi[fun], hom_fi[fun], ident.components)]
        obj_map.append(oi[(i, i, xi)])
    mor_map = []
    for k in range(end_cat.num_morphisms):
        key = (obj_map[end_cat.source[k]], obj_map[end_cat.target[k]], k, k)
        if key not in mi:
            rb.add("diagonal-morphism", (k,), "pair is not an apex morphism")
            return NormalizationResult(rb.report(), False, apex.num_objects,
                                       end_cat.num_objects)
        mor_map.append(mi[key])
    diag_fun = Functor(end_cat, apex, tuple(obj_map), tuple(mor_map))
    n = end_cat.num_objects
    mult = tuple(apex.identity[cell.apex.tensor_obj(
        obj_map[divmod(k, n)[0]], obj_map[divmod(k, n)[1]])]
        for k in range(n * n))
    diag = MonFunctor(end.monoidal, cell.apex, diag_fun, mult,
                      apex.identity[cell.apex.unit])
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
    # fully faithful
    for i in range(n):
        for j in range(n):
            mapped = [mor_map[k] for k in end_cat.hom(i, j)]
            if len(set(mapped)) != len(mapped):
                rb.add("diagonal-faithful", (i, j), "images collide")
            if set(mapped) != set(apex.hom(obj_map[i], obj_map[j])):
                rb.add("diagonal-full", (i, j), "hom-set is not covered")
    # essentially surjective
    image = set(obj_map)
    for o in range(apex.num_objects):
        if not any(apex.isos(d, o) for d in image):
            rb.add("diagonal-essentially-surjective", (o,),
                   "apex object misses the diagonal")
            break
    return NormalizationResult(rb.report(), apex.num_objects == n,
                               apex.num_objects, n)
