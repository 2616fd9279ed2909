"""Lax functoriality of the span construction.

Composing two module functors gives two spans of monoidal categories: the
fiber-product composite of the individual spans, and the span of the
composite functor.  The comparison from the former into the latter, and the
two collapses of a triple that a coherence cell compares, are lifted along
their outer legs from their object maps (fincat.lift_functor), as strict
mediators are, so no limits.mediate call is made.  In a strict iso-comma a
2-cell over identity whiskers is the identity (CWM §II.6), so the coherence
cell is built as one, with no limits.mediate_2cell call.  The comparison
need not be invertible, so its failure modes (essential surjectivity,
fullness, faithfulness) are measured and reported, never assumed.
Each module functor passes build_span's gate, so what the span theorem
implies is not re-checked (tests/oracles.py keeps those checks): the
comparison preserves tensors on the nose and pasting transports is
associative on the nose (interchange and strict pasting in Cat, CWM §II.5).
"""
from __future__ import annotations

from dataclasses import dataclass

from .fincat import (
    Budget,
    DEFAULT_BUDGET,
    Functor,
    MediationError,
    StructureError,
    compose_functors,
    lift_functor,
)
from .limits import FiberProductResult, fiber_product
from .monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    _first_nonassociative,
    compose_mon_functors,
    identity_mon_nattrans,
    strict_mon_functor,
    tabulate_monoidal,
    tensor_mor_over_product,
)
from .reporting import Report, ReportBuilder
from .spans import (
    ModuleFunctorData,
    SpanCell,
    _transport_id,
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
    oi = fp.object_index
    mi = fp.morphism_index
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

    eta_f_inv = zb.inverse(f.unit_iso)
    if eta_f_inv is None:
        raise StructureError("unit cell of the first leg is not invertible")
    unit_key = (xs.unit, ys.unit, zb.compose(g.unit_iso, eta_f_inv))
    if unit_key not in oi:
        raise StructureError("monoidal fiber unit is missing")
    obj = fp.objects
    coherence = {
        "associator": lambda i, j, k, s, t: lift(
            s, t, xs.alpha(obj[i][0], obj[j][0], obj[k][0]),
            ys.alpha(obj[i][1], obj[j][1], obj[k][1]), "associator pair"),
        "left_unitor": lambda i, s: lift(s, i, xs.unitor(obj[i][0], True),
                                         ys.unitor(obj[i][1], True), "left unitor pair"),
        "right_unitor": lambda i, s: lift(s, i, xs.unitor(obj[i][0], False),
                                          ys.unitor(obj[i][1], False), "right unitor pair")}
    args = (apex_cat, oi[unit_key], tensor_obj,
            tensor_mor_over_product(xs, ys, fp.morphisms, mi,
                                    "monoidal fiber tensor of morphisms left the apex"))
    # over strict feet every coherence pair is a pair of identities, and an
    # apex morphism over (id, id) from an object to itself is its identity
    # (the strict iso-comma, CWM §II.6); so an apex tensor associative and
    # unital on objects makes every component an identity, and only a
    # tensor that is not runs the callbacks, which raise at the first pair
    # that is no apex morphism or store what they find
    strict = xs.strict and ys.strict
    apex_ms = tabulate_monoidal(*args, **({} if strict else coherence), budget=budget)
    if strict and not _strict_on_objects(apex_ms.tensor_rows(), apex_ms.unit):
        apex_ms = tabulate_monoidal(*args, **coherence, budget=budget)
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


def _strict_on_objects(rows: list[tuple[int, ...]], unit: int) -> bool:
    """Whether the tensor with x⊗y at rows[x][y] is associative on objects,
    (i⊗j)⊗k = i⊗(j⊗k), and unital, I⊗i = i = i⊗I."""
    return _first_nonassociative(rows) is None and rows[unit] == tuple(range(len(rows))) \
        and all(row[unit] == i for i, row in enumerate(rows))


# ---------------------------------------------------------------------------
# the comparison into the span of a composite
# ---------------------------------------------------------------------------

def _composite_transport(fd: ModuleFunctorData, gd: ModuleFunctorData,
                         span_f: SpanCell, span_g: SpanCell, span_gf: SpanCell,
                         af: int, ag: int, w: int) -> int:
    """Slide the comparison w between the middle endofunctors into the pasted
    transport of the composite, t2_{f m} ∘ g(w_{f m}) ∘ g(t1_m), and return
    its id in the hom category of span_gf."""
    p0, _, x0 = span_f.fp.objects[af]
    _, r1, x1 = span_g.fp.objects[ag]
    t1 = span_f.hom_fc.transformations[x0].components
    t2 = span_g.hom_fc.transformations[x1].components
    w_at = fd.cod.end.fc.transformations[w].components
    cat, g_mor = gd.f.target, gd.f.morphism_map
    return _transport_id(span_gf.hom_fc, span_gf.fp.left.object_map[p0],
                         span_gf.fp.right.object_map[r1],
                         tuple(cat.comp[t2[fm]][cat.compose(g_mor[w_at[fm]], g_mor[t])]
                               for fm, t in zip(fd.f.object_map, t1)))


def _collapse(fd: ModuleFunctorData, gd: ModuleFunctorData,
              span_f: SpanCell, span_g: SpanCell, span_gf: SpanCell,
              af: int, ag: int, w: int) -> int:
    """The object (P, R, pasted transport) of span_gf that the pairing object
    (af, ag, w) collapses to; a pasting of isomorphisms is one, so it exists."""
    return span_gf.fp.object_index[(
        span_f.fp.objects[af][0], span_g.fp.objects[ag][1],
        _composite_transport(fd, gd, span_f, span_g, span_gf, af, ag, w))]


def _hom_profile(fun: Functor) -> tuple[list[tuple[tuple[int, int], bool, bool]],
                                       int | None]:
    """Where fun fails to be fully faithful or essentially surjective.

    For each pair (x, y) of source objects, ascending: whether two morphisms
    x -> y share an image, and whether the image set differs from
    hom(fun x, fun y).  Then the first target object isomorphic to no
    object in the image, or None."""
    src, tgt = fun.source, fun.target
    pairs = []
    for x in range(src.num_objects):
        for y in range(src.num_objects):
            images = [fun.morphism_map[k] for k in src.hom(x, y)]
            distinct = set(images)
            target_hom = set(tgt.hom(fun.object_map[x], fun.object_map[y]))
            pairs.append(((x, y), len(distinct) != len(images),
                          distinct != target_hom))
    image = set(fun.object_map)
    missed = next((o for o in range(tgt.num_objects)
                   if not any(tgt.isos(d, o) for d in image)), None)
    return pairs, missed


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
    composite = compose_module_functors(gd, fd)  # refuses a non-composable pair
    return _laxator(fd, gd, composite, build_span(fd, budget), build_span(gd, budget),
                    build_span(composite, budget), budget)


def _laxator(fd: ModuleFunctorData, gd: ModuleFunctorData,
             composite: ModuleFunctorData, span_f: SpanCell, span_g: SpanCell,
             span_gf: SpanCell, budget: Budget) -> LaxatorResult:
    """laxator on the spans of fd, gd and their composite, already built."""
    pairing = monoidal_fiber_product(span_f.leg_right, span_g.leg_left, budget)
    w_fp = pairing.fp
    p = compose_functors(span_f.leg_left.underlying, w_fp.pr1)
    q = compose_functors(span_g.leg_right.underlying, w_fp.pr2)
    phi_fun = lift_functor(
        w_fp.apex, span_gf.fp.apex, span_gf.fp.morphism_index,
        [_collapse(fd, gd, span_f, span_g, span_gf, af, ag, w)
         for af, ag, w in w_fp.objects],
        zip(p.morphism_map, q.morphism_map), "laxator comparison")
    # both tensors compose factor by factor and paste transports, so by
    # interchange in Cat (CWM §II.5) phi preserves them on the nose
    comparison = strict_mon_functor(pairing.apex, span_gf.apex, phi_fun)
    pairs, missed = _hom_profile(phi_fun)
    full = not any(uncovered for _, _, uncovered in pairs)
    faithful = not any(collide for _, collide, _ in pairs)
    target = span_gf.apex.base
    bij = len(set(phi_fun.object_map)) == pairing.apex.base.num_objects \
        == target.num_objects
    table_iso = bij and faithful and full and len(set(phi_fun.morphism_map)) \
        == pairing.apex.base.num_morphisms == target.num_morphisms
    return LaxatorResult(composite, span_f, span_g, span_gf, pairing,
                         comparison, missed is None, missed, full, faithful,
                         bij, table_iso)


# ---------------------------------------------------------------------------
# coherence of the comparisons
# ---------------------------------------------------------------------------

def _image(lax: LaxatorResult, key: tuple[int, int, int]) -> int:
    """The image of the pairing object key under lax's comparison; by
    construction of t_right each key laxator_coherence reads is one."""
    return lax.comparison.underlying.object_map[lax.pairing.fp.object_index[key]]


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
    """The 2-cell comparing the two ways of collapsing a composable triple.

    Both collapses u and v of A_f ×_N (A_g ×_P A_h) lie over its outer legs,
    so each is lifted along them.  The cell lies over identity whiskers: it
    exists iff u and v agree on objects, and is then the identity (CWM
    §II.6); otherwise MediationError names the first differing object."""
    # each span is built once: f, g, h, gf, hg and hgf (build_span is pure)
    lax_fg = laxator(fd, gd, budget)
    hg = compose_module_functors(hd, gd)  # refuses a non-composable pair
    span_h = build_span(hd, budget)
    lax_gh = _laxator(gd, hd, hg, lax_fg.span_right, span_h, build_span(hg, budget),
                      budget)
    # f, g and h passed the gate, and pasting whiskered transports is
    # associative on the nose (CWM §II.5): (hg)f = h(gf) serves both laxators
    hgf = compose_module_functors(hd, lax_fg.composite)
    span_hgf = build_span(hgf, budget)
    lax_gf_h = _laxator(lax_fg.composite, hd, hgf, lax_fg.span_composite, span_h,
                        span_hgf, budget)
    lax_f_hg = _laxator(fd, hg, hgf, lax_fg.span_left, lax_gh.span_composite,
                        span_hgf, budget)

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
    # over (id, id) the exchange square forces xi_u = xi_v, and the only apex
    # morphism there is the identity (CWM §II.6)
    differ = next((a for a, (x, y) in enumerate(zip(u_obj, v_obj)) if x != y), None)
    if differ is not None:
        raise MediationError("triple collapses differ on objects", (differ,))
    cell = identity_mon_nattrans(strict_mon_functor(t_right.apex, span_hgf.apex, u))
    return LaxatorCoherenceResult(lax_fg, lax_gh, lax_gf_h, lax_f_hg,
                                  cell, True, Report("laxator_coherence"))


def quadruple_pasting_check(fd: ModuleFunctorData, gd: ModuleFunctorData,
                            hd: ModuleFunctorData, kd: ModuleFunctorData,
                            budget: Budget = DEFAULT_BUDGET) -> Report:
    """Collapse every composable chain of four span objects in the two extreme
    orders and compare the resulting objects of the total span, table-exactly."""
    rb = ReportBuilder("quadruple_pasting")
    span_f, span_g, span_h, span_k = (build_span(d, budget) for d in (fd, gd, hd, kd))
    gf, hg, kh = (compose_module_functors(b, a)
                  for a, b in ((fd, gd), (gd, hd), (hd, kd)))
    span_gf, span_kh = build_span(gf, budget), build_span(kh, budget)
    hgf, khg = compose_module_functors(hd, gf), compose_module_functors(kd, hg)
    span_hgf, span_khg = build_span(hgf, budget), build_span(khg, budget)
    # the four passed the gate, and pasting whiskered transports is
    # associative on the nose (CWM §II.5): k(hgf) = (khg)f is the one total
    total = compose_module_functors(kd, hgf)
    span_total = build_span(total, budget)

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
                                left = _collapse(fd, gd, span_f, span_g,
                                                span_gf, af, ag, w1)
                                left = _collapse(gf, hd, span_gf, span_h,
                                                span_hgf, left, ah, w2)
                                left = _collapse(hgf, kd, span_hgf, span_k,
                                                span_total, left, ak, w3)
                                right = _collapse(hd, kd, span_h, span_k,
                                                 span_kh, ah, ak, w3)
                                right = _collapse(gd, kh, span_g, span_kh,
                                                 span_khg, ag, right, w2)
                                right = _collapse(fd, khg, span_f, span_khg,
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
    category through the diagonal; the diagonal must be a fully faithful,
    essentially surjective functor (its legs are identities by
    construction), and it is bijective on objects exactly when the
    endofunctor category has no non-identity isomorphisms.  It is strict
    monoidal by theorem, so it is not checked: identity transports paste to
    identity transports (whiskering and interchange, CWM §II.5), and the
    apex tensors factor by factor."""
    rb = ReportBuilder("normalization")
    idf = identity_module_functor(md)
    cell = build_span(idf, budget)
    end = md.end
    apex = cell.apex.base
    oi = cell.fp.object_index
    end_cat = end.fc.as_category
    # over one carrier Fun(M, M) is End(M), and f_* is the identity on ids
    obj_map = [oi[(i, i, end_cat.identity[i])] for i in range(end_cat.num_objects)]
    try:
        diag_fun = lift_functor(end_cat, apex, cell.fp.morphism_index, obj_map,
                                ((k, k) for k in range(end_cat.num_morphisms)),
                                "diagonal")
    except MediationError as exc:
        rb.add("diagonal-morphism", exc.witness, "pair is not an apex morphism")
        return NormalizationResult(rb.report(), False, apex.num_objects,
                                   end_cat.num_objects)
    n = end_cat.num_objects
    # lifted along (k, k), the diagonal composes with both legs to the identity
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
