"""Central module structures over braided and symmetric bases.

A central module over a braided category is a monoidal category receiving a
braided functor from the base into its center; over a symmetric base, a
braided category receiving a braided functor into its transparent
subcategory.  Candidate functors and transformations between such modules
are verified by building the induced functor into the matching fiber product
of centers and checking it is braided, exactly and exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass

from .centers import (
    CenterCategory,
    HptSetup,
    braided_centralizer,
    check_hpt_conditions,
    drinfeld_center,
    monoidal_centralizer,
    mueger_center,
)
from .fincat import (
    Budget,
    DEFAULT_BUDGET,
    FinCategory,
    Functor,
    StructureError,
    category_over_product,
)
from .laxators import MonoidalSquare, monoidal_fiber_product
from .monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    check_braided_functor,
    check_braiding,
    check_mon_functor,
    is_symmetric,
)
from .reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder


# ---------------------------------------------------------------------------
# module data over a braided base (centers of the first kind)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralModule:
    base: Braiding
    carrier: MonoidalStructure
    center: CenterCategory
    action: MonFunctor


def central_module(base: Braiding, carrier: MonoidalStructure,
                   action: MonFunctor,
                   budget: Budget = DEFAULT_BUDGET) -> CentralModule:
    """Validate and wrap a braided action of the base into the center."""
    center = drinfeld_center(carrier, budget)
    if action.source != base.on or action.target != center.monoidal:
        raise StructureError("action does not run from the base into the center")
    bad = check_braided_functor(action, base, center.braiding)
    if not bad.ok:
        raise StructureError("action is not a braided functor: "
                             + bad.violations[0].render())
    return CentralModule(base, carrier, center, action)


def _push_center(g: MonFunctor, center_src: CenterCategory,
                 z1g: CenterCategory) -> MonFunctor:
    """Apply g to half-braidings: (m, b) ↦ (g m, conjugated components)."""
    ms = g.target
    base = ms.base
    oi = z1g.object_index()
    mi = z1g.morphism_index()
    obj_map = []
    for o in center_src.objects_data:
        comps = []
        for y in range(g.source.base.num_objects):
            comps.append(base.compose_path(
                g.gamma_inv(y, o.carrier),
                g.on_mor(o.components[y]),
                g.gamma(o.carrier, y)))
        key = (g.on_obj(o.carrier), tuple(comps))
        if key not in oi:
            raise StructureError(
                "image of a half-braiding is not in the centralizer")
        obj_map.append(oi[key])
    src_cat = center_src.as_category
    mor_map = []
    for k in range(src_cat.num_morphisms):
        key = (obj_map[src_cat.source[k]], obj_map[src_cat.target[k]],
               g.on_mor(center_src.forgetful.morphism_map[k]))
        if key not in mi:
            raise StructureError("image morphism left the centralizer")
        mor_map.append(mi[key])
    n = src_cat.num_objects
    src_mon = center_src.monoidal
    mult = []
    for x in range(n):
        for y in range(n):
            key = (z1g.monoidal.tensor_obj(obj_map[x], obj_map[y]),
                   obj_map[src_mon.tensor_obj(x, y)],
                   g.gamma(center_src.objects_data[x].carrier,
                           center_src.objects_data[y].carrier))
            if key not in mi:
                raise StructureError("multiplicativity cell left the centralizer")
            mult.append(mi[key])
    unit_key = (z1g.monoidal.unit, obj_map[src_mon.unit], g.unit_iso)
    if unit_key not in mi:
        raise StructureError("unit cell left the centralizer")
    return MonFunctor(src_mon, z1g.monoidal,
                      Functor(src_cat, z1g.as_category, tuple(obj_map),
                              tuple(mor_map)),
                      tuple(mult), mi[unit_key])


def _pull_center(g: MonFunctor, center_tgt: CenterCategory,
                 z1g: CenterCategory) -> MonFunctor:
    """Restrict half-braidings to the image: (n, b) ↦ (n, b at g(-))."""
    oi = z1g.object_index()
    mi = z1g.morphism_index()
    obj_map = []
    for o in center_tgt.objects_data:
        comps = tuple(o.components[g.on_obj(y)]
                      for y in range(g.source.base.num_objects))
        key = (o.carrier, comps)
        if key not in oi:
            raise StructureError(
                "restricted half-braiding is not in the centralizer")
        obj_map.append(oi[key])
    tgt_cat = center_tgt.as_category
    mor_map = []
    for k in range(tgt_cat.num_morphisms):
        key = (obj_map[tgt_cat.source[k]], obj_map[tgt_cat.target[k]],
               center_tgt.forgetful.morphism_map[k])
        if key not in mi:
            raise StructureError("restricted morphism left the centralizer")
        mor_map.append(mi[key])
    n = tgt_cat.num_objects
    tgt_mon = center_tgt.monoidal
    base = g.target.base
    mult = []
    for x in range(n):
        for y in range(n):
            carrier = g.target.tensor_obj(center_tgt.objects_data[x].carrier,
                                          center_tgt.objects_data[y].carrier)
            key = (z1g.monoidal.tensor_obj(obj_map[x], obj_map[y]),
                   obj_map[tgt_mon.tensor_obj(x, y)],
                   base.identity[carrier])
            if key not in mi:
                raise StructureError("multiplicativity cell left the centralizer")
            mult.append(mi[key])
    unit_key = (z1g.monoidal.unit, obj_map[tgt_mon.unit],
                base.identity[g.target.unit])
    if unit_key not in mi:
        raise StructureError("unit cell left the centralizer")
    return MonFunctor(tgt_mon, z1g.monoidal,
                      Functor(tgt_cat, z1g.as_category, tuple(obj_map),
                              tuple(mor_map)),
                      tuple(mult), mi[unit_key])


@dataclass(frozen=True)
class CentralFunctorSetup:
    """A candidate (g, psi_g) between central modules, optionally with a
    second candidate (h, psi_h) and a monoidal transformation phi: g -> h."""

    left: CentralModule
    right: CentralModule
    g: MonFunctor
    psi_g: tuple[int, ...]
    h: MonFunctor | None = None
    psi_h: tuple[int, ...] | None = None
    phi: MonNatTrans | None = None


@dataclass(frozen=True)
class PhiFiberResult:
    """The quadruple category refining two comparisons along a transformation."""

    as_category: FinCategory
    objects: tuple[tuple[int, int, int, int], ...]
    braiding: Braiding | None
    induced: MonFunctor | None


@dataclass(frozen=True)
class CentralCheckResult:
    report: Report
    fiber: MonoidalSquare | None
    induced: MonFunctor | None
    phi_fiber: PhiFiberResult | None = None
    common_carriers: tuple[int, ...] | None = None
    phi_matches_common: bool | None = None


def _induced_into_fiber(rb: ReportBuilder, base_struct: MonoidalStructure,
                        left: CentralModule, right: CentralModule,
                        fiber: MonoidalSquare, psi_ids: tuple[int, ...],
                        ) -> MonFunctor | None:
    """x ↦ (F_left(x), F_right(x), psi_x) with all cells forced as pairs."""
    oi = fiber.fp.object_index()
    mi = fiber.fp.morphism_index()
    acting = base_struct.base
    obj_map = []
    for x in range(acting.num_objects):
        key = (left.action.on_obj(x), right.action.on_obj(x), psi_ids[x])
        if key not in oi:
            rb.add("induced-object", (x,),
                   "comparison is not a fiber object at the witness")
            return None
        obj_map.append(oi[key])
    mor_map = []
    for u in range(acting.num_morphisms):
        key = (obj_map[acting.source[u]], obj_map[acting.target[u]],
               left.action.on_mor(u), right.action.on_mor(u))
        if key not in mi:
            rb.add("induced-morphism", (u,), "pair is not a fiber morphism")
            return None
        mor_map.append(mi[key])
    n = acting.num_objects
    mult = []
    for x in range(n):
        for y in range(n):
            key = (fiber.apex.tensor_obj(obj_map[x], obj_map[y]),
                   obj_map[base_struct.tensor_obj(x, y)],
                   left.action.gamma(x, y), right.action.gamma(x, y))
            if key not in mi:
                rb.add("induced-mult", (x, y), "pair cell is not a fiber morphism")
                return None
            mult.append(mi[key])
    unit_key = (fiber.apex.unit, obj_map[base_struct.unit],
                left.action.unit_iso, right.action.unit_iso)
    if unit_key not in mi:
        rb.add("induced-unit", (), "unit pair is not a fiber morphism")
        return None
    return MonFunctor(base_struct, fiber.apex,
                      Functor(acting, fiber.apex.base, tuple(obj_map),
                              tuple(mor_map)),
                      tuple(mult), mi[unit_key])


def central_monoidal_check(setup: CentralFunctorSetup,
                           budget: Budget = DEFAULT_BUDGET,
                           cap: int = DEFAULT_VIOLATION_CAP) -> CentralCheckResult:
    rb = ReportBuilder("central_module_check", cap)
    left, right = setup.left, setup.right
    if left.base != right.base:
        raise StructureError("central modules live over different bases")
    if setup.g.source != left.carrier or setup.g.target != right.carrier:
        raise StructureError("candidate functor does not match the carriers")
    base_cat = right.carrier.base
    z1g = monoidal_centralizer(setup.g, budget)
    g_push = _push_center(setup.g, left.center, z1g)
    g_pull = _pull_center(setup.g, right.center, z1g)
    for name, mf in (("push", g_push), ("pull", g_pull)):
        sub = check_mon_functor(mf)
        for v in sub.violations:
            rb.add(f"{name}-{v.law}", v.witness, v.detail)
    fiber = monoidal_fiber_product(g_push, g_pull, budget,
                                   braidings=(left.center.braiding,
                                              right.center.braiding))
    sub = check_braiding(fiber.braiding)
    for v in sub.violations:
        rb.add("fiber-braiding-" + v.law, v.witness, v.detail)

    acting = left.base.on.base
    if len(setup.psi_g) != acting.num_objects:
        raise StructureError("one comparison per base object is required")
    psi_ids = []
    complete = True
    for x in range(acting.num_objects):
        m_half = left.center.objects_data[left.action.on_obj(x)]
        n_half = right.center.objects_data[right.action.on_obj(x)]
        hpt = check_hpt_conditions(HptSetup(
            setup.g, m_half, n_half, setup.psi_g[x],
            setup.h, None if setup.psi_h is None else setup.psi_h[x],
            setup.phi))
        for v in hpt.violations:
            rb.add("compatibility-" + v.law, (x,) + v.witness, v.detail)
        key = (g_push.on_obj(left.action.on_obj(x)),
               g_pull.on_obj(right.action.on_obj(x)),
               setup.psi_g[x])
        mi = z1g.morphism_index()
        if key not in mi:
            complete = False
            continue
        psi_ids.append(mi[key])
    induced = None
    if complete:
        induced = _induced_into_fiber(rb, left.base.on, left, right, fiber,
                                      tuple(psi_ids))
    if induced is not None:
        sub = check_mon_functor(induced)
        for v in sub.violations:
            rb.add("induced-" + v.law, v.witness, v.detail)
        sub = check_braided_functor(induced, left.base, fiber.braiding)
        for v in sub.violations:
            rb.add("induced-braided-" + v.law, v.witness, v.detail)

    phi_fiber = None
    if setup.phi is not None:
        if setup.h is None or setup.psi_h is None:
            raise StructureError("phi given without the second candidate")
        phi_fiber = _phi_quadruples_z1(rb, setup, budget)
    return CentralCheckResult(rb.report(), fiber, induced, phi_fiber)


def _phi_quadruples_z1(rb: ReportBuilder, setup: CentralFunctorSetup,
                       budget: Budget) -> PhiFiberResult:
    """Quadruples of half-braidings with comparisons for both candidates,
    coupled by the transformation."""
    left, right = setup.left, setup.right
    g, h, phi = setup.g, setup.h, setup.phi
    base = right.carrier.base
    objects: list[tuple[int, int, int, int]] = []
    for i, m_half in enumerate(left.center.objects_data):
        for j, n_half in enumerate(right.center.objects_data):
            for xi_g in base.isos(g.on_obj(m_half.carrier), n_half.carrier):
                for xi_h in base.isos(h.on_obj(m_half.carrier), n_half.carrier):
                    cond = check_hpt_conditions(HptSetup(
                        g, m_half, n_half, xi_g, h, xi_h, phi))
                    if cond.ok:
                        objects.append((i, j, xi_g, xi_h))
    cat, _, mor_index = _phi_quadruple_category(setup, base, objects, budget,
                                                "phi quadruple category")
    acting = left.base.on.base
    obj_index = {o: i for i, o in enumerate(objects)}
    assignment: list[int] | None = []
    for x in range(acting.num_objects):
        key = (left.action.on_obj(x), right.action.on_obj(x),
               setup.psi_g[x], setup.psi_h[x])
        if key not in obj_index:
            rb.add("phi-induced-object", (x,),
                   "comparisons do not satisfy the quadruple conditions")
            assignment = None
            break
        assignment.append(obj_index[key])
    if assignment is not None:
        for u in range(acting.num_morphisms):
            key = (assignment[acting.source[u]], assignment[acting.target[u]],
                   left.action.on_mor(u), right.action.on_mor(u))
            if key not in mor_index:
                rb.add("phi-induced-morphism", (u,),
                       "pair is not a quadruple morphism")
                break
    _phi_braiding_scan(rb, setup, right.carrier, objects, obj_index, mor_index)
    return PhiFiberResult(cat, tuple(objects), None, None)


def _phi_quadruple_category(setup, base: FinCategory, objects, budget: Budget,
                            what: str):
    """The category of quadruples (i, j, xi_g, xi_h) over the product of the
    two centers: a pair of center morphisms is a morphism when both
    comparison squares commute."""
    left, right, g, h = setup.left, setup.right, setup.g, setup.h
    left_forget = left.center.forgetful.morphism_map
    right_forget = right.center.forgetful.morphism_map

    def admits(s: int, t: int, arrow: tuple[int, int]) -> bool:
        _, _, xg0, xh0 = objects[s]
        _, _, xg1, xh1 = objects[t]
        fp, fq = left_forget[arrow[0]], right_forget[arrow[1]]
        return (base.comp[fq][xg0] == base.comp[xg1][g.on_mor(fp)] != -1
                and base.comp[fq][xh0] == base.comp[xh1][h.on_mor(fp)] != -1)

    return category_over_product(
        (left.center.as_category, right.center.as_category),
        [o[:2] for o in objects], admits, budget, what)


def _phi_braiding_scan(rb: ReportBuilder, setup, carrier: MonoidalStructure,
                       objects, obj_index, mor_index) -> None:
    """The componentwise braiding on quadruples: each pair of center braiding
    components must be a quadruple morphism between the two tensorings."""
    left_center, right_center = setup.left.center, setup.right.center
    left_tensor = left_center.monoidal.tensor_obj
    right_tensor = right_center.monoidal.tensor_obj
    base = carrier.base

    def paste(fun: MonFunctor, i0: int, i1: int, x0: int, x1: int) -> int:
        return base.compose_path(
            carrier.tensor_mor(x0, x1),
            fun.gamma_inv(left_center.objects_data[i0].carrier,
                          left_center.objects_data[i1].carrier))

    g, h = setup.g, setup.h
    for a0, (i0, j0, xg0, xh0) in enumerate(objects):
        for a1, (i1, j1, xg1, xh1) in enumerate(objects):
            src = (left_tensor(i0, i1), right_tensor(j0, j1),
                   paste(g, i0, i1, xg0, xg1), paste(h, i0, i1, xh0, xh1))
            tgt = (left_tensor(i1, i0), right_tensor(j1, j0),
                   paste(g, i1, i0, xg1, xg0), paste(h, i1, i0, xh1, xh0))
            if src not in obj_index or tgt not in obj_index:
                rb.add("phi-tensor", (a0, a1),
                       "tensored quadruple left the category")
                return
            key = (obj_index[src], obj_index[tgt],
                   left_center.braiding.at(i0, i1),
                   right_center.braiding.at(j0, j1))
            if key not in mor_index:
                rb.add("phi-braiding", (a0, a1),
                       "braiding pair is not a quadruple morphism")
                if rb.full:
                    return


# ---------------------------------------------------------------------------
# module data over a symmetric base (transparent centers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralBraidedModule:
    base: Braiding
    carrier: Braiding
    center: CenterCategory
    action: MonFunctor


def central_braided_module(base: Braiding, carrier: Braiding,
                           action: MonFunctor) -> CentralBraidedModule:
    if not is_symmetric(base):
        raise StructureError("the acting base must be symmetric")
    center = mueger_center(carrier)
    if action.source != base.on or action.target != center.monoidal:
        raise StructureError("action does not run from the base into the "
                             "transparent subcategory")
    bad = check_braided_functor(action, base, center.braiding)
    if not bad.ok:
        raise StructureError("action is not a braided functor: "
                             + bad.violations[0].render())
    return CentralBraidedModule(base, carrier, center, action)


@dataclass(frozen=True)
class CentralBraidedSetup:
    left: CentralBraidedModule
    right: CentralBraidedModule
    g: MonFunctor
    psi_g: tuple[int, ...]
    h: MonFunctor | None = None
    psi_h: tuple[int, ...] | None = None
    phi: MonNatTrans | None = None


def _subcat_functor(g: MonFunctor, src_center: CenterCategory,
                    z2g: CenterCategory, apply_g: bool) -> MonFunctor:
    """mueger -> braided centralizer, either applying g or including."""
    carriers = {o.carrier: i for i, o in enumerate(z2g.objects_data)}
    mor_index = z2g.morphism_index()
    src_cat = src_center.as_category
    obj_map = []
    for o in src_center.objects_data:
        carrier = g.on_obj(o.carrier) if apply_g else o.carrier
        if carrier not in carriers:
            raise StructureError(
                f"object {o.carrier} does not land in the centralizer")
        obj_map.append(carriers[carrier])
    mor_map = []
    for k in range(src_cat.num_morphisms):
        underlying = src_center.forgetful.morphism_map[k]
        img = g.on_mor(underlying) if apply_g else underlying
        key = (obj_map[src_cat.source[k]], obj_map[src_cat.target[k]], img)
        if key not in mor_index:
            raise StructureError("morphism left the centralizer")
        mor_map.append(mor_index[key])
    n = src_cat.num_objects
    src_mon = src_center.monoidal
    base = g.target.base
    mult = []
    for x in range(n):
        for y in range(n):
            cx = src_center.objects_data[x].carrier
            cy = src_center.objects_data[y].carrier
            if apply_g:
                cell = g.gamma(cx, cy)
            else:
                cell = base.identity[g.target.tensor_obj(cx, cy)]
            key = (z2g.monoidal.tensor_obj(obj_map[x], obj_map[y]),
                   obj_map[src_mon.tensor_obj(x, y)], cell)
            if key not in mor_index:
                raise StructureError("multiplicativity cell left the centralizer")
            mult.append(mor_index[key])
    unit_cell = g.unit_iso if apply_g else base.identity[g.target.unit]
    unit_key = (z2g.monoidal.unit, obj_map[src_mon.unit], unit_cell)
    if unit_key not in mor_index:
        raise StructureError("unit cell left the centralizer")
    return MonFunctor(src_mon, z2g.monoidal,
                      Functor(src_cat, z2g.as_category, tuple(obj_map),
                              tuple(mor_map)),
                      tuple(mult), mor_index[unit_key])


def central_braided_check(setup: CentralBraidedSetup,
                          budget: Budget = DEFAULT_BUDGET,
                          cap: int = DEFAULT_VIOLATION_CAP) -> CentralCheckResult:
    rb = ReportBuilder("central_braided_check", cap)
    left, right = setup.left, setup.right
    if left.base != right.base:
        raise StructureError("central modules live over different bases")
    sub = check_braided_functor(setup.g, left.carrier, right.carrier)
    for v in sub.violations:
        rb.add("candidate-" + v.law, v.witness, v.detail)
    z2g = braided_centralizer(setup.g, left.carrier, right.carrier)
    g_push = _subcat_functor(setup.g, left.center, z2g, apply_g=True)
    g_pull = _subcat_functor(setup.g, right.center, z2g, apply_g=False)
    fiber = monoidal_fiber_product(g_push, g_pull, budget,
                                   braidings=(left.center.braiding,
                                              right.center.braiding))
    sub = check_braiding(fiber.braiding)
    for v in sub.violations:
        rb.add("fiber-braiding-" + v.law, v.witness, v.detail)
    if not is_symmetric(fiber.braiding):
        rb.add("fiber-symmetry", (), "the fiber product is not symmetric")

    acting = left.base.on.base
    mi = z2g.morphism_index()
    psi_ids = []
    complete = True
    for x in range(acting.num_objects):
        key = (g_push.on_obj(left.action.on_obj(x)),
               g_pull.on_obj(right.action.on_obj(x)),
               setup.psi_g[x])
        if key not in mi:
            rb.add("comparison", (x,),
                   "psi component is not a centralizer morphism")
            complete = False
            continue
        psi_ids.append(mi[key])
    induced = None
    if complete:
        induced = _induced_into_fiber(
            rb, left.base.on,
            CentralModule(left.base, left.carrier.on, left.center, left.action),
            CentralModule(right.base, right.carrier.on, right.center,
                          right.action),
            fiber, tuple(psi_ids))
    if induced is not None:
        sub = check_mon_functor(induced)
        for v in sub.violations:
            rb.add("induced-" + v.law, v.witness, v.detail)
        sub = check_braided_functor(induced, left.base, fiber.braiding)
        for v in sub.violations:
            rb.add("induced-braided-" + v.law, v.witness, v.detail)

    phi_fiber = None
    common = None
    matches = None
    if setup.phi is not None:
        if setup.h is None or setup.psi_h is None:
            raise StructureError("phi given without the second candidate")
        sub = check_braided_functor(setup.h, left.carrier, right.carrier)
        for v in sub.violations:
            rb.add("candidate-h-" + v.law, v.witness, v.detail)
        z2h = braided_centralizer(setup.h, left.carrier, right.carrier)
        common = tuple(sorted({o.carrier for o in z2g.objects_data}
                              & {o.carrier for o in z2h.objects_data}))
        phi_fiber = _phi_quadruples_z2(rb, setup, budget)
        reached = {right.center.objects_data[j].carrier
                   for _, j, _, _ in phi_fiber.objects}
        base = right.carrier.on.base
        closure = {c for c in range(base.num_objects)
                   if any(base.isos(r, c) for r in reached)}
        matches = closure == set(common)
    return CentralCheckResult(rb.report(), fiber, induced, phi_fiber,
                              common, matches)


def _phi_quadruples_z2(rb: ReportBuilder, setup: CentralBraidedSetup,
                       budget: Budget) -> PhiFiberResult:
    """Transparent quadruples (x, y, xi_g, xi_h) with xi_h ∘ phi_x = xi_g."""
    left, right = setup.left, setup.right
    g, h, phi = setup.g, setup.h, setup.phi
    base = right.carrier.on.base
    objects = []
    for i, xo in enumerate(left.center.objects_data):
        phi_x = phi.underlying.components[xo.carrier]
        for j, yo in enumerate(right.center.objects_data):
            for xi_g in base.isos(g.on_obj(xo.carrier), yo.carrier):
                for xi_h in base.isos(h.on_obj(xo.carrier), yo.carrier):
                    if base.comp[xi_h][phi_x] == xi_g:
                        objects.append((i, j, xi_g, xi_h))
    cat, _, mor_index = _phi_quadruple_category(setup, base, objects, budget,
                                                "transparent quadruple category")
    # the induced quadruple assignment must exist when psi_h is coupled to
    # psi_g through phi; record a violation otherwise
    acting = left.base.on.base
    obj_index = {o: i for i, o in enumerate(objects)}
    for x in range(acting.num_objects):
        key = (left.action.on_obj(x), right.action.on_obj(x),
               setup.psi_g[x], setup.psi_h[x])
        if key not in obj_index:
            rb.add("phi-induced-object", (x,),
                   "comparisons do not satisfy the transparent quadruple conditions")
            break
    _phi_braiding_scan(rb, setup, right.carrier.on, objects, obj_index, mor_index)
    return PhiFiberResult(cat, tuple(objects), None, None)


def central_module_check(setup, budget: Budget = DEFAULT_BUDGET,
                         cap: int = DEFAULT_VIOLATION_CAP) -> CentralCheckResult:
    """Dispatch on the flavor of the setup."""
    if isinstance(setup, CentralFunctorSetup):
        return central_monoidal_check(setup, budget, cap)
    if isinstance(setup, CentralBraidedSetup):
        return central_braided_check(setup, budget, cap)
    raise StructureError(f"unknown central setup {type(setup).__name__}")
