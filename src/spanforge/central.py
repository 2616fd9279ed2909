"""Central module structures: the paper's MCat and BrCat cases.

"In these cases, module objects correspond to central module monoidal
categories over a braided monoidal category and central braided monoidal
categories over a symmetric monoidal category, respectively."

Both are one notion, a CentralModule: a braided functor from the base into
a center of the carrier, and the carrier's type picks the center.  A
MonoidalStructure acts through its Drinfeld center Z₁ over a braided base
(Etingof-Gelaki-Nikshych-Ostrik, Tensor Categories, 2015); a Braiding acts
through its Müger center Z₂, the transparent subcategory, over a symmetric
base (Müger, Proc. LMS 2003).  Candidate functors and transformations
between such modules are verified by building the induced functor into the
matching fiber product of centers and checking it is braided, exactly and
exhaustively.  The two checks stay separate: they are different
mathematics.
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
    MediationError,
    StructureError,
    category_over_product,
    compose_functors,
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
    lift_mon_functor,
    strict_mon_functor,
)
from .reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder


# ---------------------------------------------------------------------------
# module data: one type for both kinds of center
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralModule:
    """A braided action of the base into the Drinfeld center of a
    MonoidalStructure carrier, or into the Müger center of a Braiding
    carrier over a symmetric base."""

    base: Braiding
    carrier: MonoidalStructure | Braiding
    center: CenterCategory
    action: MonFunctor


def _require_action(base: Braiding, center: CenterCategory, action: MonFunctor,
                    subject: str = "action") -> None:
    if action.source != base.on or action.target != center.monoidal:
        raise StructureError(f"{subject} does not run from the base into the center")


def _central_module(base: Braiding, carrier: MonoidalStructure | Braiding,
                    action: MonFunctor, budget: Budget,
                    subject: str = "action") -> tuple[CentralModule, Report]:
    """The module on the center the carrier's type picks, with the report
    of check_braided_functor on its action; wrong ends raise."""
    if isinstance(carrier, Braiding):
        if not is_symmetric(base):
            raise StructureError("the acting base must be symmetric")
        center = mueger_center(carrier)
    elif isinstance(carrier, MonoidalStructure):
        center = drinfeld_center(carrier, budget)
    else:
        raise StructureError("the carrier must be a MonoidalStructure or a Braiding")
    _require_action(base, center, action, subject)
    return (CentralModule(base, carrier, center, action),
            check_braided_functor(action, base, center.braiding))


def central_module(base: Braiding, carrier: MonoidalStructure | Braiding,
                   action: MonFunctor,
                   budget: Budget = DEFAULT_BUDGET) -> CentralModule:
    """Validate and wrap a braided action of the base into the carrier's
    center: Z₁ of a MonoidalStructure, or Z₂ of a Braiding, whose base must
    then be symmetric."""
    module, bad = _central_module(base, carrier, action, budget)
    if not bad.ok:
        raise StructureError("action is not a braided functor: "
                             + bad.violations[0].render())
    return module


def _forgetful_then(g: MonFunctor, center: CenterCategory) -> MonFunctor:
    """g after the forgetful functor of center, with g's own cells at the
    carriers.  The forgetful functor is strict, so no cell of it is pasted
    in; compose_mon_functors would paste g of its identity cells, which
    differs when g does not preserve identities."""
    carriers = center.forgetful.object_map
    return MonFunctor(center.monoidal, g.target,
                      compose_functors(g.underlying, center.forgetful),
                      tuple(g.gamma(cx, cy) for cx in carriers for cy in carriers),
                      g.unit_iso)


def _push_center(g: MonFunctor, center_src: CenterCategory,
                 z1g: CenterCategory) -> MonFunctor:
    """Apply g to half-braidings: (m, b) ↦ (g m, conjugated components)."""
    base = g.target.base
    oi = z1g.object_index
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
    return lift_mon_functor(center_src.monoidal, z1g.monoidal, z1g.morphism_index,
                            obj_map, (_forgetful_then(g, center_src),),
                            "push into the centralizer")


def _pull_center(g: MonFunctor, center_tgt: CenterCategory,
                 z1g: CenterCategory) -> MonFunctor:
    """Restrict half-braidings to the image: (n, b) ↦ (n, b at g(-))."""
    oi = z1g.object_index
    obj_map = []
    for o in center_tgt.objects_data:
        comps = tuple(o.components[g.on_obj(y)]
                      for y in range(g.source.base.num_objects))
        key = (o.carrier, comps)
        if key not in oi:
            raise StructureError(
                "restricted half-braiding is not in the centralizer")
        obj_map.append(oi[key])
    forget = strict_mon_functor(center_tgt.monoidal, g.target, center_tgt.forgetful)
    return lift_mon_functor(center_tgt.monoidal, z1g.monoidal, z1g.morphism_index,
                            obj_map, (forget,), "pull into the centralizer")


@dataclass(frozen=True)
class CentralFunctorSetup:
    """A candidate (g, psi_g) between central modules of one kind,
    optionally with a second candidate (h, psi_h) and a monoidal
    transformation phi: g -> h."""

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


@dataclass(frozen=True)
class CentralCheckResult:
    report: Report
    fiber: MonoidalSquare | None
    induced: MonFunctor | None
    phi_fiber: PhiFiberResult | None = None
    common_carriers: tuple[int, ...] | None = None
    phi_matches_common: bool | None = None


def _check_shape(setup: CentralFunctorSetup, braided: bool) -> None:
    """What both checks read before building anything: one base, symmetric
    when the carriers are braided; actions from it into the modules'
    centers; candidates between the carriers; one comparison per base
    object; and with phi the second candidate, with one phi component per
    object of the candidates' source."""
    left, right = setup.left, setup.right
    if left.base != right.base:
        raise StructureError("central modules live over different bases")
    if braided and not is_symmetric(left.base):
        raise StructureError("the acting base must be symmetric")
    for m in (left, right):
        _require_action(m.base, m.center, m.action)
    ends = tuple(m.carrier.on if braided else m.carrier for m in (left, right))
    for cand in (setup.g, setup.h):
        if cand is not None and (cand.source, cand.target) != ends:
            raise StructureError("candidate functor does not match the carriers")
    acting = left.base.on.base.num_objects
    if len(setup.psi_g) != acting or (
            setup.psi_h is not None and len(setup.psi_h) != acting):
        raise StructureError("one comparison per base object is required")
    if setup.phi is not None:
        if setup.h is None or setup.psi_h is None:
            raise StructureError("phi given without the second candidate")
        if len(setup.phi.underlying.components) != setup.g.source.base.num_objects:
            raise StructureError(
                "phi needs one component per object of the candidates' source")


# law and detail by the witness of lift_mon_functor's MediationError
_INDUCED_MISSES = {1: ("induced-morphism", "pair is not a fiber morphism"),
                   2: ("induced-mult", "pair cell is not a fiber morphism"),
                   0: ("induced-unit", "unit pair is not a fiber morphism")}


def _induced_into_fiber(rb: ReportBuilder, base_struct: MonoidalStructure,
                        left: MonFunctor, right: MonFunctor,
                        fiber: MonoidalSquare, psi_ids: tuple[int, ...],
                        ) -> MonFunctor | None:
    """x ↦ (left(x), right(x), psi_x) for the two actions, with all cells
    forced as pairs."""
    oi = fiber.fp.object_index
    obj_map = []
    for x in range(base_struct.base.num_objects):
        key = (left.on_obj(x), right.on_obj(x), psi_ids[x])
        if key not in oi:
            rb.add("induced-object", (x,),
                   "comparison is not a fiber object at the witness")
            return None
        obj_map.append(oi[key])
    try:
        return lift_mon_functor(base_struct, fiber.apex, fiber.fp.morphism_index,
                                obj_map, (left, right), "induced functor")
    except MediationError as exc:
        law, detail = _INDUCED_MISSES[len(exc.witness)]
        rb.add(law, exc.witness, detail)
        return None


def _checked_induced(rb: ReportBuilder, base: Braiding, left: MonFunctor,
                     right: MonFunctor, fiber: MonoidalSquare,
                     psi_ids: list[int | None]) -> MonFunctor | None:
    """Once every psi is a centralizer morphism (no id is None), the induced
    functor into the fiber, checked monoidal and braided."""
    if None in psi_ids:
        return None
    induced = _induced_into_fiber(rb, base.on, left, right, fiber, tuple(psi_ids))
    if induced is not None:
        rb.merge("induced-", check_mon_functor(induced))
        rb.merge("induced-braided-",
                 check_braided_functor(induced, base, fiber.braiding))
    return induced


def _central_monoidal_check(setup: CentralFunctorSetup, budget: Budget,
                            cap: int) -> CentralCheckResult:
    """Over a braided base, through Drinfeld centers and the monoidal
    centralizer of g."""
    rb = ReportBuilder("central_module_check", cap)
    left, right = setup.left, setup.right
    z1g = monoidal_centralizer(setup.g, budget)
    mi = z1g.morphism_index
    g_push = _push_center(setup.g, left.center, z1g)
    g_pull = _pull_center(setup.g, right.center, z1g)
    for name, mf in (("push", g_push), ("pull", g_pull)):
        rb.merge(name + "-", check_mon_functor(mf))
    fiber = monoidal_fiber_product(g_push, g_pull, budget,
                                   braidings=(left.center.braiding,
                                              right.center.braiding))
    rb.merge("fiber-braiding-", check_braiding(fiber.braiding))

    acting = left.base.on.base
    psi_ids = []
    for x in range(acting.num_objects):
        m_half = left.center.objects_data[left.action.on_obj(x)]
        n_half = right.center.objects_data[right.action.on_obj(x)]
        rb.merge("compatibility-", check_hpt_conditions(HptSetup(
            setup.g, m_half, n_half, setup.psi_g[x],
            setup.h, None if setup.psi_h is None else setup.psi_h[x],
            setup.phi)), (x,))
        psi_ids.append(mi.get((g_push.on_obj(left.action.on_obj(x)),
                               g_pull.on_obj(right.action.on_obj(x)),
                               setup.psi_g[x])))
    induced = _checked_induced(rb, left.base, left.action, right.action, fiber,
                               psi_ids)

    phi_fiber = None
    if setup.phi is not None:
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
    return PhiFiberResult(cat, tuple(objects))


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
# the check over a symmetric base (transparent centers)
# ---------------------------------------------------------------------------

def _subcat_functor(g: MonFunctor, src_center: CenterCategory,
                    z2g: CenterCategory, apply_g: bool) -> MonFunctor:
    """mueger -> braided centralizer, either applying g or including."""
    carriers = {o.carrier: i for i, o in enumerate(z2g.objects_data)}
    obj_map = []
    for o in src_center.objects_data:
        carrier = g.on_obj(o.carrier) if apply_g else o.carrier
        if carrier not in carriers:
            raise StructureError(
                f"object {o.carrier} does not land in the centralizer")
        obj_map.append(carriers[carrier])
    if apply_g:
        leg = _forgetful_then(g, src_center)
    else:
        leg = strict_mon_functor(src_center.monoidal, g.target, src_center.forgetful)
    return lift_mon_functor(src_center.monoidal, z2g.monoidal, z2g.morphism_index,
                            obj_map, (leg,), "braided centralizer functor")


def _central_braided_check(setup: CentralFunctorSetup, budget: Budget,
                           cap: int) -> CentralCheckResult:
    """Over a symmetric base, through Müger centers and the braided
    centralizer of g."""
    rb = ReportBuilder("central_braided_check", cap)
    left, right = setup.left, setup.right
    rb.merge("candidate-",
             check_braided_functor(setup.g, left.carrier, right.carrier))
    z2g = braided_centralizer(setup.g, left.carrier, right.carrier)
    mi = z2g.morphism_index
    g_push = _subcat_functor(setup.g, left.center, z2g, apply_g=True)
    g_pull = _subcat_functor(setup.g, right.center, z2g, apply_g=False)
    fiber = monoidal_fiber_product(g_push, g_pull, budget,
                                   braidings=(left.center.braiding,
                                              right.center.braiding))
    rb.merge("fiber-braiding-", check_braiding(fiber.braiding))
    if not is_symmetric(fiber.braiding):
        rb.add("fiber-symmetry", (), "the fiber product is not symmetric")

    psi_ids = []
    for x in range(left.base.on.base.num_objects):
        psi_ids.append(mi.get((g_push.on_obj(left.action.on_obj(x)),
                               g_pull.on_obj(right.action.on_obj(x)),
                               setup.psi_g[x])))
        if psi_ids[-1] is None:
            rb.add("comparison", (x,),
                   "psi component is not a centralizer morphism")
    induced = _checked_induced(rb, left.base, left.action, right.action, fiber,
                               psi_ids)

    phi_fiber = None
    common = None
    matches = None
    if setup.phi is not None:
        rb.merge("candidate-h-",
                 check_braided_functor(setup.h, left.carrier, right.carrier))
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


def _phi_quadruples_z2(rb: ReportBuilder, setup: CentralFunctorSetup,
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
    return PhiFiberResult(cat, tuple(objects))


def central_module_check(setup: CentralFunctorSetup,
                         budget: Budget = DEFAULT_BUDGET,
                         cap: int = DEFAULT_VIOLATION_CAP) -> CentralCheckResult:
    """Check a candidate between central modules, through Drinfeld centers
    when both carriers are MonoidalStructures and through Müger centers when
    both are Braidings; modules of different kinds are refused."""
    if not isinstance(setup, CentralFunctorSetup):
        raise StructureError(f"unknown central setup {type(setup).__name__}")
    kinds = {type(getattr(m, "carrier", None)) for m in (setup.left, setup.right)}
    if kinds not in ({MonoidalStructure}, {Braiding}):
        raise StructureError("central modules must both have MonoidalStructure "
                             "or both have Braiding carriers")
    braided = kinds == {Braiding}
    _check_shape(setup, braided)
    if braided:
        return _central_braided_check(setup, budget, cap)
    return _central_monoidal_check(setup, budget, cap)
