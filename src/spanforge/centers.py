"""Centers, centralizers, and intertwiners of finite monoidal categories.

Objects here are pairs (carrier, half-braiding): a component family
x⊗G(y) -> H(y)⊗x that is natural in y and compatible with tensoring via the
hexagon.  Enumeration goes object by object, pruning by naturality before
testing hexagons; transparency-style centers are predicate scans instead.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fincat import (
    Budget,
    DEFAULT_BUDGET,
    FinCategory,
    Functor,
    StructureError,
    category_over_product,
    full_subcategory,
    lift_functor,
    product_category,
)
from .monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    identity_mon_functor,
    restrict_braiding,
    restrict_monoidal,
    tabulate_monoidal,
)
from .reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder


@dataclass(frozen=True)
class HalfBraidedObject:
    """A carrier object with components x⊗G(y) -> H(y)⊗x indexed by y."""

    carrier: int
    components: tuple[int, ...]
    lax: bool


@dataclass(frozen=True)
class CenterCategory:
    """A category of half-braided objects inside an ambient monoidal category."""

    ambient: MonoidalStructure
    objects_data: tuple[HalfBraidedObject, ...]
    as_category: FinCategory
    forgetful: Functor
    monoidal: MonoidalStructure | None
    braiding: Braiding | None

    def object_index(self) -> dict[tuple[int, tuple[int, ...]], int]:
        return {(o.carrier, o.components): i
                for i, o in enumerate(self.objects_data)}

    def morphism_index(self) -> dict[tuple[int, int, int], int]:
        cat = self.as_category
        return {(cat.source[k], cat.target[k], self.forgetful.morphism_map[k]): k
                for k in range(cat.num_morphisms)}


# ---------------------------------------------------------------------------
# enumeration machinery
# ---------------------------------------------------------------------------

def _hexagon_holds(ms: MonoidalStructure, g: MonFunctor, h: MonFunctor,
                   x: int, comps, y: int, z: int) -> bool:
    """Tensor-compatibility of the family comps at the pair (y, z)."""
    base = ms.base
    gy, gz = g.on_obj(y), g.on_obj(z)
    hy, hz = h.on_obj(y), h.on_obj(z)
    yz = g.source.tensor_obj(y, z)
    path_a = base.compose_path(
        ms.alpha(hy, hz, x),
        ms.tensor_mor(h.gamma_inv(y, z), base.identity[x]),
        comps[yz],
        ms.tensor_mor(base.identity[x], g.gamma(y, z)),
        ms.alpha(x, gy, gz))
    path_b = base.compose_path(
        ms.tensor_mor(base.identity[hy], comps[z]),
        ms.alpha(hy, x, gz),
        ms.tensor_mor(comps[y], base.identity[gz]))
    return path_a == path_b


def _natural_at(ms: MonoidalStructure, g: MonFunctor, h: MonFunctor,
                x: int, comps, just: int) -> bool:
    base = ms.base
    src = g.source.base
    for u in range(src.num_morphisms):
        y0, y1 = src.source[u], src.target[u]
        if just not in (y0, y1) or comps[y0] == -1 or comps[y1] == -1:
            continue
        lhs = base.comp[comps[y1]][ms.tensor_mor(base.identity[x], g.on_mor(u))]
        rhs = base.comp[ms.tensor_mor(h.on_mor(u), base.identity[x])][comps[y0]]
        if lhs != rhs or lhs == -1:
            return False
    return True


def enumerate_half_braidings(ms: MonoidalStructure, g: MonFunctor,
                             h: MonFunctor, x: int, lax: bool) -> list[tuple[int, ...]]:
    """All component families for the carrier x, in lexicographic order."""
    base = ms.base
    src_objects = g.source.base.num_objects
    comps = [-1] * src_objects
    found: list[tuple[int, ...]] = []

    def backtrack(y: int) -> None:
        if y == src_objects:
            family = tuple(comps)
            if all(_hexagon_holds(ms, g, h, x, family, a, b)
                   for a in range(src_objects) for b in range(src_objects)):
                found.append(family)
            return
        src_obj = ms.tensor_obj(x, g.on_obj(y))
        tgt_obj = ms.tensor_obj(h.on_obj(y), x)
        candidates = base.hom(src_obj, tgt_obj) if lax else base.isos(src_obj, tgt_obj)
        for c in candidates:
            comps[y] = c
            if _natural_at(ms, g, h, x, comps, y):
                backtrack(y + 1)
            comps[y] = -1

    backtrack(0)
    return found


def _is_center_morphism(ms: MonoidalStructure, g: MonFunctor, h: MonFunctor,
                        a: HalfBraidedObject, b: HalfBraidedObject, f: int) -> bool:
    base = ms.base
    for y in range(g.source.base.num_objects):
        lhs = base.comp[b.components[y]][
            ms.tensor_mor(f, base.identity[g.on_obj(y)])]
        rhs = base.comp[ms.tensor_mor(base.identity[h.on_obj(y)], f)][
            a.components[y]]
        if lhs != rhs or lhs == -1:
            return False
    return True


def _half_braided_category(ms: MonoidalStructure, g: MonFunctor, h: MonFunctor,
                           objects: list[HalfBraidedObject],
                           budget: Budget, what: str):
    """The category whose morphisms are ambient morphisms commuting with the
    half-braidings, built over the ambient base through
    category_over_product, together with the forgetful functor."""
    base = ms.base
    cat, arrows, index = category_over_product(
        (base,), [(o.carrier,) for o in objects],
        lambda i, j, arrow: _is_center_morphism(ms, g, h, objects[i], objects[j],
                                                arrow[0]),
        budget, what)
    forgetful = Functor(cat, base, tuple(o.carrier for o in objects),
                        tuple(f for (f,) in arrows))
    return cat, forgetful, index


def _pasted_half_braiding(ms: MonoidalStructure, g: MonFunctor, h: MonFunctor,
                          left: HalfBraidedObject,
                          right: HalfBraidedObject) -> tuple[int, ...]:
    """Half-braiding of left.carrier ⊗ right.carrier: slide G(y) through the
    right factor first, then through the left."""
    base = ms.base
    x, w = left.carrier, right.carrier
    comps = []
    for y in range(g.source.base.num_objects):
        gy, hy = g.on_obj(y), h.on_obj(y)
        comps.append(base.compose_path(
            ms.alpha(hy, x, w),
            ms.tensor_mor(left.components[y], base.identity[w]),
            ms.alpha_inv(x, gy, w),
            ms.tensor_mor(base.identity[x], right.components[y]),
            ms.alpha(x, w, gy)))
    return tuple(comps)


def _unit_half_braiding(ms: MonoidalStructure, g: MonFunctor) -> tuple[int, ...]:
    base = ms.base
    comps = []
    for y in range(g.source.base.num_objects):
        gy = g.on_obj(y)
        rho_inv = base.inverse(ms.right_unitor[gy])
        if rho_inv is None:
            raise StructureError("right unitor is not invertible")
        comps.append(base.compose(rho_inv, ms.left_unitor[gy]))
    return tuple(comps)


def _centralizer_monoidal(ms: MonoidalStructure, g: MonFunctor,
                          objects: list[HalfBraidedObject],
                          cat: FinCategory, forgetful: Functor,
                          mor_index) -> MonoidalStructure:
    """Monoidal structure on half-braided objects over a single functor."""
    obj_index = {(o.carrier, o.components): i for i, o in enumerate(objects)}

    def tensor_obj(i: int, j: int) -> int:
        key = (ms.tensor_obj(objects[i].carrier, objects[j].carrier),
               _pasted_half_braiding(ms, g, g, objects[i], objects[j]))
        if key not in obj_index:
            raise StructureError(
                f"half-braided objects are not closed under tensor at ({i}, {j})")
        return obj_index[key]

    def tensor_mor(a: int, b: int, s: int, t: int) -> int:
        key = (s, t, ms.tensor_mor(forgetful.morphism_map[a],
                                   forgetful.morphism_map[b]))
        if key not in mor_index:
            raise StructureError("tensor of center morphisms left the center")
        return mor_index[key]

    unit_key = (ms.unit, _unit_half_braiding(ms, g))
    if unit_key not in obj_index:
        raise StructureError("the unit carries no half-braiding")

    def lift(src_idx: int, tgt_idx: int, ambient_mor: int) -> int:
        key = (src_idx, tgt_idx, ambient_mor)
        if key not in mor_index:
            raise StructureError("coherence component is not a center morphism")
        return mor_index[key]

    return tabulate_monoidal(
        cat, obj_index[unit_key], tensor_obj, tensor_mor,
        associator=lambda i, j, k, s, t: lift(s, t, ms.alpha(
            objects[i].carrier, objects[j].carrier, objects[k].carrier)),
        left_unitor=lambda i, s: lift(s, i, ms.left_unitor[objects[i].carrier]),
        right_unitor=lambda i, s: lift(s, i, ms.right_unitor[objects[i].carrier]))


# ---------------------------------------------------------------------------
# the centers
# ---------------------------------------------------------------------------

def drinfeld_center(ms: MonoidalStructure,
                    budget: Budget = DEFAULT_BUDGET) -> CenterCategory:
    """All (object, invertible half-braiding) pairs, with the braiding whose
    component at ((x, bx), (y, by)) is bx at y."""
    base = ms.base
    ident = identity_mon_functor(ms)
    objects: list[HalfBraidedObject] = []
    for x in range(base.num_objects):
        comps_list = _enumerate_plain_half_braidings(ms, x)
        for comps in comps_list:
            objects.append(HalfBraidedObject(x, comps, lax=False))
        budget.check_objects(len(objects), "drinfeld center")
    cat, forgetful, mor_index = _half_braided_category(
        ms, ident, ident, objects, budget, "drinfeld center")
    monoidal = _centralizer_monoidal(ms, ident, objects, cat, forgetful, mor_index)
    n = cat.num_objects
    beta = []
    for i in range(n):
        for j in range(n):
            src = monoidal.tensor_obj(i, j)
            tgt = monoidal.tensor_obj(j, i)
            key = (src, tgt, objects[i].components[objects[j].carrier])
            if key not in mor_index:
                raise StructureError("half-braiding component is not a center morphism")
            beta.append(mor_index[key])
    braiding = Braiding(monoidal, tuple(beta))
    return CenterCategory(ms, tuple(objects), cat, forgetful, monoidal, braiding)


def _enumerate_plain_half_braidings(ms: MonoidalStructure, x: int) -> list[tuple[int, ...]]:
    """Invertible families x⊗y -> y⊗x, written without functor twists."""
    base = ms.base
    n = base.num_objects
    comps = [-1] * n
    found: list[tuple[int, ...]] = []

    def natural(just: int) -> bool:
        for u in range(base.num_morphisms):
            y0, y1 = base.source[u], base.target[u]
            if just not in (y0, y1) or comps[y0] == -1 or comps[y1] == -1:
                continue
            lhs = base.comp[comps[y1]][ms.tensor_mor(base.identity[x], u)]
            rhs = base.comp[ms.tensor_mor(u, base.identity[x])][comps[y0]]
            if lhs != rhs or lhs == -1:
                return False
        return True

    def hexagon(family, y: int, z: int) -> bool:
        lhs = base.compose_path(
            ms.alpha(y, z, x),
            family[ms.tensor_obj(y, z)],
            ms.alpha(x, y, z))
        rhs = base.compose_path(
            ms.tensor_mor(base.identity[y], family[z]),
            ms.alpha(y, x, z),
            ms.tensor_mor(family[y], base.identity[z]))
        return lhs == rhs

    def backtrack(y: int) -> None:
        if y == n:
            family = tuple(comps)
            if all(hexagon(family, a, b) for a in range(n) for b in range(n)):
                found.append(family)
            return
        for c in base.isos(ms.tensor_obj(x, y), ms.tensor_obj(y, x)):
            comps[y] = c
            if natural(y):
                backtrack(y + 1)
            comps[y] = -1

    backtrack(0)
    return found


def monoidal_centralizer(g: MonFunctor,
                         budget: Budget = DEFAULT_BUDGET) -> CenterCategory:
    """Objects of the target with invertible half-braidings against the image of g."""
    ms = g.target
    objects: list[HalfBraidedObject] = []
    for x in range(ms.base.num_objects):
        for comps in enumerate_half_braidings(ms, g, g, x, lax=False):
            objects.append(HalfBraidedObject(x, comps, lax=False))
        budget.check_objects(len(objects), "monoidal centralizer")
    cat, forgetful, mor_index = _half_braided_category(
        ms, g, g, objects, budget, "monoidal centralizer")
    monoidal = _centralizer_monoidal(ms, g, objects, cat, forgetful, mor_index)
    return CenterCategory(ms, tuple(objects), cat, forgetful, monoidal, None)


def mueger_center(b: Braiding) -> CenterCategory:
    """Full subcategory of objects with identity double braiding against everything."""
    ms = b.on
    base = ms.base
    n = base.num_objects
    transparent = tuple(
        x for x in range(n)
        if all(base.comp[b.at(y, x)][b.at(x, y)] == base.identity[ms.tensor_obj(x, y)]
               for y in range(n)))
    restricted, inclusion = restrict_monoidal(ms, transparent)
    sub_braiding = restrict_braiding(b, restricted, inclusion)
    objects = tuple(HalfBraidedObject(x, tuple(b.at(x, y) for y in range(n)),
                                      lax=False)
                    for x in transparent)
    return CenterCategory(ms, objects, restricted.base, inclusion,
                          restricted, sub_braiding)


def braided_centralizer(g: MonFunctor, b_source: Braiding,
                        b_target: Braiding) -> CenterCategory:
    """Full subcategory of the target transparent against the image of g."""
    if b_source.on != g.source or b_target.on != g.target:
        raise StructureError("braidings do not match the functor")
    ms = g.target
    base = ms.base
    n_src = g.source.base.num_objects
    transparent = tuple(
        x for x in range(base.num_objects)
        if all(base.comp[b_target.at(g.on_obj(y), x)][b_target.at(x, g.on_obj(y))]
               == base.identity[ms.tensor_obj(x, g.on_obj(y))]
               for y in range(n_src)))
    restricted, inclusion = restrict_monoidal(ms, transparent)
    sub_braiding = restrict_braiding(b_target, restricted, inclusion)
    objects = tuple(HalfBraidedObject(
        x, tuple(b_target.at(x, g.on_obj(y)) for y in range(n_src)), lax=False)
        for x in transparent)
    return CenterCategory(ms, objects, restricted.base, inclusion,
                          restricted, sub_braiding)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntertwinerResult:
    """Lax half-braidings x⊗G(y) -> H(y)⊗x, with the action data of the two
    centralizers materialized as functors on product categories."""

    g: MonFunctor
    h: MonFunctor
    objects_data: tuple[HalfBraidedObject, ...]
    as_category: FinCategory
    forgetful: Functor
    left_center: CenterCategory
    right_center: CenterCategory
    left_action: Functor
    right_action: Functor


def monoidal_intertwiner(g: MonFunctor, h: MonFunctor,
                         budget: Budget = DEFAULT_BUDGET) -> IntertwinerResult:
    if g.source != h.source or g.target != h.target:
        raise StructureError("intertwiner needs functors with shared source and target")
    ms = g.target
    objects: list[HalfBraidedObject] = []
    for x in range(ms.base.num_objects):
        for comps in enumerate_half_braidings(ms, g, h, x, lax=True):
            objects.append(HalfBraidedObject(x, comps, lax=True))
        budget.check_objects(len(objects), "monoidal intertwiner")
    cat, forgetful, mor_index = _half_braided_category(
        ms, g, h, objects, budget, "monoidal intertwiner")
    obj_index = {(o.carrier, o.components): i for i, o in enumerate(objects)}
    z1g = monoidal_centralizer(g, budget)
    z1h = monoidal_centralizer(h, budget)

    def action(center: CenterCategory, on_left: bool) -> Functor:
        if on_left:
            square = product_category(center.as_category, cat, budget)
            first, second = center.forgetful, forgetful
        else:
            square = product_category(cat, center.as_category, budget)
            first, second = forgetful, center.forgetful
        obj_map = []
        for p in range(square.category.num_objects):
            i, j = square.object_factors(p)
            if on_left:
                v, x = center.objects_data[i], objects[j]
                pasted = _mixed_pasting(ms, g, h, x, left=v)
                carrier = ms.tensor_obj(v.carrier, x.carrier)
            else:
                x, w = objects[i], center.objects_data[j]
                pasted = _mixed_pasting(ms, g, h, x, right=w)
                carrier = ms.tensor_obj(x.carrier, w.carrier)
            key = (carrier, pasted)
            if key not in obj_index:
                raise StructureError("action left the intertwiner")
            obj_map.append(obj_index[key])
        # product morphism ids are row-major pairs (a, b)
        arrows = ((ms.tensor_mor(a, b),) for a in first.morphism_map
                  for b in second.morphism_map)
        return lift_functor(square.category, cat, mor_index, obj_map, arrows,
                            "intertwiner action")

    return IntertwinerResult(g, h, tuple(objects), cat, forgetful,
                             z1h, z1g, action(z1h, on_left=True),
                             action(z1g, on_left=False))


def _mixed_pasting(ms: MonoidalStructure, g: MonFunctor, h: MonFunctor,
                   x: HalfBraidedObject, left: HalfBraidedObject | None = None,
                   right: HalfBraidedObject | None = None) -> tuple[int, ...]:
    """Pasted lax half-braiding for v⊗x (left action by the h-centralizer) or
    x⊗w (right action by the g-centralizer)."""
    base = ms.base
    comps = []
    for y in range(g.source.base.num_objects):
        gy, hy = g.on_obj(y), h.on_obj(y)
        if left is not None:
            v = left.carrier
            comps.append(base.compose_path(
                ms.alpha(hy, v, x.carrier),
                ms.tensor_mor(left.components[y], base.identity[x.carrier]),
                ms.alpha_inv(v, hy, x.carrier),
                ms.tensor_mor(base.identity[v], x.components[y]),
                ms.alpha(v, x.carrier, gy)))
        else:
            w = right.carrier
            comps.append(base.compose_path(
                ms.alpha(hy, x.carrier, w),
                ms.tensor_mor(x.components[y], base.identity[w]),
                ms.alpha_inv(x.carrier, gy, w),
                ms.tensor_mor(base.identity[x.carrier], right.components[y]),
                ms.alpha(x.carrier, w, gy)))
    return tuple(comps)


def check_intertwiner_actions(result: IntertwinerResult,
                              cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Associativity and unitality of the two actions, up to the ambient
    associator and unitors realized as intertwiner morphisms."""
    rb = ReportBuilder("intertwiner_actions", cap)
    ms = result.g.target
    base = ms.base
    g, h = result.g, result.h
    objects = result.objects_data
    mor_index = {(result.as_category.source[k], result.as_category.target[k],
                  result.forgetful.morphism_map[k]): k
                 for k in range(result.as_category.num_morphisms)}
    obj_index = {(o.carrier, o.components): i for i, o in enumerate(objects)}
    right = result.right_center
    left = result.left_center

    def right_act(i: int, j: int) -> int:
        key = (ms.tensor_obj(objects[i].carrier, right.objects_data[j].carrier),
               _mixed_pasting(ms, g, h, objects[i], right=right.objects_data[j]))
        return obj_index[key]

    def left_act(j: int, i: int) -> int:
        key = (ms.tensor_obj(left.objects_data[j].carrier, objects[i].carrier),
               _mixed_pasting(ms, g, h, objects[i], left=left.objects_data[j]))
        return obj_index[key]

    right_monoidal = right.monoidal
    for i in range(len(objects)):
        for j in range(len(right.objects_data)):
            for k in range(len(right.objects_data)):
                src = right_act(right_act(i, j), k)
                tgt = right_act(i, right_monoidal.tensor_obj(j, k))
                alpha = ms.alpha(objects[i].carrier,
                                 right.objects_data[j].carrier,
                                 right.objects_data[k].carrier)
                if (src, tgt, alpha) not in mor_index:
                    rb.add("right-action-associativity", (i, j, k),
                           "associator is not an intertwiner morphism")
                if rb.full:
                    return rb.report()
        unit = right_monoidal.unit
        if (right_act(i, unit), i, ms.right_unitor[objects[i].carrier]) not in mor_index:
            rb.add("right-action-unit", (i,),
                   "right unitor is not an intertwiner morphism")
    left_monoidal = left.monoidal
    for i in range(len(objects)):
        for j in range(len(left.objects_data)):
            for k in range(len(left.objects_data)):
                src = left_act(left_monoidal.tensor_obj(j, k), i)
                tgt = left_act(j, left_act(k, i))
                alpha = ms.alpha(left.objects_data[j].carrier,
                                 left.objects_data[k].carrier,
                                 objects[i].carrier)
                if (src, tgt, alpha) not in mor_index:
                    rb.add("left-action-associativity", (j, k, i),
                           "associator is not an intertwiner morphism")
                if rb.full:
                    return rb.report()
        unit = left_monoidal.unit
        if (left_act(unit, i), i, ms.left_unitor[objects[i].carrier]) not in mor_index:
            rb.add("left-action-unit", (i,),
                   "left unitor is not an intertwiner morphism")
    # the two actions commute up to the ambient associator
    for j in range(len(left.objects_data)):
        for i in range(len(objects)):
            for k in range(len(right.objects_data)):
                src = right_act(left_act(j, i), k)
                tgt = left_act(j, right_act(i, k))
                alpha = ms.alpha(left.objects_data[j].carrier,
                                 objects[i].carrier,
                                 right.objects_data[k].carrier)
                if (src, tgt, alpha) not in mor_index:
                    rb.add("action-compatibility", (j, i, k),
                           "associator does not interchange the actions")
                if rb.full:
                    return rb.report()
    return rb.report()


def braided_intertwiner(g: MonFunctor, h: MonFunctor, b_source: Braiding,
                        b_target: Braiding) -> tuple[FinCategory, Functor, tuple[int, ...]]:
    """Smallest full subcategory containing both braided centralizers:
    the full subcategory on the union of their object sets."""
    zg = braided_centralizer(g, b_source, b_target)
    zh = braided_centralizer(h, b_source, b_target)
    carriers = sorted(set(o.carrier for o in zg.objects_data)
                      | set(o.carrier for o in zh.objects_data))
    sub, inclusion = full_subcategory(g.target.base, tuple(carriers))
    return sub, inclusion, tuple(carriers)


# ---------------------------------------------------------------------------
# compatibility of comparison cells with half-braidings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HptSetup:
    """A candidate compatibility datum: half-braidings m (over the source of
    g) and n (a plain half-braiding in the target), with comparison
    xi_g: g(m) -> n, and optionally a second functor h with xi_h and a
    monoidal transformation phi: g -> h."""

    g: MonFunctor
    m_half: HalfBraidedObject
    n_half: HalfBraidedObject
    xi_g: int
    h: MonFunctor | None = None
    xi_h: int | None = None
    phi: MonNatTrans | None = None


def _square_condition(ms: MonoidalStructure, g: MonFunctor,
                      m_half: HalfBraidedObject, n_half: HalfBraidedObject,
                      xi: int, z: int) -> bool:
    """g applied to the m-half-braiding at z matches the n-half-braiding at
    g(z) under the comparison xi."""
    base = ms.base
    m, n = m_half.carrier, n_half.carrier
    gz = g.on_obj(z)
    gm = g.on_obj(m)
    gamma_zm_inv = g.gamma_inv(z, m)
    lhs = base.compose_path(
        ms.tensor_mor(base.identity[gz], xi),
        gamma_zm_inv,
        g.on_mor(m_half.components[z]),
        g.gamma(m, z))
    rhs = base.comp[n_half.components[gz]][ms.tensor_mor(xi, base.identity[gz])]
    return lhs == rhs != -1


def check_hpt_conditions(setup: HptSetup,
                         cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """The square-of-half-braidings compatibility for xi_g (and xi_h), plus
    the factorization xi_h ∘ phi_m = xi_g when a transformation is given."""
    rb = ReportBuilder("hpt_conditions", cap)
    g = setup.g
    ms = g.target
    base = ms.base
    m, n = setup.m_half.carrier, setup.n_half.carrier
    if base.source[setup.xi_g] != g.on_obj(m) or base.target[setup.xi_g] != n:
        raise StructureError("xi_g has the wrong endpoints")
    if base.inverse(setup.xi_g) is None:
        rb.add("xi-g-iso", (), "comparison is not invertible")
    for z in range(g.source.base.num_objects):
        if not _square_condition(ms, g, setup.m_half, setup.n_half,
                                 setup.xi_g, z):
            rb.add("half-braiding-square-g", (z,),
                   "square does not commute at the witness object")
            if rb.full:
                return rb.report()
    if setup.h is not None:
        if setup.xi_h is None:
            raise StructureError("second functor given without xi_h")
        if base.source[setup.xi_h] != setup.h.on_obj(m) or base.target[setup.xi_h] != n:
            raise StructureError("xi_h has the wrong endpoints")
        if base.inverse(setup.xi_h) is None:
            rb.add("xi-h-iso", (), "comparison is not invertible")
        for z in range(setup.h.source.base.num_objects):
            if not _square_condition(ms, setup.h, setup.m_half, setup.n_half,
                                     setup.xi_h, z):
                rb.add("half-braiding-square-h", (z,),
                       "square does not commute at the witness object")
                if rb.full:
                    return rb.report()
    if setup.phi is not None:
        if setup.h is None or setup.xi_h is None:
            raise StructureError("phi given without the second comparison")
        phi_m = setup.phi.underlying.components[m]
        if base.comp[setup.xi_h][phi_m] != setup.xi_g:
            rb.add("factorization", (m,),
                   "xi_h composed with the transformation differs from xi_g")
    return rb.report()
