"""Centers, centralizers, and intertwiners of finite monoidal categories.

Objects here are pairs (carrier, half-braiding): a component family
x⊗G(y) -> H(y)⊗x that is natural in y and compatible with tensoring via the
hexagon.  Enumeration goes object by object, testing each naturality square
and each hexagon once the components it reads are chosen (EGNO Def. 7.13.1;
Kassel §XIII.4); transparency-style centers are predicate scans instead.
Malformed input is refused with StructureError before it is read: a table
of the wrong length or with a dangling id, and, before the search, a cell
with the wrong ends or a cell of h without an inverse.
Both centers are centralizers of the identity functor: the Drinfeld center
is Z(C) = Z₁(id_C) and the Müger center is Z₂(C) = Z₂(id_C), so each is
built by the general construction.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import product

from .fincat import (
    Budget,
    DEFAULT_BUDGET,
    FinCategory,
    Functor,
    StructureError,
    _check_tables,
    category_over_product,
    full_subcategory,
)
from .monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    _check_braiding_ids,
    _check_tables as _check_monoidal_tables,
    _component_ok,
    identity_mon_functor,
    monoidal_over_product,
    restrict_braiding,
    restrict_monoidal,
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
    """A category of half-braided objects inside an ambient monoidal category.

    The builder fills the two id maps once: object_index takes (carrier,
    components) and morphism_index (source id, target id, ambient morphism)
    to an id.  They take no part in equality or hashing."""

    ambient: MonoidalStructure
    objects_data: tuple[HalfBraidedObject, ...]
    as_category: FinCategory
    forgetful: Functor
    monoidal: MonoidalStructure | None
    braiding: Braiding | None
    object_index: dict[tuple[int, tuple[int, ...]], int] = \
        field(compare=False, repr=False)
    morphism_index: dict[tuple[int, int, int], int] = field(compare=False, repr=False)


Test = Callable[[list[int]], bool]  # a law tested on the components chosen so far


# ---------------------------------------------------------------------------
# enumeration machinery
# ---------------------------------------------------------------------------

def enumerate_half_braidings(ms: MonoidalStructure, g: MonFunctor,
                             h: MonFunctor, x: int, lax: bool) -> list[tuple[int, ...]]:
    """All component families x⊗G(y) -> H(y)⊗x for the carrier x, natural
    in y and satisfying the hexagon, in lexicographic order.

    Components are chosen for y = 0, 1, ... in turn, and each law, looked up
    once per carrier, is tested when the last component it reads is chosen:
    the square of u: y0 -> y1 at max(y0, y1), and the hexagon at (y, z),
    which reads the family at y, z and y⊗z only (EGNO Def. 7.13.1; Kassel
    §XIII.4), at max(y, z, y⊗z).  It needs the cells of g and h to run
    Fy⊗Fz -> F(y⊗z) and those of h to have inverses, as _half_braided_category
    checks first: then every hexagon's fixed factors compose over a lawful ms.
    """
    base = ms.base
    comp, identity, tensor_mor, alpha = base.comp, base.identity, ms.tensor_mor, ms.alpha
    src, ident_x, n = g.source, identity[x], g.source.base.num_objects
    ends = [(ms.tensor_obj(x, g.on_obj(y)), ms.tensor_obj(h.on_obj(y), x))
            for y in range(n)]
    candidates = [base.hom(*e) if lax else base.isos(*e) for e in ends]
    if not all(candidates):
        return []  # no family, so no law is read
    tests: list[list[Test]] = [[] for _ in range(n)]  # by last component read

    def square(y0: int, y1: int, left: int, right: int) -> Test:
        return lambda c: comp[c[y1]][left] == comp[right][c[y0]] != -1

    def hexagon(y: int, z: int, yz: int) -> Test:
        gy, gz, hy = g.on_obj(y), g.on_obj(z), h.on_obj(y)
        cell = tensor_mor(h.gamma_inv(y, z), ident_x)
        a_out, a_in, a_mid = alpha(hy, h.on_obj(z), x), alpha(x, gy, gz), alpha(hy, x, gz)
        gamma_x = tensor_mor(ident_x, g.gamma(y, z))
        id_hy, id_gz = identity[hy], identity[gz]
        return lambda c: base.compose_path(a_out, cell, c[yz], gamma_x, a_in) == \
            base.compose_path(tensor_mor(id_hy, c[z]), a_mid, tensor_mor(c[y], id_gz))

    for u in range(src.base.num_morphisms):
        y0, y1 = src.base.source[u], src.base.target[u]
        tests[max(y0, y1)].append(square(y0, y1, tensor_mor(ident_x, g.on_mor(u)),
                                         tensor_mor(h.on_mor(u), ident_x)))
    for y, z in product(range(n), repeat=2):
        yz = src.tensor_obj(y, z)
        tests[max(y, z, yz)].append(hexagon(y, z, yz))
    comps, found = [-1] * n, []

    def backtrack(y: int) -> None:
        if y == n:
            found.append(tuple(comps))
            return
        for comps[y] in candidates[y]:  # sets the component at y
            if all(test(comps) for test in tests[y]):
                backtrack(y + 1)

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


def _refuse_ill_typed(ms: MonoidalStructure, g: MonFunctor, h: MonFunctor) -> None:
    _check_monoidal_tables(ms)
    for fun in (g,) if h is g else (g, h):
        _check_monoidal_tables(fun.source)
        _check_tables(fun.underlying)
        src, n = fun.source, fun.source.base.num_objects
        if len(fun.mult) != n * n:
            raise StructureError("multiplicativity table has the wrong length")
        for x, y in product(range(n), repeat=2):
            bad = _component_ok(ms.base, fun.gamma(x, y), ms.tensor_obj(
                fun.on_obj(x), fun.on_obj(y)), fun.on_obj(src.tensor_obj(x, y)))
            if bad:
                raise StructureError(f"multiplicativity cell at ({x}, {y}): {bad}")
            if fun is h:
                h.gamma_inv(x, y)  # raises when the cell has no inverse
        bad = _component_ok(ms.base, fun.unit_iso, ms.unit, fun.on_obj(src.unit))
        if bad:
            raise StructureError(f"unit cell: {bad}")


def _half_braided_category(ms: MonoidalStructure, g: MonFunctor, h: MonFunctor,
                           lax: bool, budget: Budget, what: str) -> CenterCategory:
    """Every half-braided object, carrier by carrier (the budget sees the
    running count after each carrier), and the ambient morphisms commuting
    with the half-braidings, built over the ambient base through
    category_over_product; no monoidal structure or braiding yet.  Before
    the search, _refuse_ill_typed refuses malformed tables of ms, g and h,
    cells of g or h with the wrong ends and cells of h without an inverse."""
    _refuse_ill_typed(ms, g, h)
    objects: list[HalfBraidedObject] = []
    for x in range(ms.base.num_objects):
        objects.extend(HalfBraidedObject(x, comps, lax)
                       for comps in enumerate_half_braidings(ms, g, h, x, lax))
        budget.check_objects(len(objects), what)
    cat, arrows, index = category_over_product(
        (ms.base,), [(o.carrier,) for o in objects],
        lambda i, j, arrow: _is_center_morphism(ms, g, h, objects[i], objects[j],
                                                arrow[0]),
        budget, what)
    forgetful = Functor(cat, ms.base, tuple(o.carrier for o in objects),
                        tuple(f for (f,) in arrows))
    return CenterCategory(ms, tuple(objects), cat, forgetful, None, None,
                          {(o.carrier, o.components): i
                           for i, o in enumerate(objects)}, index)


def _pasted_half_braiding(ms: MonoidalStructure, g: MonFunctor, k: MonFunctor,
                          h: MonFunctor, left: HalfBraidedObject,
                          right: HalfBraidedObject) -> tuple[int, ...]:
    """Half-braiding left.carrier⊗right.carrier ⊗ G(y) -> H(y) ⊗ that tensor,
    pasted from left: x⊗K(y) -> H(y)⊗x and right: w⊗G(y) -> K(y)⊗w by
    sliding G(y) through the right factor first, then through the left."""
    base = ms.base
    x, w = left.carrier, right.carrier
    comps = []
    for y in range(g.source.base.num_objects):
        comps.append(base.compose_path(
            ms.alpha(h.on_obj(y), x, w),
            ms.tensor_mor(left.components[y], base.identity[w]),
            ms.alpha_inv(x, k.on_obj(y), w),
            ms.tensor_mor(base.identity[x], right.components[y]),
            ms.alpha(x, w, g.on_obj(y))))
    return tuple(comps)


def _unit_half_braiding(ms: MonoidalStructure, g: MonFunctor) -> tuple[int, ...]:
    base = ms.base
    comps = []
    for y in range(g.source.base.num_objects):
        gy = g.on_obj(y)
        rho_inv = base.inverse(ms.unitor(gy, False))
        if rho_inv is None:
            raise StructureError("right unitor is not invertible")
        comps.append(base.compose(rho_inv, ms.unitor(gy, True)))
    return tuple(comps)


# ---------------------------------------------------------------------------
# the centers
# ---------------------------------------------------------------------------

def _centralizer(g: MonFunctor, budget: Budget, what: str) -> CenterCategory:
    """The monoidal centralizer of g, without its braiding."""
    ms = g.target
    center = _half_braided_category(ms, g, g, False, budget, what)
    objects, obj_index = center.objects_data, center.object_index

    def tensor_obj(i: int, j: int) -> int:
        key = (ms.tensor_obj(objects[i].carrier, objects[j].carrier),
               _pasted_half_braiding(ms, g, g, g, objects[i], objects[j]))
        if key not in obj_index:
            raise StructureError(
                f"half-braided objects are not closed under tensor at ({i}, {j})")
        return obj_index[key]

    unit_key = (ms.unit, _unit_half_braiding(ms, g))
    if unit_key not in obj_index:
        raise StructureError("the unit carries no half-braiding")
    return replace(center, monoidal=monoidal_over_product(
        center.as_category, (ms,), tuple(zip(center.forgetful.morphism_map)),
        center.morphism_index, obj_index[unit_key], tensor_obj, "center"))


def drinfeld_center(ms: MonoidalStructure,
                    budget: Budget = DEFAULT_BUDGET) -> CenterCategory:
    """All (object, invertible half-braiding) pairs, with the braiding whose
    component at ((x, bx), (y, by)) is bx at y.

    Z(C) = Z₁(id_C) (Etingof-Gelaki-Nikshych-Ostrik, Tensor Categories,
    2015), so this is the monoidal centralizer of the identity functor.
    Over a lawful ms the identity functor's cells are identities and 1⊗1 = 1,
    so its naturality and hexagon conditions are, term by term, the plain
    ones x⊗y -> y⊗x; the CLI law-checks ms before it gets here.
    """
    _check_monoidal_tables(ms)  # before the identity functor reads them
    center = _centralizer(identity_mon_functor(ms), budget, "drinfeld center")
    objects, monoidal, mor_index = (center.objects_data, center.monoidal,
                                    center.morphism_index)
    n = center.as_category.num_objects
    beta = []
    for i in range(n):
        for j in range(n):
            key = (monoidal.tensor_obj(i, j), monoidal.tensor_obj(j, i),
                   objects[i].components[objects[j].carrier])
            if key not in mor_index:
                raise StructureError("half-braiding component is not a center morphism")
            beta.append(mor_index[key])
    return replace(center, braiding=Braiding(monoidal, tuple(beta)))


def monoidal_centralizer(g: MonFunctor,
                         budget: Budget = DEFAULT_BUDGET) -> CenterCategory:
    """Objects of the target with invertible half-braidings against the image of g."""
    return _centralizer(g, budget, "monoidal centralizer")


def mueger_center(b: Braiding) -> CenterCategory:
    """Full subcategory of objects with identity double braiding against everything.

    Z₂(C) = Z₂(id_C) (Müger, "On the structure of modular categories",
    Proc. LMS 2003): the braided centralizer of the identity functor, whose
    transparency test at (x, y) is c(y, x)∘c(x, y) = 1 on any braiding table.
    """
    _check_monoidal_tables(b.on)  # before the identity functor reads them
    return braided_centralizer(identity_mon_functor(b.on), b, b)


def braided_centralizer(g: MonFunctor, b_source: Braiding,
                        b_target: Braiding) -> CenterCategory:
    """Full subcategory of the target transparent against the image of g."""
    if b_source.on != g.source or b_target.on != g.target:
        raise StructureError("braidings do not match the functor")
    ms = g.target
    base = ms.base
    _check_monoidal_tables(g.source)
    _check_monoidal_tables(ms)
    _check_tables(g.underlying)
    _check_braiding_ids(b_target)
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
    sub = restricted.base
    return CenterCategory(
        ms, objects, sub, inclusion, restricted, sub_braiding,
        {(o.carrier, o.components): i for i, o in enumerate(objects)},
        {(s, t, f): k for k, (s, t, f) in enumerate(
            zip(sub.source, sub.target, inclusion.morphism_map))})


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

def monoidal_intertwiner(g: MonFunctor, h: MonFunctor,
                         budget: Budget = DEFAULT_BUDGET) -> CenterCategory:
    """Lax half-braidings x⊗G(y) -> H(y)⊗x, on which Z₁(h) and Z₁(g) act
    lawfully from the left and the right by pasting half-braidings
    (EGNO §7.13)."""
    if g.source != h.source or g.target != h.target:
        raise StructureError("intertwiner needs functors with shared source and target")
    return _half_braided_category(g.target, g, h, True, budget,
                                  "monoidal intertwiner")


def braided_intertwiner(g: MonFunctor, h: MonFunctor, b_source: Braiding,
                        b_target: Braiding) -> tuple[FinCategory, tuple[int, ...]]:
    """Smallest full subcategory containing both braided centralizers:
    the full subcategory on the union of their object sets, with those
    carriers."""
    zg = braided_centralizer(g, b_source, b_target)
    zh = braided_centralizer(h, b_source, b_target)
    carriers = tuple(sorted(set(o.carrier for o in zg.objects_data)
                            | set(o.carrier for o in zh.objects_data)))
    return full_subcategory(g.target.base, carriers)[0], carriers


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
    m = m_half.carrier
    gz = g.on_obj(z)
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
    ms = setup.g.target
    base = ms.base
    m, n = setup.m_half.carrier, setup.n_half.carrier
    for name, fun, xi in (("g", setup.g, setup.xi_g), ("h", setup.h, setup.xi_h)):
        if fun is None:
            continue
        if xi is None:
            raise StructureError("second functor given without xi_h")
        if _component_ok(base, xi, fun.on_obj(m), n):  # a dangling id too
            raise StructureError(f"xi_{name} has the wrong endpoints")
        if base.inverse(xi) is None:
            rb.add(f"xi-{name}-iso", (), "comparison is not invertible")
        for z in range(fun.source.base.num_objects):
            if not _square_condition(ms, fun, setup.m_half, setup.n_half, xi, z):
                rb.add(f"half-braiding-square-{name}", (z,),
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
