"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's incremental/backtracking
code paths: full cartesian products filtered by the defining laws, and
direct cochain arithmetic for cocycle and bicharacter conditions.  The
per-call hom and inverse scans are the ones FinCategory's tables replaced,
kept as their reference.  check_monoidal has one reference compared with
==, reference_check_monoidal: the structure with explicit coherence tables,
its component loop over every triple with no associativity test before it,
and every coherence instance composed, in hom-sets with at most one
morphism too.  exhaustive_check_monoidal goes through the same driver with
check_functor on the materialised product and associator naturality over
all m³ triples, whose witnesses are a superset of the bifunctor criterion's
and of one-variable naturality's (CWM §II.3), so it is compared by verdict
and by subset.  check_mon_functor's reference, exhaustive_check_mon_functor,
composes every mult-associativity instance.
The monoidal fiber product runs its associator and unitor callbacks over
strict feet too, as it did before it read a strict apex off its tensor.
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
The module-functor checks and the action-lift guard the span layer ran
before one gate checked each hypothesis of the span theorem, and the
re-checks of the laxator layer that the gate and the theorem make
unreachable (tensor preservation, pairing-key misses, the second triple
composite and the second total of a quadruple), are the parent routes at
the end.  The vertical and horizontal composites of monoidal
transformations have no caller in the library; they are kept here for the
test that checks them.  The intertwiner actions, functors on product
categories that the library built with every intertwiner, and their check
are the ones the CLI ran on every intertwiner it built, before it relied on
the theorem that the actions are lawful.  The central check at the end
law-checks the lifts it builds from the candidate, the fiber braiding and
the induced functor, and over a braided base not the candidates, as
central_module_check did before it checked the candidates instead.  Over
a symmetric base it builds the centralizer functors with its own
subcategory functor, as the library did before it reused push and pull.
The half-braiding search after the brute-force one prunes by naturality
alone and tests the hexagons on complete families, as
enumerate_half_braidings did before it tested each hexagon once the
components it reads were chosen.  scanned_first_nonassociative and
scanned_validate_group, the references of groups._first_nonassociative and
validate_group, run over every triple.  check_braiding's reference,
reference_check_braiding, writes its component loop out.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import product

from spanforge.fincat import (
    Budget,
    DEFAULT_BUDGET,
    FinCategory,
    Functor,
    MediationError,
    NatTrans,
    StructureError,
    check_category,
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
from spanforge.centers import (
    CenterCategory,
    HptSetup,
    _pasted_half_braiding,
    braided_centralizer,
    check_hpt_conditions,
    monoidal_centralizer,
)
from spanforge.central import (
    CentralCheckResult,
    CentralFunctorSetup,
    _check_shape,
    _forgetful_then,
    _induced_into_fiber,
    _phi_quadruples_z1,
    _phi_quadruples_z2,
    _pull_center,
    _push_center,
)
from spanforge.groups import GroupError, GroupTable
from spanforge.monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    _check_braiding_length,
    _check_tables,
    _component_ok,
    _scan_associator_naturality,
    _scan_pentagon,
    _scan_tensor_bifunctor,
    _scan_triangle,
    _scan_unitor_naturality,
    check_braided_functor,
    check_braiding,
    check_mon_functor,
    check_mon_nattrans,
    compose_mon_functors,
    identity_mon_functor,
    identity_mon_nattrans,
    is_symmetric,
    lift_mon_functor,
    strict_mon_functor,
    tabulate_monoidal,
)
from spanforge.reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder
from spanforge.limits import fiber_product, mediate, mediate_2cell
from spanforge.laxators import (
    LaxatorCoherenceResult,
    LaxatorResult,
    MonoidalSquare,
    NormalizationResult,
    _composite_transport,
    _hom_profile,
    _laxator,
    monoidal_fiber_product,
    quadruple_pasting_check,
)
from spanforge.spans import (
    EndCategory,
    ModuleData,
    ModuleFunctorData,
    ModuleNatTransData,
    SpanCell,
    build_span,
    compose_module_functors,
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


def reference_enumerate_half_braidings(ms: MonoidalStructure, g: MonFunctor,
                                       h: MonFunctor, x: int, lax: bool) -> list[tuple[int, ...]]:
    """All component families x⊗G(y) -> H(y)⊗x for the carrier x, natural
    in y and satisfying the hexagon, in lexicographic order.

    What the naturality and hexagon conditions read that does not depend on
    the family is looked up once per carrier: the two tensored morphisms of
    each naturality square, and the hexagon's α, γ⁻¹⊗1 and 1⊗γ terms at
    each pair (y, z), these when the first complete family arrives.  A cell of h
    without an inverse raises, through h.gamma_inv, only when a complete
    family reaches its pair, and pairs are still tried in (y, z) order.
    """
    base = ms.base
    comp, identity, tensor_mor, alpha = base.comp, base.identity, ms.tensor_mor, ms.alpha
    src = g.source.base
    n = src.num_objects
    ident_x = identity[x]
    # each square is tested once the later of its two ends is chosen
    squares: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for u in range(src.num_morphisms):
        y0, y1 = src.source[u], src.target[u]
        squares[max(y0, y1)].append((y0, y1, tensor_mor(ident_x, g.on_mor(u)),
                                     tensor_mor(h.on_mor(u), ident_x)))
    hexagons = []  # filled when the first complete family arrives

    def hexagons_hold(family: tuple[int, ...]) -> bool:
        if not hexagons:
            for y, z in product(range(n), repeat=2):
                gy, gz, hy = g.on_obj(y), g.on_obj(z), h.on_obj(y)
                cell_inv = base.inverse(h.gamma(y, z))
                hexagons.append((
                    y, z, g.source.tensor_obj(y, z), alpha(hy, h.on_obj(z), x),
                    None if cell_inv is None else tensor_mor(cell_inv, ident_x),
                    tensor_mor(ident_x, g.gamma(y, z)), alpha(x, gy, gz),
                    identity[hy], alpha(hy, x, gz), identity[gz]))
        for y, z, yz, a_out, cell, gamma_x, a_in, id_hy, a_mid, id_gz in hexagons:
            if cell is None:
                h.gamma_inv(y, z)  # raises: the cell is not invertible
            path_a = base.compose_path(a_out, cell, family[yz], gamma_x, a_in)
            path_b = base.compose_path(tensor_mor(id_hy, family[z]), a_mid,
                                       tensor_mor(family[y], id_gz))
            if path_a != path_b:
                return False
        return True

    comps = [-1] * n
    found: list[tuple[int, ...]] = []

    def backtrack(y: int) -> None:
        if y == n:
            family = tuple(comps)
            if hexagons_hold(family):
                found.append(family)
            return
        src_obj = ms.tensor_obj(x, g.on_obj(y))
        tgt_obj = ms.tensor_obj(h.on_obj(y), x)
        for c in base.hom(src_obj, tgt_obj) if lax else base.isos(src_obj, tgt_obj):
            comps[y] = c
            if all(comp[comps[y1]][left] == comp[right][comps[y0]] != -1
                   for y0, y1, left, right in squares[y]):
                backtrack(y + 1)
            comps[y] = -1

    backtrack(0)
    return found


def explicit_tables(ms: MonoidalStructure) -> MonoidalStructure:
    """ms built directly with every associator and unitor component in a
    table, identities included, so that a strict structure has entries to
    mutate; it is == to ms only when ms is not strict."""
    n = ms.base.num_objects
    return MonoidalStructure(
        ms.base, ms.tensor_objects, ms.tensor_morphisms, ms.unit,
        tuple(ms.alpha(x, y, z) for x, y, z in product(range(n), repeat=3)),
        tuple(ms.unitor(x, True) for x in range(n)),
        tuple(ms.unitor(x, False) for x in range(n)))


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
    hom-sets included; the pentagon reads alpha(x, y, z) at
    a[(x*n + y)*n + z] of the explicit associator table."""
    joint_associator_naturality(ms, rb)
    if rb.full:
        return
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    id_unit = base.identity[ms.unit]
    for p in range(m):
        x, y = base.source[p], base.target[p]
        lhs = base.comp[ms.unitor(y, True)][ms.tensor_mor(id_unit, p)]
        if lhs != base.comp[p][ms.unitor(x, True)] or lhs == -1:
            rb.add("left-unitor-naturality", (p,), "square does not commute")
        lhs = base.comp[ms.unitor(y, False)][ms.tensor_mor(p, id_unit)]
        if lhs != base.comp[p][ms.unitor(x, False)] or lhs == -1:
            rb.add("right-unitor-naturality", (p,), "square does not commute")
        if rb.full:
            return
    a, t_obj, t_mor, ident = ms.associator, ms.tensor_objects, ms.tensor_morphisms, base.identity
    for w, x, y, z in product(range(n), repeat=4):
        lhs = base.compose_path(
            t_mor[ident[w] * m + a[(x * n + y) * n + z]],
            a[(w * n + t_obj[x * n + y]) * n + z],
            t_mor[a[(w * n + x) * n + y] * m + ident[z]])
        rhs = base.comp[a[(w * n + x) * n + t_obj[y * n + z]]][
            a[(t_obj[w * n + x] * n + y) * n + z]]
        if lhs != rhs:
            rb.add("pentagon", (w, x, y, z), f"paths {lhs} vs {rhs}")
            if rb.full:
                return
    for x, y in product(range(n), repeat=2):
        lhs = base.comp[ms.tensor_mor(base.identity[x], ms.unitor(y, True))][
            ms.alpha(x, ms.unit, y)]
        rhs = ms.tensor_mor(ms.unitor(x, False), base.identity[y])
        if lhs != rhs:
            rb.add("triangle", (x, y), f"paths {lhs} vs {rhs}")
            if rb.full:
                return


ScanFn = Callable[[MonoidalStructure, ReportBuilder], None]


def check_monoidal_laws(ms: MonoidalStructure, cap: int, scan_tensor: ScanFn,
                        scan_coherence: ScanFn) -> Report:
    """The driver of both check_monoidal references, on a structure with
    explicit coherence tables: check_monoidal's gates with its tensor and
    coherence scans passed in, and its component loop over every triple,
    with no associativity test before it."""
    rb = ReportBuilder("monoidal", cap)
    _check_tables(ms)
    base_laws = check_category(ms.base, cap)
    rb.merge("base-", base_laws)
    if not base_laws.ok:
        return rb.report()
    scan_tensor(ms, rb)
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    # the base passed check_category, so no inverse entry is the -1 of a
    # scan that raises
    src, tgt, inv, t_obj = base.source, base.target, base.inverse_table, ms.tensor_objects
    stop = rb.full  # a builder full on entry stops after the first instance
    for k, a in enumerate(ms.associator):
        x, y, z = k // n // n, k // n % n, k % n
        s, t = t_obj[t_obj[x * n + y] * n + z], t_obj[x * n + t_obj[y * n + z]]
        if not (0 <= a < m and src[a] == s and tgt[a] == t):
            rb.add("associator-component", (x, y, z), _component_ok(base, a, s, t))
        elif inv[a] is None:
            rb.add("associator-iso", (x, y, z), "component is not invertible")
        elif not stop:
            continue
        if rb.full:
            return rb.report()
    unit = ms.unit
    for x in range(n):
        for law, cell, s in (("left-unitor", ms.unitor(x, True), t_obj[unit * n + x]),
                             ("right-unitor", ms.unitor(x, False), t_obj[x * n + unit])):
            if not (0 <= cell < m and src[cell] == s and tgt[cell] == x):
                rb.add(law + "-component", (x,), _component_ok(base, cell, s, x))
            elif inv[cell] is None:
                rb.add(law + "-iso", (x,), "component is not invertible")
        if rb.full:
            return rb.report()

    # ill-typed components or tensor entries make the law scans meaningless,
    # and their paths need not compose
    if any(v.law.endswith("-component") or v.law == "tensor-functor-endpoints"
           for v in rb.report().violations):
        return rb.report()

    scan_coherence(ms, rb)
    return rb.report()


def every_coherence_instance(ms: MonoidalStructure, rb: ReportBuilder) -> None:
    """The library's associator and unitor naturality, pentagon and
    triangle scans with every hom-set counted as holding two morphisms, so
    that no instance is skipped."""
    sizes = [2] * ms.base.num_objects ** 2
    for scan in (_scan_associator_naturality, _scan_unitor_naturality,
                 _scan_pentagon, _scan_triangle):
        scan(ms, rb, sizes)
        if rb.full:
            return


def reference_check_monoidal(ms: MonoidalStructure,
                             cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """check_monoidal's reference, compared with ==: ms with explicit
    coherence tables, every associator component, the library's bifunctor
    scan and every coherence instance composed."""
    _check_tables(ms)
    return check_monoidal_laws(explicit_tables(ms), cap, _scan_tensor_bifunctor,
                               every_coherence_instance)


def exhaustive_check_monoidal(ms: MonoidalStructure,
                              cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """reference_check_monoidal with check_functor on the materialised
    product and naturality over all m³ triples, whose tensor and
    associator-naturality witnesses are a superset of the library's."""
    _check_tables(ms)
    return check_monoidal_laws(explicit_tables(ms), cap, exhaustive_tensor_scan,
                               exhaustive_coherence)


def exhaustive_check_mon_functor(mf: MonFunctor,
                                 cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """check_mon_functor composing every mult-associativity instance, as it
    did before it skipped the scan on strict monoidal functors between
    strict structures."""
    rb = ReportBuilder("mon_functor", cap)
    src, tgt = mf.source, mf.target
    if mf.underlying.source != src.base or mf.underlying.target != tgt.base:
        raise StructureError("underlying functor does not match the monoidal structures")
    n = src.base.num_objects
    if len(mf.mult) != n * n:
        raise StructureError("multiplicativity table has the wrong length")
    rb.merge("underlying-", check_functor(mf.underlying, cap))
    base = tgt.base

    bad = _component_ok(base, mf.unit_iso, tgt.unit, mf.on_obj(src.unit))
    if bad:
        rb.add("unit-cell", (), bad)
    elif not base.is_iso(mf.unit_iso):
        rb.add("unit-cell-iso", (), "unit cell is not invertible")

    comp, ident = base.comp, base.identity
    nt, mt = base.num_objects, base.num_morphisms
    m_src = src.base.num_morphisms
    s_src, s_tgt = src.base.source, src.base.target
    obj_map, mor_map = mf.underlying.object_map, mf.underlying.morphism_map
    mult = mf.mult
    s_obj, s_mor, s_assoc = src.tensor_objects, src.tensor_morphisms, src.associator
    t_obj, t_mor, t_assoc = tgt.tensor_objects, tgt.tensor_morphisms, tgt.associator
    t_src, t_tgt, inv = base.source, base.target, base.inverse_table
    stop = rb.full  # a builder full on entry stops after the first instance
    for x in range(n):
        fx = obj_map[x] * nt
        for y in range(n):
            g = mult[x * n + y]
            s, t = t_obj[fx + obj_map[y]], obj_map[s_obj[x * n + y]]
            if not (0 <= g < mt and t_src[g] == s and t_tgt[g] == t):
                rb.add("mult-cell", (x, y), _component_ok(base, g, s, t))
            elif inv[g] is None:
                rb.add("mult-cell-iso", (x, y), "component is not invertible")
            elif inv[g] == -1:
                base.inverse(g)  # the base is malformed and the scan raises
            elif not stop:
                continue
            if rb.full:
                return rb.report()
    if any(v.law in ("mult-cell", "unit-cell") for v in rb.report().violations):
        return rb.report()
    # naturality of gamma in both arguments
    for p in range(m_src):
        x0, x1 = s_src[p] * n, s_tgt[p] * n
        fp = mor_map[p] * mt
        for q in range(m_src):
            lhs = comp[mult[x1 + s_tgt[q]]][t_mor[fp + mor_map[q]]]
            rhs = comp[mor_map[s_mor[p * m_src + q]]][mult[x0 + s_src[q]]]
            if lhs != rhs or lhs == -1:
                rb.add("mult-naturality", (p, q), f"paths {lhs} vs {rhs}")
                if rb.full:
                    return rb.report()
    # a composite of -1 goes back through compose_path, which raises; a
    # strict end's associator component is read off its tensor as the
    # identity of (x⊗y)⊗z
    s_ident = src.base.identity
    for x in range(n):
        fx = obj_map[x]
        for y in range(n):
            xy = s_obj[x * n + y]
            fxy = fx * nt + obj_map[y]
            fx_fy = t_obj[fxy] * nt
            g_xy = mult[x * n + y] * mt
            for z in range(n):
                f3 = mor_map[s_ident[s_obj[xy * n + z]] if s_assoc is None
                             else s_assoc[(x * n + y) * n + z]]
                f2 = mult[xy * n + z]
                f1 = t_mor[g_xy + ident[obj_map[z]]]
                f32 = comp[f3][f2]
                lhs = comp[f32][f1] if f32 >= 0 else -1
                if lhs < 0:
                    lhs = base.compose_path(f3, f2, f1)
                g3 = mult[x * n + s_obj[y * n + z]]
                g2 = t_mor[ident[fx] * mt + mult[y * n + z]]
                g1 = ident[t_obj[fx_fy + obj_map[z]]] if t_assoc is None \
                    else t_assoc[fxy * nt + obj_map[z]]
                g32 = comp[g3][g2]
                rhs = comp[g32][g1] if g32 >= 0 else -1
                if rhs < 0:
                    rhs = base.compose_path(g3, g2, g1)
                if lhs != rhs:
                    rb.add("mult-associativity", (x, y, z), f"paths {lhs} vs {rhs}")
                    if rb.full:
                        return rb.report()
    for x in range(n):
        fx = mf.on_obj(x)
        lhs = base.compose_path(
            mf.on_mor(src.unitor(x, True)),
            mf.gamma(src.unit, x),
            tgt.tensor_mor(mf.unit_iso, base.identity[fx]))
        if lhs != tgt.unitor(fx, True):
            rb.add("left-unit-coherence", (x,), f"path {lhs} vs {tgt.unitor(fx, True)}")
        lhs = base.compose_path(
            mf.on_mor(src.unitor(x, False)),
            mf.gamma(x, src.unit),
            tgt.tensor_mor(base.identity[fx], mf.unit_iso))
        if lhs != tgt.unitor(fx, False):
            rb.add("right-unit-coherence", (x,), f"path {lhs} vs {tgt.unitor(fx, False)}")
        if rb.full:
            return rb.report()
    return rb.report()

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
    for on_left in (True, False):
        expected = tuple(apex_ms.unitor(x, on_left) for x in range(n))
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
# monoidal structures over a product through per-entry callbacks
# ---------------------------------------------------------------------------

def reference_monoidal_over_product(base: FinCategory,
                                    factors: tuple[MonoidalStructure, ...],
                                    arrows, index: dict, unit: int, on_objects,
                                    what: str, budget: Budget | None = None,
                                    ) -> MonoidalStructure:
    """monoidal_over_product through tabulate_monoidal's per-entry callbacks,
    with every lookup run: each k0⊗k1 on its own, and every associator and
    unitor component even over strict factors, as the center sites did
    before the builder."""
    over = [[ms.base.source[a] for ms, a in zip(factors, arrows[i])]
            for i in base.identity]
    noun = "pair" if len(factors) == 2 else "component"

    def lift(message: str, s: int, t: int, parts: list[int]) -> int:
        h = index.get((s, t, *parts))
        if h is None:
            raise StructureError(message)
        return h

    return tabulate_monoidal(
        base, unit, on_objects,
        lambda k0, k1, s, t: lift(f"{what} tensor of morphisms left the apex", s, t, [
            ms.tensor_mor(a, b) for ms, a, b in zip(factors, arrows[k0], arrows[k1])]),
        associator=lambda x, y, z, s, t: lift(
            f"associator {noun} is not an apex morphism", s, t, [
                ms.alpha(a, b, c) for ms, a, b, c in zip(factors, over[x], over[y], over[z])]),
        left_unitor=lambda x, s: lift(f"left unitor {noun} is not an apex morphism", s, x, [
            ms.unitor(a, True) for ms, a in zip(factors, over[x])]),
        right_unitor=lambda x, s: lift(f"right unitor {noun} is not an apex morphism", s, x, [
            ms.unitor(a, False) for ms, a in zip(factors, over[x])]),
        budget=budget)


def callback_monoidal_fiber_product(f: MonFunctor, g: MonFunctor,
                                    budget: Budget = DEFAULT_BUDGET,
                                    braidings: tuple[Braiding, Braiding] | None = None,
                                    ) -> MonoidalSquare:
    """monoidal_fiber_product with the associator and unitor lookups run
    over strict feet too (reference_monoidal_over_product), as it did before
    it read a strict apex off its tensor."""
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

    eta_f_inv = zb.inverse(f.unit_iso)
    if eta_f_inv is None:
        raise StructureError("unit cell of the first leg is not invertible")
    unit_key = (xs.unit, ys.unit, zb.compose(g.unit_iso, eta_f_inv))
    if unit_key not in oi:
        raise StructureError("monoidal fiber unit is missing")
    apex_ms = reference_monoidal_over_product(apex_cat, (xs, ys), fp.morphisms, mi,
                                              oi[unit_key], tensor_obj, "monoidal fiber",
                                              budget)
    pr1 = strict_mon_functor(apex_ms, xs, fp.pr1)
    pr2 = strict_mon_functor(apex_ms, ys, fp.pr2)
    braiding = None
    if braidings is not None:
        bx, by = braidings
        if bx.on != xs or by.on != ys:
            raise StructureError("braidings do not match the cospan feet")
        beta = []
        for i in range(n):
            for j in range(n):
                key = (apex_ms.tensor_obj(i, j), apex_ms.tensor_obj(j, i),
                       bx.at(fp.objects[i][0], fp.objects[j][0]),
                       by.at(fp.objects[i][1], fp.objects[j][1]))
                if key not in mi:
                    raise StructureError("braiding pair is not an apex morphism")
                beta.append(mi[key])
        braiding = Braiding(apex_ms, tuple(beta))
    return MonoidalSquare(fp, apex_ms, pr1, pr2, braiding)


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
        u_obj.append(guarded_image(lax_gf_h, (guarded_image(lax_fg, (x, y, w1)), z, w2)))
        v_obj.append(guarded_image(lax_f_hg, (x, guarded_image(lax_gh, (y, z, w2)), w1)))
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


# ---------------------------------------------------------------------------
# the routes before the gate: inline hypothesis checks and re-checks of
# what the span theorem implies
# ---------------------------------------------------------------------------

def reference_module_functor(dom: ModuleData, cod: ModuleData, f: Functor,
                             xi: list[NatTrans] | None = None) -> ModuleFunctorData:
    """module_functor with its own transport loop, before the gate."""
    if f.source != dom.carrier or f.target != cod.carrier:
        raise StructureError("functor does not match the module carriers")
    bad = check_functor(f, cap=1)
    if not bad.ok:
        raise StructureError("f is not a functor: " + bad.violations[0].render())
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


def guarded_action_lift(fd: ModuleFunctorData, cell: SpanCell) -> MonFunctor:
    """The action lift of build_span's cell, each transport looked up with
    the guard build_span ran after tabulating the apex."""
    dom, cod, fp, hom_fc = fd.dom, fd.cod, cell.fp, cell.hom_fc
    oi = fp.object_index
    acting = dom.acting
    lift_obj = []
    for c in range(acting.base.num_objects):
        p, q, t = dom.action.on_obj(c), cod.action.on_obj(c), fd.xi[c]
        s, u = fp.left.object_map[p], fp.right.object_map[q]
        key = (p, q, hom_fc.transformation_index.get((s, u, t.components)))
        if (t.source, t.target) != (hom_fc.functors[s], hom_fc.functors[u]) \
                or key not in oi:
            raise StructureError(f"transport at acting object {c} is not an apex object")
        lift_obj.append(oi[key])
    return lift_mon_functor(acting, cell.apex, fp.morphism_index, lift_obj,
                            (dom.action, cod.action), "action lift")


def check_comparison_preserves_tensors(lax: LaxatorResult) -> None:
    """The n² loop _laxator ran on every comparison."""
    pairing, span_gf = lax.pairing, lax.span_composite
    phi = lax.comparison.underlying.object_map
    napex = pairing.apex.base.num_objects
    for i in range(napex):
        for j in range(napex):
            if phi[pairing.apex.tensor_obj(i, j)] != \
                    span_gf.apex.tensor_obj(phi[i], phi[j]):
                raise StructureError("comparison does not preserve tensors")


def _checked_laxator(*args) -> LaxatorResult:
    lax = _laxator(*args)
    check_comparison_preserves_tensors(lax)
    return lax


def guarded_image(lax: LaxatorResult, key: tuple[int, int, int]) -> int:
    """laxators._image with its miss branch."""
    found = lax.pairing.fp.object_index.get(key)
    if found is None:
        raise StructureError("induced map left the fiber product")
    return lax.comparison.underlying.object_map[found]


def reference_laxator(fd: ModuleFunctorData, gd: ModuleFunctorData,
                      budget: Budget) -> LaxatorResult:
    """laxator with its composability pre-check and the tensor loop."""
    if fd.cod != gd.dom:
        raise StructureError("module functors are not composable")
    span_f, span_g = build_span(fd, budget), build_span(gd, budget)
    composite = compose_module_functors(gd, fd)
    return _checked_laxator(fd, gd, composite, span_f, span_g,
                            build_span(composite, budget), budget)


def reference_laxator_coherence(fd: ModuleFunctorData, gd: ModuleFunctorData,
                                hd: ModuleFunctorData,
                                budget: Budget) -> LaxatorCoherenceResult:
    """laxator_coherence with both triple composites, the fallback span of
    the second, their apex comparison, guarded images and the tensor loop
    on all four comparisons."""
    lax_fg = reference_laxator(fd, gd, budget)
    if gd.cod != hd.dom:
        raise StructureError("module functors are not composable")
    span_h = build_span(hd, budget)
    hg = compose_module_functors(hd, gd)
    lax_gh = _checked_laxator(gd, hd, hg, lax_fg.span_right, span_h,
                              build_span(hg, budget), budget)
    gf_h = compose_module_functors(hd, lax_fg.composite)
    span_hgf = build_span(gf_h, budget)
    lax_gf_h = _checked_laxator(lax_fg.composite, hd, gf_h, lax_fg.span_composite,
                                span_h, span_hgf, budget)
    f_hg = compose_module_functors(hg, fd)
    lax_f_hg = _checked_laxator(fd, hg, f_hg, lax_fg.span_left, lax_gh.span_composite,
                                span_hgf if f_hg == gf_h else build_span(f_hg, budget),
                                budget)
    if span_hgf.apex != lax_f_hg.span_composite.apex:
        raise StructureError("the two triple composites have different spans")

    right_edge = compose_mon_functors(lax_gh.span_left.leg_left,
                                      lax_gh.pairing.pr1)
    t_right = monoidal_fiber_product(lax_fg.span_left.leg_right, right_edge,
                                     budget)
    u_obj, v_obj = [], []
    for x, j, w1 in t_right.fp.objects:
        y, z, w2 = lax_gh.pairing.fp.objects[j]
        u_obj.append(guarded_image(lax_gf_h, (guarded_image(lax_fg, (x, y, w1)), z, w2)))
        v_obj.append(guarded_image(lax_f_hg, (x, guarded_image(lax_gh, (y, z, w2)), w1)))
    outer_p = compose_functors(lax_fg.span_left.leg_left.underlying, t_right.fp.pr1)
    outer_r = compose_functors(span_h.leg_right.underlying,
                               compose_functors(lax_gh.pairing.fp.pr2, t_right.fp.pr2))
    arrows = list(zip(outer_p.morphism_map, outer_r.morphism_map))
    u, _ = (lift_functor(t_right.fp.apex, span_hgf.fp.apex, span_hgf.fp.morphism_index,
                         obj_map, arrows, "triple collapse")
            for obj_map in (u_obj, v_obj))
    differ = next((a for a, (x, y) in enumerate(zip(u_obj, v_obj)) if x != y), None)
    if differ is not None:
        raise MediationError("triple collapses differ on objects", (differ,))
    cell = identity_mon_nattrans(strict_mon_functor(t_right.apex, span_hgf.apex, u))
    return LaxatorCoherenceResult(lax_fg, lax_gh, lax_gf_h, lax_f_hg,
                                  cell, True, Report("laxator_coherence"))


def reference_quadruple_pasting_check(fd: ModuleFunctorData, gd: ModuleFunctorData,
                                      hd: ModuleFunctorData, kd: ModuleFunctorData,
                                      budget: Budget) -> Report:
    """quadruple_pasting_check with the composite-associativity branch:
    the spans of k(hgf) and (khg)f compared before any chain is collapsed."""
    for d in (fd, gd, hd, kd):
        build_span(d, budget)
    gf, hg = compose_module_functors(gd, fd), compose_module_functors(hd, gd)
    hgf, khg = compose_module_functors(hd, gf), compose_module_functors(kd, hg)
    total, other = compose_module_functors(kd, hgf), compose_module_functors(khg, fd)
    if other != total and build_span(total, budget).apex \
            != build_span(other, budget).apex:
        rb = ReportBuilder("quadruple_pasting")
        rb.add("composite-associativity", (), "the two total spans differ")
        return rb.report()
    return quadruple_pasting_check(fd, gd, hd, kd, budget)


@dataclass(frozen=True)
class IntertwinerActions:
    """An intertwiner of g and h with Z₁(h) acting on the left and Z₁(g) on
    the right, each action a functor on a product category."""

    g: MonFunctor
    h: MonFunctor
    intertwiner: CenterCategory
    left_center: CenterCategory
    right_center: CenterCategory
    left_action: Functor
    right_action: Functor


def intertwiner_actions(g: MonFunctor, h: MonFunctor, intertwiner: CenterCategory,
                        budget: Budget = DEFAULT_BUDGET) -> IntertwinerActions:
    """The two actions on monoidal_intertwiner(g, h): each tensors a pair
    and pastes the two half-braidings, lifted along the ambient tensor."""
    ms = g.target
    z1g, z1h = monoidal_centralizer(g, budget), monoidal_centralizer(h, budget)

    def action(left: CenterCategory, right: CenterCategory,
               k: MonFunctor) -> Functor:
        """Tensor on left × right, k the functor the two factors meet at."""
        square = product_category(left.as_category, right.as_category, budget)
        # product object and morphism ids are row-major pairs
        obj_map = []
        for v in left.objects_data:
            for w in right.objects_data:
                key = (ms.tensor_obj(v.carrier, w.carrier),
                       _pasted_half_braiding(ms, g, k, h, v, w))
                if key not in intertwiner.object_index:
                    raise StructureError("action left the intertwiner")
                obj_map.append(intertwiner.object_index[key])
        arrows = ((ms.tensor_mor(a, b),) for a in left.forgetful.morphism_map
                  for b in right.forgetful.morphism_map)
        return lift_functor(square.category, intertwiner.as_category,
                            intertwiner.morphism_index, obj_map, arrows,
                            "intertwiner action")

    return IntertwinerActions(g, h, intertwiner, z1h, z1g,
                              action(z1h, intertwiner, h),
                              action(intertwiner, z1g, g))


def check_intertwiner_actions(result: IntertwinerActions,
                              cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Associativity and unitality of the two actions, up to the ambient
    associator and unitors realized as intertwiner morphisms."""
    rb = ReportBuilder("intertwiner_actions", cap)
    ms, mor_index = result.g.target, result.intertwiner.morphism_index
    left, right = result.left_center, result.right_center
    vs, xs, ws = ([o.carrier for o in data] for data in (
        left.objects_data, result.intertwiner.objects_data, right.objects_data))
    # the action functors' object maps, on row-major pair ids
    left_map, right_map = result.left_action.object_map, result.right_action.object_map

    def left_act(j: int, i: int) -> int:
        return left_map[j * len(xs) + i]

    def right_act(i: int, j: int) -> int:
        return right_map[i * len(ws) + j]

    for i, x in enumerate(xs):
        for j, k in product(range(len(ws)), repeat=2):
            src = right_act(right_act(i, j), k)
            tgt = right_act(i, right.monoidal.tensor_obj(j, k))
            if (src, tgt, ms.alpha(x, ws[j], ws[k])) not in mor_index:
                rb.add("right-action-associativity", (i, j, k),
                       "associator is not an intertwiner morphism")
            if rb.full:
                return rb.report()
        if (right_act(i, right.monoidal.unit), i, ms.unitor(x, False)) not in mor_index:
            rb.add("right-action-unit", (i,),
                   "right unitor is not an intertwiner morphism")
    for i, x in enumerate(xs):
        for j, k in product(range(len(vs)), repeat=2):
            src = left_act(left.monoidal.tensor_obj(j, k), i)
            tgt = left_act(j, left_act(k, i))
            if (src, tgt, ms.alpha(vs[j], vs[k], x)) not in mor_index:
                rb.add("left-action-associativity", (j, k, i),
                       "associator is not an intertwiner morphism")
            if rb.full:
                return rb.report()
        if (left_act(left.monoidal.unit, i), i, ms.unitor(x, True)) not in mor_index:
            rb.add("left-action-unit", (i,),
                   "left unitor is not an intertwiner morphism")
    # the two actions commute up to the ambient associator
    for j, i, k in product(range(len(vs)), range(len(xs)), range(len(ws))):
        src = right_act(left_act(j, i), k)
        tgt = left_act(j, right_act(i, k))
        if (src, tgt, ms.alpha(vs[j], xs[i], ws[k])) not in mor_index:
            rb.add("action-compatibility", (j, i, k),
                   "associator does not interchange the actions")
        if rb.full:
            return rb.report()
    return rb.report()


def _checked_induced(rb: ReportBuilder, base, left: MonFunctor, right: MonFunctor,
                     fiber: MonoidalSquare, psi_ids, cap: int) -> MonFunctor | None:
    induced = _induced_into_fiber(rb, base.on, left, right, fiber, psi_ids)
    if induced is not None:
        rb.merge("induced-", check_mon_functor(induced, cap))
        rb.merge("induced-braided-",
                 check_braided_functor(induced, base, fiber.braiding, cap))
    return induced


def _checked_monoidal_body(setup: CentralFunctorSetup, budget: Budget,
                           cap: int) -> CentralCheckResult:
    rb = ReportBuilder("central_module_check", cap)
    left, right = setup.left, setup.right
    z1g = monoidal_centralizer(setup.g, budget)
    mi = z1g.morphism_index
    g_push = _push_center(setup.g, left.center, z1g)
    g_pull = _pull_center(setup.g, right.center, z1g)
    for name, mf in (("push", g_push), ("pull", g_pull)):
        rb.merge(name + "-", check_mon_functor(mf, cap))
    fiber = monoidal_fiber_product(g_push, g_pull, budget,
                                   braidings=(left.center.braiding,
                                              right.center.braiding))
    rb.merge("fiber-braiding-", check_braiding(fiber.braiding, cap))
    psi_ids = []
    for x in range(left.base.on.base.num_objects):
        m_half = left.center.objects_data[left.action.on_obj(x)]
        n_half = right.center.objects_data[right.action.on_obj(x)]
        rb.merge("compatibility-", check_hpt_conditions(HptSetup(
            setup.g, m_half, n_half, setup.psi_g[x],
            setup.h, None if setup.psi_h is None else setup.psi_h[x],
            setup.phi), cap), (x,))
        psi_ids.append(mi.get((g_push.on_obj(left.action.on_obj(x)),
                               g_pull.on_obj(right.action.on_obj(x)),
                               setup.psi_g[x])))
    induced = _checked_induced(rb, left.base, left.action, right.action, fiber,
                               psi_ids, cap)
    phi_fiber = None
    if setup.phi is not None:
        phi_fiber = _phi_quadruples_z1(rb, setup, budget)
    return CentralCheckResult(rb.report(), fiber, induced, phi_fiber)


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


def _checked_braided_body(setup: CentralFunctorSetup, budget: Budget,
                          cap: int) -> CentralCheckResult:
    rb = ReportBuilder("central_braided_check", cap)
    left, right = setup.left, setup.right
    rb.merge("candidate-",
             check_braided_functor(setup.g, left.carrier, right.carrier, cap))
    z2g = braided_centralizer(setup.g, left.carrier, right.carrier)
    mi = z2g.morphism_index
    g_push = _subcat_functor(setup.g, left.center, z2g, apply_g=True)
    g_pull = _subcat_functor(setup.g, right.center, z2g, apply_g=False)
    fiber = monoidal_fiber_product(g_push, g_pull, budget,
                                   braidings=(left.center.braiding,
                                              right.center.braiding))
    rb.merge("fiber-braiding-", check_braiding(fiber.braiding, cap))
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
                               psi_ids, cap)
    phi_fiber = common = matches = None
    if setup.phi is not None:
        rb.merge("candidate-h-",
                 check_braided_functor(setup.h, left.carrier, right.carrier, cap))
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


def checked_central_module_check(setup: CentralFunctorSetup,
                                 budget: Budget = DEFAULT_BUDGET,
                                 cap: int = DEFAULT_VIOLATION_CAP
                                 ) -> CentralCheckResult:
    """central_module_check that law-checks what it builds from the
    candidate, and over a braided base not the candidates themselves: push
    and pull, the fiber braiding and the induced functor over a braided
    base; the fiber braiding, its symmetry and the induced functor over a
    symmetric base.  Its sub-checks run at the caller's cap, as the
    library's do, so that the two differ only in what they check."""
    kinds = {type(m.carrier) for m in (setup.left, setup.right)}
    if kinds not in ({MonoidalStructure}, {Braiding}):
        raise StructureError("central modules must both have MonoidalStructure "
                             "or both have Braiding carriers")
    braided = kinds == {Braiding}
    _check_shape(setup, braided)
    body = _checked_braided_body if braided else _checked_monoidal_body
    return body(setup, budget, cap)


# ---------------------------------------------------------------------------
# associativity on objects over every triple, before Light's test
# ---------------------------------------------------------------------------

def scanned_first_nonassociative(rows: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The first (i, j, k) in lexicographic order with (i⊗j)⊗k ≠ i⊗(j⊗k)
    for the tensor with x⊗y at rows[x][y], or None."""
    return next(((i, j, k) for i, i_row in enumerate(rows) for j, ij in enumerate(i_row)
                 for k, ijk in enumerate(rows[ij]) if ijk != i_row[rows[j][k]]), None)


def scanned_validate_group(table: GroupTable) -> None:
    """Check closure, identity at 0, inverses, and associativity exhaustively."""
    n = table.order
    for a in range(n):
        if len(table.mult[a]) != n:
            raise GroupError(f"row {a} has length {len(table.mult[a])}, expected {n}")
        for b in range(n):
            if not 0 <= table.mult[a][b] < n:
                raise GroupError(f"product of {a} and {b} is out of range")
    for a in range(n):
        if table.mult[0][a] != a or table.mult[a][0] != a:
            raise GroupError(f"index 0 is not an identity against {a}")
    for a in range(n):
        if all(table.mult[a][b] != 0 for b in range(n)):
            raise GroupError(f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table.mult[table.mult[a][b]][c] != table.mult[a][table.mult[b][c]]:
                    raise GroupError(f"associativity fails at ({a}, {b}, {c})")


# ---------------------------------------------------------------------------
# check_braiding with its own component loop, before _scan_cells
# ---------------------------------------------------------------------------

def reference_check_braiding(b: Braiding, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Invertibility, naturality, and both hexagon identities."""
    rb = ReportBuilder("braiding", cap)
    ms = b.on
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    _check_braiding_length(b)

    src, tgt, inv = base.source, base.target, base.inverse_table
    t_obj, beta = ms.tensor_objects, b.beta
    stop = rb.full  # a builder full on entry stops after the first instance
    for x in range(n):
        for y in range(n):
            c = beta[x * n + y]
            s, t = t_obj[x * n + y], t_obj[y * n + x]
            if not (0 <= c < m and src[c] == s and tgt[c] == t):
                rb.add("braiding-component", (x, y), _component_ok(base, c, s, t))
            elif inv[c] is None:
                rb.add("braiding-iso", (x, y), "component is not invertible")
            elif inv[c] == -1:
                base.inverse(c)  # the base is malformed and the scan raises
            elif not stop:
                continue
            if rb.full:
                return rb.report()
    if not all(0 <= c < m for c in beta):
        return rb.report()
    comp, t_mor = base.comp, ms.tensor_morphisms
    for p in range(m):
        x0, x1 = src[p] * n, tgt[p] * n
        for q in range(m):
            lhs = comp[beta[x1 + tgt[q]]][t_mor[p * m + q]]
            rhs = comp[t_mor[q * m + p]][beta[x0 + src[q]]]
            if lhs != rhs or lhs == -1:
                rb.add("braiding-naturality", (p, q), f"paths {lhs} vs {rhs}")
                if rb.full:
                    return rb.report()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                try:
                    lhs = base.compose_path(
                        ms.alpha(y, z, x),
                        b.at(x, ms.tensor_obj(y, z)),
                        ms.alpha(x, y, z))
                    rhs = base.compose_path(
                        ms.tensor_mor(base.identity[y], b.at(x, z)),
                        ms.alpha(y, x, z),
                        ms.tensor_mor(b.at(x, y), base.identity[z]))
                except StructureError:
                    rb.add("hexagon-forward", (x, y, z), "paths do not compose")
                    continue
                if lhs != rhs:
                    rb.add("hexagon-forward", (x, y, z), f"paths {lhs} vs {rhs}")
                try:
                    lhs = base.compose_path(
                        ms.alpha_inv(z, x, y),
                        b.at(ms.tensor_obj(x, y), z),
                        ms.alpha_inv(x, y, z))
                    rhs = base.compose_path(
                        ms.tensor_mor(b.at(x, z), base.identity[y]),
                        ms.alpha_inv(x, z, y),
                        ms.tensor_mor(base.identity[x], b.at(y, z)))
                except StructureError:
                    rb.add("hexagon-reverse", (x, y, z), "paths do not compose")
                    continue
                if lhs != rhs:
                    rb.add("hexagon-reverse", (x, y, z), f"paths {lhs} vs {rhs}")
                if rb.full:
                    return rb.report()
    return rb.report()
