"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's incremental/backtracking
code paths: full cartesian products filtered by the defining laws, and
direct cochain arithmetic for cocycle and bicharacter conditions.  The
per-call hom and inverse scans are the ones FinCategory's tables replaced,
kept as their reference.  The exhaustive monoidal scans at the end are the
ones check_monoidal replaced with reduced scans, kept as their reference:
they compose every instance, in hom-sets with at most one morphism too.
"""
from __future__ import annotations

from itertools import product

from spanforge.fincat import (
    Budget,
    FinCategory,
    Functor,
    NatTrans,
    check_functor,
    product_category,
)
from spanforge.groups import GroupTable
from spanforge.monoidal import MonoidalStructure, _check_monoidal_laws
from spanforge.reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder


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
