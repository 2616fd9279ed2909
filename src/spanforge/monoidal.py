"""Monoidal, braided, and symmetric structures on finite categories.

Structure data is stored as full component tables (associators, unitors,
braidings, multiplicativity cells), never as formulas or strictness flags;
the checkers scan every instance of every coherence law and report witnesses.
The tensor is two flat tables, n² object pairs and m² morphism pairs, not a
functor on base × base, whose composition table would have m⁴ entries.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

from .fincat import (
    Budget,
    FinCategory,
    Functor,
    MediationError,
    NatTrans,
    StructureError,
    check_category,
    check_functor,
    check_nat_trans,
    compose_functors,
    full_subcategory,
    identity_functor,
    identity_nat_trans,
    lift_functor,
)
from .groups import GroupTable, validate_group
from .reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder


@dataclass(frozen=True)
class MonoidalStructure:
    """Tensor tables, unit object, and associator/unitor component tables.

    For a base with n objects and m morphisms, ``tensor_objects[x*n + y]``
    is x⊗y and ``tensor_morphisms[f*m + g]`` is f⊗g; only this module reads
    that layout, and constructors fill it through tabulate_monoidal.
    ``associator[(x*n + y)*n + z]`` is the component (x⊗y)⊗z -> x⊗(y⊗z);
    unitor tables are indexed by object id.
    """

    base: FinCategory
    tensor_objects: tuple[int, ...]
    tensor_morphisms: tuple[int, ...]
    unit: int
    associator: tuple[int, ...]
    left_unitor: tuple[int, ...]
    right_unitor: tuple[int, ...]

    def tensor_obj(self, x: int, y: int) -> int:
        return self.tensor_objects[x * self.base.num_objects + y]

    def tensor_mor(self, f: int, g: int) -> int:
        return self.tensor_morphisms[f * self.base.num_morphisms + g]

    def tensor_rows(self) -> list[tuple[int, ...]]:
        """x⊗y at [x][y], for loops outside this module that read many."""
        n = self.base.num_objects
        return [self.tensor_objects[x * n:(x + 1) * n] for x in range(n)]

    def alpha(self, x: int, y: int, z: int) -> int:
        n = self.base.num_objects
        return self.associator[(x * n + y) * n + z]

    def alpha_inv(self, x: int, y: int, z: int) -> int:
        inv = self.base.inverse(self.alpha(x, y, z))
        if inv is None:
            raise StructureError(f"associator at ({x}, {y}, {z}) is not invertible")
        return inv


def tabulate_monoidal(base: FinCategory, unit: int,
                      on_objects: Callable[[int, int], int],
                      on_morphisms: Callable[[int, int, int, int], int],
                      associator: Callable[[int, int, int, int, int], int] | None = None,
                      left_unitor: Callable[[int, int], int] | None = None,
                      right_unitor: Callable[[int, int], int] | None = None,
                      budget: Budget | None = None) -> MonoidalStructure:
    """A monoidal structure on base whose tables are filled from callbacks.

    on_objects(x, y) is x⊗y; on_morphisms(f, g, s, t) is f⊗g, with s and t
    the tensors of the endpoints of f and g.  associator(x, y, z, s, t) is
    the component s = (x⊗y)⊗z -> t = x⊗(y⊗z); left_unitor(x, s) and
    right_unitor(x, s) map s = I⊗x and s = x⊗I to x.  Coherence callbacks
    left out give identity components (a strict structure).  A budget, when
    given, refuses the n² and m² pairs before any is tabulated.
    """
    n, m = base.num_objects, base.num_morphisms
    if budget is not None:
        budget.check_objects(n * n, "tensor table")
        budget.check_morphisms(m * m, "tensor table")
    objects = tuple(on_objects(x, y) for x in range(n) for y in range(n))
    src, tgt = base.source, base.target
    morphisms = tuple(on_morphisms(f, g, objects[src[f] * n + src[g]],
                                   objects[tgt[f] * n + tgt[g]])
                      for f in range(m) for g in range(m))
    identity = base.identity
    associator = associator or (lambda x, y, z, s, t: identity[s])
    left_unitor = left_unitor or (lambda x, s: identity[x])
    right_unitor = right_unitor or (lambda x, s: identity[x])
    return MonoidalStructure(
        base, objects, morphisms, unit,
        tuple(associator(x, y, z, objects[objects[x * n + y] * n + z],
                         objects[x * n + objects[y * n + z]])
              for x in range(n) for y in range(n) for z in range(n)),
        tuple(left_unitor(x, objects[unit * n + x]) for x in range(n)),
        tuple(right_unitor(x, objects[x * n + unit]) for x in range(n)))


@dataclass(frozen=True)
class Braiding:
    """Braiding components beta[x*n + y]: x⊗y -> y⊗x on a monoidal structure."""

    on: MonoidalStructure
    beta: tuple[int, ...]

    def at(self, x: int, y: int) -> int:
        return self.beta[x * self.on.base.num_objects + y]


@dataclass(frozen=True)
class MonFunctor:
    """A functor with multiplicativity cells F(x)⊗F(y) -> F(x⊗y) and unit cell."""

    source: MonoidalStructure
    target: MonoidalStructure
    underlying: Functor
    mult: tuple[int, ...]
    unit_iso: int

    def on_obj(self, x: int) -> int:
        return self.underlying.object_map[x]

    def on_mor(self, f: int) -> int:
        return self.underlying.morphism_map[f]

    def gamma(self, x: int, y: int) -> int:
        return self.mult[x * self.source.base.num_objects + y]

    def gamma_inv(self, x: int, y: int) -> int:
        inv = self.target.base.inverse(self.gamma(x, y))
        if inv is None:
            raise StructureError(f"multiplicativity cell at ({x}, {y}) is not invertible")
        return inv


@dataclass(frozen=True)
class MonNatTrans:
    source: MonFunctor
    target: MonFunctor
    underlying: NatTrans


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _check_tables(ms: MonoidalStructure) -> None:
    """Reject ill-shaped tables and dangling tensor ids; laws come after."""
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    if len(ms.tensor_objects) != n * n or len(ms.tensor_morphisms) != m * m:
        raise StructureError("tensor table has the wrong length")
    if not 0 <= ms.unit < n:
        raise StructureError(f"unit object {ms.unit} is dangling")
    if len(ms.associator) != n ** 3:
        raise StructureError("associator table has the wrong length")
    if len(ms.left_unitor) != n or len(ms.right_unitor) != n:
        raise StructureError("unitor table has the wrong length")
    for x in ms.tensor_objects:
        if not 0 <= x < n:
            raise StructureError(f"tensor maps an object pair to dangling id {x}")
    for f in ms.tensor_morphisms:
        if not 0 <= f < m:
            raise StructureError(f"tensor maps a morphism pair to dangling id {f}")


def _scan_tensor_bifunctor(ms: MonoidalStructure, rb: ReportBuilder) -> None:
    """Functoriality of the tensor on base × base by the bifunctor criterion
    (CWM §II.3): endpoints and identities on every entry, functoriality in
    each variable separately, and interchange f⊗g = (f⊗1)∘(1⊗g) = (1⊗g)∘(f⊗1),
    varying only non-identity morphisms.  Over a lawful base this is
    equivalent to the composition law at all O(m⁴) composable pairs.  Laws
    and witnesses are check_functor's on the product, pair (f, g) numbered
    f*m + g, so each witness is an instance of the full law.
    """
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    src, tgt, ident, comp = base.source, base.target, base.identity, base.comp
    t_obj, t_mor = ms.tensor_objects, ms.tensor_morphisms
    for k in range(m * m):
        f, g = divmod(k, m)
        img = t_mor[k]
        if src[img] != t_obj[src[f] * n + src[g]] \
                or tgt[img] != t_obj[tgt[f] * n + tgt[g]]:
            rb.add("tensor-functor-endpoints", (k,),
                   f"image {img} has endpoints {src[img]} -> {tgt[img]}")
    for p in range(n * n):
        x, y = divmod(p, n)
        if t_mor[ident[x] * m + ident[y]] != ident[t_obj[p]]:
            rb.add("tensor-functor-identity", (p,), "identity not preserved")
    into: list[list[int]] = [[] for _ in range(n)]
    for f in range(m):
        if ident[src[f]] != f:
            into[tgt[f]].append(f)
    for k2 in range(m * m):
        f2, g2 = divmod(k2, m)
        if (ident[src[f2]] == f2) == (ident[src[g2]] == g2):
            continue
        if ident[src[g2]] == g2:
            # (f2∘f1)⊗1 and the interchange f2⊗g = (f2⊗1)∘(1⊗g)
            firsts = [f1 * m + g2 for f1 in into[src[f2]]] \
                + [ident[src[f2]] * m + g for g in into[src[g2]]]
        else:
            # 1⊗(g2∘g1) and the interchange f⊗g2 = (1⊗g2)∘(f⊗1)
            firsts = [f2 * m + g1 for g1 in into[src[g2]]] \
                + [f * m + ident[src[g2]] for f in into[src[f2]]]
        for k1 in sorted(firsts):
            f1, g1 = divmod(k1, m)
            cf, cg = comp[f2][f1], comp[g2][g1]
            if cf == -1 or cg == -1:
                continue
            got = comp[t_mor[k2]][t_mor[k1]]
            want = t_mor[cf * m + cg]
            if got != want:
                rb.add("tensor-functor-composition", (k2, k1),
                       f"F(g)∘F(f) = {got} but F(g∘f) = {want}")
                if rb.full:
                    return


def _hom_sizes(base: FinCategory) -> list[int]:
    """|hom(x, y)| at x*n + y, in O(n² + m)."""
    n = base.num_objects
    sizes = [0] * (n * n)
    for s, t in zip(base.source, base.target):
        sizes[s * n + t] += 1
    return sizes


def _scan_coherence(ms: MonoidalStructure, rb: ReportBuilder) -> None:
    """Associator and unitor naturality, pentagon and triangle, composing
    only the instances whose two paths lie in a hom-set with two or more
    morphisms.  Over a lawful base with well-typed components and tensor
    entries, which _check_monoidal_laws establishes before it gets here,
    the two paths of every instance are parallel morphisms, and parallel
    morphisms in a hom-set with at most one element are equal (CWM §I.2,
    preorders).  A skipped instance cannot fail, so the violations, their
    order and the cap are those of the full scans.
    """
    sizes = _hom_sizes(ms.base)
    if max(sizes, default=0) <= 1:
        return
    for scan in (_scan_associator_naturality, _scan_unitor_naturality,
                 _scan_pentagon, _scan_triangle):
        scan(ms, rb, sizes)
        if rb.full:
            return


def _scan_associator_naturality(ms: MonoidalStructure, rb: ReportBuilder,
                                sizes: list[int]) -> None:
    """Naturality of the associator one variable at a time (CWM §II.3): for
    a bifunctorial tensor, natural in each variable separately means natural
    jointly, so the 3·m·n² triples with at most one non-identity morphism
    stand for all m³.  The square at (p, q, r) lies in
    hom((s_p⊗s_q)⊗s_r, t_p⊗(t_q⊗t_r)).
    """
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    src, tgt, comp = base.source, base.target, base.comp
    t_obj, t_mor, assoc = ms.tensor_objects, ms.tensor_morphisms, ms.associator
    ids = sorted(base.identity)
    for p in range(m):
        for q in (range(m) if base.is_identity(p) else ids):
            pq = t_mor[p * m + q]
            s_pq = t_obj[src[p] * n + src[q]] * n
            rs = range(m) if base.is_identity(p) and base.is_identity(q) else ids
            for r in rs:
                if sizes[t_obj[s_pq + src[r]] * n + t_obj[
                        tgt[p] * n + t_obj[tgt[q] * n + tgt[r]]]] <= 1:
                    continue
                lhs = comp[assoc[(tgt[p] * n + tgt[q]) * n + tgt[r]]][t_mor[pq * m + r]]
                rhs = comp[t_mor[p * m + t_mor[q * m + r]]][
                    assoc[(src[p] * n + src[q]) * n + src[r]]]
                if lhs != rhs or lhs == -1:
                    rb.add("associator-naturality", (p, q, r),
                           f"paths {lhs} vs {rhs}")
                    if rb.full:
                        return


def _scan_unitor_naturality(ms: MonoidalStructure, rb: ReportBuilder,
                            sizes: list[int]) -> None:
    """Unitor naturality at each p: x -> y, in hom(I⊗x, y) and hom(x⊗I, y)."""
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    comp, t_obj, t_mor = base.comp, ms.tensor_objects, ms.tensor_morphisms
    unit, lam, rho = ms.unit, ms.left_unitor, ms.right_unitor
    id_unit = base.identity[unit]
    for p in range(m):
        x, y = base.source[p], base.target[p]
        if sizes[t_obj[unit * n + x] * n + y] > 1:
            lhs = comp[lam[y]][t_mor[id_unit * m + p]]
            if lhs != comp[p][lam[x]] or lhs == -1:
                rb.add("left-unitor-naturality", (p,), "square does not commute")
        if sizes[t_obj[x * n + unit] * n + y] > 1:
            lhs = comp[rho[y]][t_mor[p * m + id_unit]]
            if lhs != comp[p][rho[x]] or lhs == -1:
                rb.add("right-unitor-naturality", (p,), "square does not commute")
        if rb.full:
            return


def _scan_pentagon(ms: MonoidalStructure, rb: ReportBuilder,
                   sizes: list[int]) -> None:
    """The pentagon at (w, x, y, z), in hom(((w⊗x)⊗y)⊗z, w⊗(x⊗(y⊗z)))."""
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    comp, ident = base.comp, base.identity
    t_obj, t_mor, assoc = ms.tensor_objects, ms.tensor_morphisms, ms.associator
    for w in range(n):
        id_w = ident[w] * m
        for x in range(n):
            wx = t_obj[w * n + x]
            for y in range(n):
                xy = t_obj[x * n + y]
                wx_y = t_obj[wx * n + y] * n
                a_wxy = assoc[(w * n + x) * n + y] * m
                for z in range(n):
                    yz = t_obj[y * n + z]
                    if sizes[t_obj[wx_y + z] * n
                             + t_obj[w * n + t_obj[x * n + yz]]] <= 1:
                        continue
                    f3 = t_mor[id_w + assoc[(x * n + y) * n + z]]
                    f2 = assoc[(w * n + xy) * n + z]
                    f1 = t_mor[a_wxy + ident[z]]
                    f32 = comp[f3][f2]
                    lhs = comp[f32][f1] if f32 >= 0 else -1
                    if lhs < 0:
                        lhs = base.compose_path(f3, f2, f1)
                    rhs = comp[assoc[(w * n + x) * n + yz]][assoc[(wx * n + y) * n + z]]
                    if lhs != rhs:
                        rb.add("pentagon", (w, x, y, z), f"paths {lhs} vs {rhs}")
                        if rb.full:
                            return


def _scan_triangle(ms: MonoidalStructure, rb: ReportBuilder,
                   sizes: list[int]) -> None:
    """The triangle at (x, y), in hom((x⊗I)⊗y, x⊗y)."""
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    comp, ident = base.comp, base.identity
    t_obj, t_mor, assoc = ms.tensor_objects, ms.tensor_morphisms, ms.associator
    unit, lam, rho = ms.unit, ms.left_unitor, ms.right_unitor
    for x in range(n):
        xi = t_obj[x * n + unit] * n
        for y in range(n):
            if sizes[t_obj[xi + y] * n + t_obj[x * n + y]] <= 1:
                continue
            lhs = comp[t_mor[ident[x] * m + lam[y]]][assoc[(x * n + unit) * n + y]]
            rhs = t_mor[rho[x] * m + ident[y]]
            if lhs != rhs:
                rb.add("triangle", (x, y), f"paths {lhs} vs {rhs}")
                if rb.full:
                    return


def _component_ok(base: FinCategory, mor: int, src: int, tgt: int) -> str | None:
    if not 0 <= mor < base.num_morphisms:
        return f"dangling morphism id {mor}"
    if base.source[mor] != src or base.target[mor] != tgt:
        return (f"endpoints {base.source[mor]} -> {base.target[mor]}, "
                f"expected {src} -> {tgt}")
    return None


def check_monoidal(ms: MonoidalStructure, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Category laws of the base, bifunctoriality of the tensor, pentagon,
    triangle, and naturality and invertibility of all components.  The base
    is checked first because the reduced bifunctor and naturality scans are
    exact only over a lawful base, and the coherence scans skip instances in
    hom-sets with at most one morphism only once every component and tensor
    entry is known to be well typed.
    """
    return _check_monoidal_laws(ms, cap, _scan_tensor_bifunctor, _scan_coherence)


ScanFn = Callable[[MonoidalStructure, ReportBuilder], None]


def _check_monoidal_laws(ms: MonoidalStructure, cap: int, scan_tensor: ScanFn,
                         scan_coherence: ScanFn) -> Report:
    """check_monoidal with its tensor and coherence scans passed in, so that
    the exhaustive scans they stand for can be run in their place as a
    reference."""
    rb = ReportBuilder("monoidal", cap)
    _check_tables(ms)
    base_laws = check_category(ms.base, cap)
    rb.merge("base-", base_laws)
    if not base_laws.ok:
        return rb.report()
    scan_tensor(ms, rb)
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    # the base passed validate_structure, so no inverse entry is the -1 of
    # a scan that raises
    src, tgt, inv = base.source, base.target, base.inverse_table
    t_obj, assoc = ms.tensor_objects, ms.associator

    stop = rb.full  # a builder full on entry stops after the first instance
    k = 0
    for x in range(n):
        for y in range(n):
            xy = t_obj[x * n + y] * n
            for z in range(n):
                a = assoc[k]
                k += 1
                s, t = t_obj[xy + z], t_obj[x * n + t_obj[y * n + z]]
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
        for law, cell, s in (("left-unitor", ms.left_unitor[x], t_obj[unit * n + x]),
                             ("right-unitor", ms.right_unitor[x], t_obj[x * n + unit])):
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


def check_braiding(b: Braiding, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Invertibility, naturality, and both hexagon identities."""
    rb = ReportBuilder("braiding", cap)
    ms = b.on
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    if len(b.beta) != n * n:
        raise StructureError("braiding table has the wrong length")

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


def is_symmetric(b: Braiding) -> bool:
    """True iff every double braiding beta_{y,x}∘beta_{x,y} is an identity."""
    ms = b.on
    base = ms.base
    n = base.num_objects
    for x in range(n):
        for y in range(n):
            if base.comp[b.at(y, x)][b.at(x, y)] != base.identity[ms.tensor_obj(x, y)]:
                return False
    return True


def check_mon_functor(mf: MonFunctor, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Functor laws plus associativity and unit coherence of (gamma, eta)."""
    rb = ReportBuilder("mon_functor", cap)
    src, tgt = mf.source, mf.target
    if mf.underlying.source != src.base or mf.underlying.target != tgt.base:
        raise StructureError("underlying functor does not match the monoidal structures")
    n = src.base.num_objects
    if len(mf.mult) != n * n:
        raise StructureError("multiplicativity table has the wrong length")
    rb.merge("underlying-", check_functor(mf.underlying))
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
    # a composite of -1 goes back through compose_path, which raises
    for x in range(n):
        fx = obj_map[x]
        for y in range(n):
            xy = s_obj[x * n + y]
            fxy = fx * nt + obj_map[y]
            g_xy = mult[x * n + y] * mt
            for z in range(n):
                f3 = mor_map[s_assoc[(x * n + y) * n + z]]
                f2 = mult[xy * n + z]
                f1 = t_mor[g_xy + ident[obj_map[z]]]
                f32 = comp[f3][f2]
                lhs = comp[f32][f1] if f32 >= 0 else -1
                if lhs < 0:
                    lhs = base.compose_path(f3, f2, f1)
                g3 = mult[x * n + s_obj[y * n + z]]
                g2 = t_mor[ident[fx] * mt + mult[y * n + z]]
                g1 = t_assoc[fxy * nt + obj_map[z]]
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
            mf.on_mor(src.left_unitor[x]),
            mf.gamma(src.unit, x),
            tgt.tensor_mor(mf.unit_iso, base.identity[fx]))
        if lhs != tgt.left_unitor[fx]:
            rb.add("left-unit-coherence", (x,), f"path {lhs} vs {tgt.left_unitor[fx]}")
        lhs = base.compose_path(
            mf.on_mor(src.right_unitor[x]),
            mf.gamma(x, src.unit),
            tgt.tensor_mor(base.identity[fx], mf.unit_iso))
        if lhs != tgt.right_unitor[fx]:
            rb.add("right-unit-coherence", (x,), f"path {lhs} vs {tgt.right_unitor[fx]}")
        if rb.full:
            return rb.report()
    return rb.report()


def check_mon_nattrans(t: MonNatTrans, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Naturality plus the multiplicativity square and unit condition."""
    rb = ReportBuilder("mon_nattrans", cap)
    f, g = t.source, t.target
    if f.source != g.source or f.target != g.target:
        raise StructureError("monoidal transformation between mismatched functors")
    if t.underlying.source != f.underlying or t.underlying.target != g.underlying:
        raise StructureError("underlying transformation does not match the functors")
    rb.merge("underlying-", check_nat_trans(t.underlying))
    src, tgt = f.source, f.target
    base = tgt.base
    comps = t.underlying.components
    n = src.base.num_objects
    for x in range(n):
        for y in range(n):
            lhs = base.comp[comps[src.tensor_obj(x, y)]][f.gamma(x, y)]
            rhs = base.comp[g.gamma(x, y)][tgt.tensor_mor(comps[x], comps[y])]
            if lhs != rhs or lhs == -1:
                rb.add("mult-square", (x, y), f"paths {lhs} vs {rhs}")
                if rb.full:
                    return rb.report()
    if base.comp[comps[src.unit]][f.unit_iso] != g.unit_iso:
        rb.add("unit-condition", (src.unit,), "triangle at the unit does not commute")
    return rb.report()


def check_braided_functor(mf: MonFunctor, b_src: Braiding, b_tgt: Braiding,
                          cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """check_mon_functor plus compatibility with the braidings."""
    if b_src.on != mf.source or b_tgt.on != mf.target:
        raise StructureError("braidings do not match the functor's structures")
    rb = ReportBuilder("braided_functor", cap)
    rb.merge("", check_mon_functor(mf, cap))
    base = mf.target.base
    n = mf.source.base.num_objects
    for x in range(n):
        for y in range(n):
            lhs = base.comp[mf.on_mor(b_src.at(x, y))][mf.gamma(x, y)]
            rhs = base.comp[mf.gamma(y, x)][b_tgt.at(mf.on_obj(x), mf.on_obj(y))]
            if lhs != rhs or lhs == -1:
                rb.add("braiding-compatibility", (x, y), f"paths {lhs} vs {rhs}")
                if rb.full:
                    return rb.report()
    return rb.report()


# ---------------------------------------------------------------------------
# constructors and composites
# ---------------------------------------------------------------------------

def strict_mon_functor(source: MonoidalStructure, target: MonoidalStructure,
                       underlying: Functor) -> MonFunctor:
    """A functor that preserves tensor and unit on the nose, with identity
    multiplicativity and unit cells."""
    n = source.base.num_objects
    on_obj = underlying.object_map
    mult = tuple(target.base.identity[target.tensor_obj(on_obj[x], on_obj[y])]
                 for x in range(n) for y in range(n))
    return MonFunctor(source, target, underlying, mult,
                      target.base.identity[target.unit])


def lift_mon_functor(source: MonoidalStructure, target: MonoidalStructure,
                     index: dict[tuple[int, ...], int], object_map: Sequence[int],
                     legs: tuple[MonFunctor, ...], what: str) -> MonFunctor:
    """The monoidal functor into a monoidal category over a product that
    lies over the legs, one monoidal functor out of source per factor.

    index and object_map are as for lift_functor.  Each morphism,
    multiplicativity cell and unit cell is the morphism of index that lies
    over the legs' own; a miss raises MediationError naming what, with
    witness (k,) for morphism k, (x, y) for the cell at (x, y) and () for
    the unit cell.
    """
    fun = lift_functor(source.base, target.base, index, object_map,
                       zip(*(leg.underlying.morphism_map for leg in legs)), what)
    obj_map = fun.object_map
    n = source.base.num_objects
    cells = tuple(zip(*(leg.mult for leg in legs)))
    mult = []
    for x in range(n):
        for y in range(n):
            h = index.get((target.tensor_obj(obj_map[x], obj_map[y]),
                           obj_map[source.tensor_obj(x, y)]) + cells[x * n + y])
            if h is None:
                raise MediationError(
                    f"{what}: no morphism lies over the multiplicativity cells "
                    f"at ({x}, {y})", (x, y))
            mult.append(h)
    unit = index.get((target.unit, obj_map[source.unit])
                     + tuple(leg.unit_iso for leg in legs))
    if unit is None:
        raise MediationError(f"{what}: no morphism lies over the unit cells", ())
    return MonFunctor(source, target, fun, tuple(mult), unit)


def tensor_mor_over_product(x: MonoidalStructure, y: MonoidalStructure,
                            arrows: Sequence[tuple[int, int]],
                            index: dict[tuple[int, ...], int],
                            message: str) -> Callable[[int, int, int, int], int]:
    """tabulate_monoidal's on_morphisms for a monoidal category over X × Y,
    with arrows and index as category_over_product returns them: k0⊗k1 is
    the morphism s -> t over the tensors of their arrows in X and in Y; a
    miss raises StructureError(message)."""
    def tensor_mor(k0: int, k1: int, s: int, t: int) -> int:
        h = index.get((s, t, x.tensor_mor(arrows[k0][0], arrows[k1][0]),
                       y.tensor_mor(arrows[k0][1], arrows[k1][1])))
        if h is None:
            raise StructureError(message)
        return h
    return tensor_mor


def identity_mon_functor(ms: MonoidalStructure) -> MonFunctor:
    return strict_mon_functor(ms, ms, identity_functor(ms.base))


def compose_mon_functors(g: MonFunctor, f: MonFunctor) -> MonFunctor:
    """g∘f with pasted cells: gamma = g(gamma^f) ∘ gamma^g, eta = g(eta^f) ∘ eta^g."""
    if f.target != g.source:
        raise StructureError("monoidal functor composition: middle structures differ")
    base = g.target.base
    n = f.source.base.num_objects
    mult = []
    for x in range(n):
        for y in range(n):
            mult.append(base.compose(g.on_mor(f.gamma(x, y)),
                                     g.gamma(f.on_obj(x), f.on_obj(y))))
    unit_iso = base.compose(g.on_mor(f.unit_iso), g.unit_iso)
    return MonFunctor(f.source, g.target,
                      compose_functors(g.underlying, f.underlying),
                      tuple(mult), unit_iso)


def identity_mon_nattrans(f: MonFunctor) -> MonNatTrans:
    return MonNatTrans(f, f, identity_nat_trans(f.underlying))


def make_skeletal_group_category(g: GroupTable, u: GroupTable,
                                 omega) -> MonoidalStructure:
    """Skeletal category: objects the group g, endomorphisms the abelian group u,
    tensor by multiplication, associator with scalar part omega(x, y, z).

    omega is indexed as omega[x][y][z] -> element of u.  Unitors carry the
    scalars omega(e,e,y)⁻¹ and omega(x,e,e), which are identities whenever
    omega is normalized.
    """
    validate_group(g)
    validate_group(u)
    if not u.is_abelian():
        raise StructureError("endomorphism scalars must form an abelian group")
    ng, nu = g.order, u.order

    def mor(obj: int, scalar: int) -> int:
        return obj * nu + scalar

    num_morphisms = ng * nu
    source = tuple(i // nu for i in range(num_morphisms))
    identity = tuple(mor(x, 0) for x in range(ng))
    comp = [[-1] * num_morphisms for _ in range(num_morphisms)]
    for x in range(ng):
        for a in range(nu):
            for b in range(nu):
                comp[mor(x, a)][mor(x, b)] = mor(x, u.mul(a, b))
    base = FinCategory(ng, source, source, identity,
                       tuple(tuple(row) for row in comp))

    def tensor_mor(f1: int, f2: int, s: int, t: int) -> int:
        x1, a1 = divmod(f1, nu)
        x2, a2 = divmod(f2, nu)
        return mor(g.mul(x1, x2), u.mul(a1, a2))

    return tabulate_monoidal(
        base, 0, g.mul, tensor_mor,
        associator=lambda x, y, z, s, t: mor(s, omega[x][y][z]),
        left_unitor=lambda y, s: mor(y, u.inv(omega[0][0][y])),
        right_unitor=lambda x, s: mor(x, omega[x][0][0]))


def trivial_cochain(g: GroupTable) -> tuple:
    n = g.order
    return tuple(tuple((0,) * n for _ in range(n)) for _ in range(n))


def make_discrete_group_category(g: GroupTable) -> MonoidalStructure:
    """Objects the group, identity morphisms only, strict monoidal structure."""
    from .groups import cyclic
    return make_skeletal_group_category(g, cyclic(1), trivial_cochain(g))


def make_bicharacter_braiding(ms: MonoidalStructure, u: GroupTable, c) -> Braiding:
    """Braiding with scalar part c[x][y] on a skeletal group category.

    The carrier group must be abelian so that x⊗y and y⊗x coincide; whether
    the result satisfies the hexagons is check_braiding's business.
    """
    n = ms.base.num_objects
    nu = u.order
    beta = []
    for x in range(n):
        for y in range(n):
            xy = ms.tensor_obj(x, y)
            if xy != ms.tensor_obj(y, x):
                raise StructureError("bicharacter braiding needs an abelian carrier")
            beta.append(xy * nu + c[x][y])
    return Braiding(ms, tuple(beta))


def terminal_monoidal() -> MonoidalStructure:
    from .groups import cyclic
    return make_discrete_group_category(cyclic(1))


def restrict_monoidal(ms: MonoidalStructure,
                      objects: tuple[int, ...]) -> tuple[MonoidalStructure, Functor]:
    """The monoidal structure induced on a tensor-closed full subcategory."""
    if ms.unit not in objects:
        raise StructureError("subcategory does not contain the unit")
    obj_index = {x: i for i, x in enumerate(objects)}
    for x in objects:
        for y in objects:
            if ms.tensor_obj(x, y) not in obj_index:
                raise StructureError(
                    f"subcategory is not closed under tensor at ({x}, {y})")
    sub, inclusion = full_subcategory(ms.base, objects)
    mor_index = {inclusion.morphism_map[i]: i for i in range(sub.num_morphisms)}

    def tensor_mor(f1: int, f2: int, s: int, t: int) -> int:
        img = ms.tensor_mor(inclusion.morphism_map[f1], inclusion.morphism_map[f2])
        if img not in mor_index:
            raise StructureError("subcategory is not closed under tensor of morphisms")
        return mor_index[img]

    restricted = tabulate_monoidal(
        sub, obj_index[ms.unit],
        lambda x, y: obj_index[ms.tensor_obj(objects[x], objects[y])],
        tensor_mor,
        associator=lambda x, y, z, s, t: mor_index[
            ms.alpha(objects[x], objects[y], objects[z])],
        left_unitor=lambda x, s: mor_index[ms.left_unitor[objects[x]]],
        right_unitor=lambda x, s: mor_index[ms.right_unitor[objects[x]]])
    return restricted, inclusion


def restrict_braiding(b: Braiding, restricted: MonoidalStructure,
                      inclusion: Functor) -> Braiding:
    sub = restricted.base
    mor_index = {inclusion.morphism_map[i]: i for i in range(sub.num_morphisms)}
    n = sub.num_objects
    beta = tuple(mor_index[b.at(inclusion.object_map[x], inclusion.object_map[y])]
                 for x in range(n) for y in range(n))
    return Braiding(restricted, beta)
