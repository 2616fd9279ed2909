"""Monoidal, braided, and symmetric structures on finite categories.

Structure data is stored as full component tables: associators, unitors,
braidings and multiplicativity cells.  The one exception is a strict
structure, whose associator and unitor components are all identities; it
stores no coherence table.  The tensor is two flat tables, n² object pairs
and m² morphism pairs, not a functor on base × base, whose composition
table would have m⁴ entries.

The checkers scan every instance of every law and report witnesses, with
one scan per rule.  _scan_cells checks that each associator component,
braiding component and multiplicativity cell is a morphism with the
required ends that has an inverse.  _scan_pentagon reads a stored
associator, or a strict structure's identities of (x⊗y)⊗z (CWM §VII.1).
On a strict structure the triangle holds, and the pentagon is scanned only
when the tensor breaks identities.  check_mon_functor skips its
associativity scan on a strict monoidal functor between strict structures,
where every instance compares an identity with itself (CWM §XI.2).
groups._first_nonassociative decides whether a tensor is associative on
objects, by Light's test over a generating set (Clifford-Preston §1.2),
with an n³ scan only for a witness.  Before a checker reads a structure's
tables, _check_tables refuses ill-shaped ones and dangling tensor ids.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
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
from .groups import GroupTable, _first_nonassociative, validate_group
from .reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder


@dataclass(frozen=True)
class MonoidalStructure:
    """Tensor tables, unit object, and associator/unitor component tables.

    For a base with n objects and m morphisms, ``tensor_objects[x*n + y]``
    is x⊗y and ``tensor_morphisms[f*m + g]`` is f⊗g; only this module reads
    that layout, and constructors fill it through tabulate_monoidal.
    ``associator[(x*n + y)*n + z]`` is the component (x⊗y)⊗z -> x⊗(y⊗z);
    unitor tables are indexed by object id.  Outside this module the
    components are read through alpha, alpha_inv and unitor.

    A strict structure stores None for all three coherence tables: every
    associator component is the identity of (x⊗y)⊗z and every unitor
    component the identity of x.  Whether those identities are well typed,
    (x⊗y)⊗z = x⊗(y⊗z) and I⊗x = x = x⊗I, is check_monoidal's business, as
    for a stored table.  tabulate_monoidal stores every structure whose
    components are all identities in this one form, so == compares
    components there; a structure built directly with explicit identity
    tables is not == to its strict form.
    """

    base: FinCategory
    tensor_objects: tuple[int, ...]
    tensor_morphisms: tuple[int, ...]
    unit: int
    associator: tuple[int, ...] | None
    left_unitor: tuple[int, ...] | None
    right_unitor: tuple[int, ...] | None

    @property
    def strict(self) -> bool:
        return self.associator is None and self.left_unitor is None \
            and self.right_unitor is None

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
        if self.associator is None:
            t_obj = self.tensor_objects
            return self.base.identity[t_obj[t_obj[x * n + y] * n + z]]
        return self.associator[(x * n + y) * n + z]

    def alpha_inv(self, x: int, y: int, z: int) -> int:
        inv = self.base.inverse(self.alpha(x, y, z))
        if inv is None:
            raise StructureError(f"associator at ({x}, {y}, {z}) is not invertible")
        return inv

    def unitor(self, x: int, left: bool) -> int:
        """The left unitor I⊗x -> x when left, else the right unitor x⊗I -> x."""
        table = self.left_unitor if left else self.right_unitor
        return self.base.identity[x] if table is None else table[x]


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
    left out give identity components.  When every component is the
    identity of its source, whether the callbacks were left out or returned
    it, the structure is stored strict, with no coherence table; otherwise
    all three tables are stored, and the callbacks, which must not depend
    on how often they are called, are called again for them.  A budget,
    when given, refuses the n² and m² pairs before any is tabulated.
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
    strict = MonoidalStructure(base, objects, morphisms, unit, None, None, None)
    if associator is None and left_unitor is None and right_unitor is None:
        return strict
    identity = base.identity

    def components(compare: bool) -> Iterator[int | bool]:
        """The associator, left unitor and right unitor components in table
        order, identities where a callback is left out; with compare, whether
        each is the identity of its source instead."""
        for x in range(n):
            for y in range(n):
                xy = objects[x * n + y] * n
                for z in range(n):
                    s = objects[xy + z]
                    cell = identity[s] if associator is None else \
                        associator(x, y, z, s, objects[x * n + objects[y * n + z]])
                    yield cell == identity[s] if compare else cell
        for x in range(n):
            cell = identity[x] if left_unitor is None else \
                left_unitor(x, objects[unit * n + x])
            yield cell == identity[x] if compare else cell
        for x in range(n):
            cell = identity[x] if right_unitor is None else \
                right_unitor(x, objects[x * n + unit])
            yield cell == identity[x] if compare else cell

    # no table is kept while the components are identities; a structure
    # that is not strict is tabulated in a second pass
    if all(components(True)):
        return strict
    flat = tuple(components(False))
    n3 = n ** 3
    return MonoidalStructure(base, objects, morphisms, unit, flat[:n3],
                             flat[n3:n3 + n], flat[n3 + n:])


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
    if not ms.strict:
        if None in (ms.associator, ms.left_unitor, ms.right_unitor):
            raise StructureError("coherence tables must be all stored or all None")
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
    entries, which check_monoidal establishes before it gets here, the
    two paths of every instance are parallel morphisms, and parallel
    morphisms in a hom-set with at most one element are equal (CWM §I.2,
    preorders).  A skipped instance cannot fail, so the violations, their
    order and the cap are those of the full scans.
    """
    sizes = _hom_sizes(ms.base)
    if max(sizes, default=0) <= 1:
        return
    ident, m, t_mor = ms.base.identity, ms.base.num_morphisms, ms.tensor_morphisms
    # the strict reduction (CWM §VII.1): with identity components that are
    # well typed, which the component scan establishes before the coherence
    # scans run, composing a path with a component leaves it as it is, by the
    # identity law of the lawful base; so the triangle compares id_x⊗id_y
    # with itself and holds, and the pentagon compares
    # (id_w⊗id_((x⊗y)⊗z))∘(id_((w⊗x)⊗y)⊗id_z) with an identity, which it
    # equals when id_a⊗id_b = id_(a⊗b) for all a and b
    scans = [_scan_associator_naturality, _scan_unitor_naturality]
    if not ms.strict:
        scans += [_scan_pentagon, _scan_triangle]
    elif [t_mor[i * m + j] for i in ident for j in ident] \
            != [ident[ab] for ab in ms.tensor_objects]:
        scans.append(_scan_pentagon)
    for scan in scans:
        scan(ms, rb, sizes)
        if rb.full:
            return


def _scan_associator_naturality(ms: MonoidalStructure, rb: ReportBuilder,
                                sizes: list[int]) -> None:
    """Naturality of the associator one variable at a time (CWM §II.3): for
    a bifunctorial tensor, natural in each variable separately means natural
    jointly, so the 3·m·n² triples with at most one non-identity morphism
    stand for all m³.  The square at (p, q, r) lies in
    hom((s_p⊗s_q)⊗s_r, t_p⊗(t_q⊗t_r)); on a strict structure it reads
    (p⊗q)⊗r = p⊗(q⊗r).
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
                lhs, rhs = t_mor[pq * m + r], t_mor[p * m + t_mor[q * m + r]]
                if assoc is not None:
                    lhs = comp[assoc[(tgt[p] * n + tgt[q]) * n + tgt[r]]][lhs]
                    rhs = comp[rhs][assoc[(src[p] * n + src[q]) * n + src[r]]]
                if lhs != rhs or lhs == -1:
                    rb.add("associator-naturality", (p, q, r),
                           f"paths {lhs} vs {rhs}")
                    if rb.full:
                        return


def _scan_unitor_naturality(ms: MonoidalStructure, rb: ReportBuilder,
                            sizes: list[int]) -> None:
    """Unitor naturality at each p: x -> y, in hom(I⊗x, y) and hom(x⊗I, y);
    on a strict structure it reads id_I⊗p = p = p⊗id_I."""
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    comp, t_obj, t_mor = base.comp, ms.tensor_objects, ms.tensor_morphisms
    unit, id_unit = ms.unit, base.identity[ms.unit]
    for p in range(m):
        x, y = base.source[p], base.target[p]
        for law, table, s, tensored in (
                ("left-unitor-naturality", ms.left_unitor, unit * n + x, id_unit * m + p),
                ("right-unitor-naturality", ms.right_unitor, x * n + unit, p * m + id_unit)):
            if sizes[t_obj[s] * n + y] <= 1:
                continue
            lhs, rhs = t_mor[tensored], p
            if table is not None:
                lhs, rhs = comp[table[y]][lhs], comp[p][table[x]]
            if lhs != rhs or lhs == -1:
                rb.add(law, (p,), "square does not commute")
        if rb.full:
            return


def _scan_pentagon(ms: MonoidalStructure, rb: ReportBuilder,
                   sizes: list[int]) -> None:
    """The pentagon at (w, x, y, z), in hom(((w⊗x)⊗y)⊗z, w⊗(x⊗(y⊗z))); a
    strict structure's components are the identities of (x⊗y)⊗z."""
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    comp, ident = base.comp, base.identity
    t_obj, t_mor, assoc = ms.tensor_objects, ms.tensor_morphisms, ms.associator
    if assoc is None:
        assoc = [ident[t_obj[xy * n + z]] for xy in t_obj for z in range(n)]
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


def _scan_cells(rb: ReportBuilder, base: FinCategory, laws: tuple[str, str],
                cells: Sequence[int], sources: Sequence[int], targets: Sequence[int],
                witness: Callable[[int], tuple[int, ...]]) -> bool:
    """Report cell k as laws[0] at witness(k) when it is not a morphism
    sources[k] -> targets[k], and as laws[1] when it has no inverse; an
    inverse entry of -1, whose scan raises on a malformed base, raises again.
    A builder full on entry stops after the first cell.  True once the
    builder is full."""
    m, src, tgt, inv = base.num_morphisms, base.source, base.target, base.inverse_table
    stop = rb.full
    for k, c in enumerate(cells):
        s, t = sources[k], targets[k]
        if not (0 <= c < m and src[c] == s and tgt[c] == t):
            rb.add(laws[0], witness(k), _component_ok(base, c, s, t))
        elif inv[c] is None:
            rb.add(laws[1], witness(k), "component is not invertible")
        elif inv[c] == -1:
            base.inverse(c)  # the base is malformed and the scan raises
        elif not stop:
            continue
        if rb.full:
            return True
    return False


def check_monoidal(ms: MonoidalStructure, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Category laws of the base, bifunctoriality of the tensor, pentagon,
    triangle, and naturality and invertibility of all components.  The base
    is checked first because the reduced bifunctor and naturality scans are
    exact only over a lawful base, and the coherence scans skip instances in
    hom-sets with at most one morphism only once every component and tensor
    entry is known to be well typed.
    """
    rb = ReportBuilder("monoidal", cap)
    _check_tables(ms)
    base_laws = check_category(ms.base, cap)
    rb.merge("base-", base_laws)
    if not base_laws.ok:
        return rb.report()
    _scan_tensor_bifunctor(ms, rb)
    # on a strict structure the components are identities, ident[(x⊗y)⊗z]
    # well typed iff (x⊗y)⊗z = x⊗(y⊗z), and invertible over a lawful base;
    # so the scan would add nothing when the tensor is associative on objects
    if ms.associator is not None or _first_nonassociative(ms.tensor_rows()) is not None:
        _scan_associator_components(ms, rb)
    if rb.full:
        return rb.report()
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    src, tgt, inv, t_obj = base.source, base.target, base.inverse_table, ms.tensor_objects
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

    _scan_coherence(ms, rb)
    return rb.report()


def _scan_associator_components(ms: MonoidalStructure, rb: ReportBuilder) -> None:
    """Endpoints and invertibility of every associator component
    (x⊗y)⊗z -> x⊗(y⊗z), a strict structure's read off its tensor as the
    identity of (x⊗y)⊗z."""
    n, t_obj = ms.base.num_objects, ms.tensor_objects
    sources = [t_obj[xy * n + z] for xy in t_obj for z in range(n)]
    cells = ms.associator
    if cells is None:
        cells = [ms.base.identity[s] for s in sources]
    _scan_cells(rb, ms.base, ("associator-component", "associator-iso"), cells, sources,
                [t_obj[x * n + yz] for x in range(n) for yz in t_obj],
                lambda k: (k // n // n, k // n % n, k % n))


def _check_braiding_length(b: Braiding) -> None:
    if len(b.beta) != b.on.base.num_objects ** 2:
        raise StructureError("braiding table has the wrong length")


def _check_braiding_ids(b: Braiding) -> None:
    """The length check, and every component a morphism id, for readers
    that compose components; check_braiding reports a dangling component
    as a violation instead."""
    _check_braiding_length(b)
    if not all(0 <= c < b.on.base.num_morphisms for c in b.beta):
        raise StructureError("a braiding component is a dangling id")


def check_braiding(b: Braiding, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Invertibility, naturality, and both hexagon identities."""
    rb = ReportBuilder("braiding", cap)
    ms = b.on
    base = ms.base
    n, m = base.num_objects, base.num_morphisms
    _check_tables(ms)
    _check_braiding_length(b)
    src, tgt, t_obj, beta = base.source, base.target, ms.tensor_objects, b.beta
    if _scan_cells(rb, base, ("braiding-component", "braiding-iso"), beta, t_obj,
                   [t_obj[y * n + x] for x in range(n) for y in range(n)],
                   lambda k: divmod(k, n)) or not all(0 <= c < m for c in beta):
        # a dangling component, reported above, has no row of comp to read
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
    _check_tables(b.on)
    _check_braiding_ids(b)
    ms = b.on
    base = ms.base
    n = base.num_objects
    for x in range(n):
        for y in range(n):
            if base.comp[b.at(y, x)][b.at(x, y)] != base.identity[ms.tensor_obj(x, y)]:
                return False
    return True


def check_mon_functor(mf: MonFunctor, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Functor laws plus associativity and unit coherence of (gamma, eta).

    Every mult-associativity instance is composed unless
    _strict_on_image(mf) holds once the underlying functor, the unit cell
    and the multiplicativity cells have passed; then each instance composes
    id_A with itself on both sides, so the scan would report nothing and
    raise nothing, and it is skipped.
    """
    rb = ReportBuilder("mon_functor", cap)
    src, tgt = mf.source, mf.target
    if mf.underlying.source != src.base or mf.underlying.target != tgt.base:
        raise StructureError("underlying functor does not match the monoidal structures")
    n = src.base.num_objects
    if len(mf.mult) != n * n:
        raise StructureError("multiplicativity table has the wrong length")
    _check_tables(src)
    _check_tables(tgt)
    rb.merge("underlying-", check_functor(mf.underlying, cap))
    base = tgt.base

    bad = _component_ok(base, mf.unit_iso, tgt.unit, mf.on_obj(src.unit))
    if bad:
        rb.add("unit-cell", (), bad)
    elif not base.is_iso(mf.unit_iso):
        rb.add("unit-cell-iso", (), "unit cell is not invertible")

    comp = base.comp
    nt, mt = base.num_objects, base.num_morphisms
    m_src = src.base.num_morphisms
    s_src, s_tgt = src.base.source, src.base.target
    obj_map, mor_map = mf.underlying.object_map, mf.underlying.morphism_map
    mult = mf.mult
    s_obj, s_mor = src.tensor_objects, src.tensor_morphisms
    t_obj, t_mor = tgt.tensor_objects, tgt.tensor_morphisms
    if _scan_cells(rb, base, ("mult-cell", "mult-cell-iso"), mult,
                   [t_obj[fx * nt + fy] for fx in obj_map for fy in obj_map],
                   [obj_map[xy] for xy in s_obj], lambda k: divmod(k, n)):
        return rb.report()
    found = rb.report().violations
    if any(v.law in ("mult-cell", "unit-cell") for v in found):
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
    if found or not _strict_on_image(mf):
        _scan_mult_associativity(mf, rb)
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


def _strict_on_image(mf: MonFunctor) -> bool:
    """Whether mf is a strict monoidal functor between strict structures on
    the objects that the mult-associativity scan reads (CWM §XI.2 strict
    monoidal functors, §VII.1 strict monoidal categories).

    Called once the underlying functor, the unit cell and the
    multiplicativity cells have passed.  It holds when both ends are strict;
    F(x⊗y) = Fx⊗Fy and F(I) = I on objects, with every multiplicativity
    cell and the unit cell the identity there; id_a⊗id_b = id_(a⊗b) and
    id∘id = id at a⊗b for a and b in the image of F, which covers the pairs
    (F(x⊗y), Fz) and (Fx, F(y⊗z)) and the objects (F(x⊗y))⊗Fz that the
    scan reads; and the target's tensor is associative on objects over the
    image triples.  The image is a sub-magma, since Fx⊗Fy = F(x⊗y), so
    _first_nonassociative decides this by Light's test on it, k²·|S| row
    comparisons for k objects in the image and a generating set S of it.

    Theorem: then every mult-associativity instance at (x, y, z) composes
    id_A with itself on both sides, A = (Fx⊗Fy)⊗Fz.  Its left path is
    F(id_((x⊗y)⊗z))∘gamma_(x⊗y,z)∘(gamma_(x,y)⊗id_Fz): the underlying
    functor preserves identities and F((x⊗y)⊗z) = A, the cell is id_A, and
    id_(F(x⊗y))⊗id_Fz = id_A.  Its right path is
    gamma_(x,y⊗z)∘(id_Fx⊗gamma_(y,z))∘id_A, whose first two factors are
    the identity of Fx⊗(Fy⊗Fz) = A.  So the scan would report nothing; it
    would raise nothing either, since each composite is id_A∘id_A = id_A.
    The checks read no more table entries than that scan does.
    """
    src, tgt = mf.source, mf.target
    if not (src.strict and tgt.strict):
        return False
    base = tgt.base
    n, nt, mt = src.base.num_objects, base.num_objects, base.num_morphisms
    ident, comp = base.identity, base.comp
    obj_map, s_obj = mf.underlying.object_map, src.tensor_objects
    t_obj, t_mor = tgt.tensor_objects, tgt.tensor_morphisms
    if obj_map[src.unit] != tgt.unit or mf.unit_iso != ident[tgt.unit]:
        return False
    if not all(0 <= xy < n for xy in s_obj):
        return False
    f_xy = [obj_map[xy] for xy in s_obj]
    if f_xy != [t_obj[fx * nt + fy] for fx in obj_map for fy in obj_map] \
            or list(mf.mult) != [ident[a] for a in f_xy]:
        return False
    image = sorted(set(obj_map))
    # a⊗b for a and b in the image, itself in the image: Fx⊗Fy = F(x⊗y)
    right = {a: [t_obj[a * nt + b] for b in image] for a in image}
    # id_a⊗id_b = id_(a⊗b) and id∘id = id at a⊗b
    id_image = [ident[b] for b in image]
    for a in image:
        left, ends = ident[a] * mt, [ident[ab] for ab in right[a]]
        if [t_mor[left + i] for i in id_image] != ends \
                or any(comp[i][i] != i for i in ends):
            return False
    # (a⊗b)⊗c = a⊗(b⊗c) for a, b, c in the image, a sub-magma: Fx⊗Fy = F(x⊗y)
    place = {a: i for i, a in enumerate(image)}.__getitem__
    return _first_nonassociative(
        [tuple(map(place, right[a])) for a in image]) is None


def _scan_mult_associativity(mf: MonFunctor, rb: ReportBuilder) -> None:
    """The associativity hexagon of (gamma, eta) at every triple, composed
    in full; it returns once the builder is full.  A composite of -1 goes
    back through compose_path, which raises; a strict end's associator
    component is read off its tensor as the identity of (x⊗y)⊗z."""
    src, tgt = mf.source, mf.target
    base = tgt.base
    n = src.base.num_objects
    comp, ident = base.comp, base.identity
    nt, mt = base.num_objects, base.num_morphisms
    obj_map, mor_map = mf.underlying.object_map, mf.underlying.morphism_map
    mult = mf.mult
    s_obj, s_assoc = src.tensor_objects, src.associator
    t_obj, t_mor, t_assoc = tgt.tensor_objects, tgt.tensor_morphisms, tgt.associator
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
                        return


def check_mon_nattrans(t: MonNatTrans, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Naturality plus the multiplicativity square and unit condition."""
    rb = ReportBuilder("mon_nattrans", cap)
    f, g = t.source, t.target
    if f.source != g.source or f.target != g.target:
        raise StructureError("monoidal transformation between mismatched functors")
    if t.underlying.source != f.underlying or t.underlying.target != g.underlying:
        raise StructureError("underlying transformation does not match the functors")
    rb.merge("underlying-", check_nat_trans(t.underlying, cap))
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
    _check_braiding_ids(b_src)
    _check_braiding_ids(b_tgt)
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
    sub, inclusion = full_subcategory(ms.base, objects)  # refuses dangling ids
    obj_index = {x: i for i, x in enumerate(objects)}
    for x in objects:
        for y in objects:
            if ms.tensor_obj(x, y) not in obj_index:
                raise StructureError(
                    f"subcategory is not closed under tensor at ({x}, {y})")
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
        left_unitor=lambda x, s: mor_index[ms.unitor(objects[x], True)],
        right_unitor=lambda x, s: mor_index[ms.unitor(objects[x], False)])
    return restricted, inclusion


def restrict_braiding(b: Braiding, restricted: MonoidalStructure,
                      inclusion: Functor) -> Braiding:
    sub = restricted.base
    mor_index = {inclusion.morphism_map[i]: i for i in range(sub.num_morphisms)}
    n = sub.num_objects
    beta = tuple(mor_index[b.at(inclusion.object_map[x], inclusion.object_map[y])]
                 for x in range(n) for y in range(n))
    return Braiding(restricted, beta)
