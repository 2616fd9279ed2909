"""Finite categories as explicit tables, with functors and natural transformations.

Objects and morphisms are dense integer ids; every map is a tuple indexed by
id.  Equality of categories, functors, and transformations means equality of
these tables — no quotienting by equivalence ever happens.  All enumerative
operations take a size budget and fail loudly rather than truncate.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product
from operator import getitem

from .reporting import DEFAULT_VIOLATION_CAP, Report, ReportBuilder


class SpanforgeError(Exception):
    """Base class for errors raised by this package."""


class StructureError(SpanforgeError):
    """Malformed input: dangling ids, mismatched tables, wrong contexts."""


class BudgetError(SpanforgeError):
    """An enumeration would exceed its size budget."""

    def __init__(self, what: str, estimate: int, limit: int):
        super().__init__(f"{what}: estimate {estimate} exceeds budget {limit}")
        self.what = what
        self.estimate = estimate
        self.limit = limit


class MediationError(StructureError):
    """A universal-property compatibility condition failed at the witness."""

    def __init__(self, message: str, witness: tuple[int, ...]):
        super().__init__(f"{message} (witness {witness})")
        self.witness = witness


@dataclass(frozen=True)
class Budget:
    """Hard ceilings for enumerations; exceeding either raises BudgetError."""

    max_objects: int = 10_000
    max_morphisms: int = 100_000

    def check_objects(self, estimate: int, what: str) -> None:
        if estimate > self.max_objects:
            raise BudgetError(what + " (objects)", estimate, self.max_objects)

    def check_morphisms(self, estimate: int, what: str) -> None:
        if estimate > self.max_morphisms:
            raise BudgetError(what + " (morphisms)", estimate, self.max_morphisms)


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class FinCategory:
    """A finite category: morphism endpoint tables plus a total composition table.

    ``comp[g][f]`` is the composite g∘f (f first), or -1 when target(f) differs
    from source(g).
    """

    num_objects: int
    source: tuple[int, ...]
    target: tuple[int, ...]
    identity: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]

    @property
    def num_morphisms(self) -> int:
        return len(self.source)

    def compose(self, g: int, f: int) -> int:
        h = self.comp[g][f]
        if h < 0:
            raise StructureError(
                f"morphisms {g} and {f} are not composable "
                f"(target {self.target[f]} vs source {self.source[g]})")
        return h

    def compose_path(self, *path: int) -> int:
        """Compose a path listed outermost-first: compose_path(h, g, f) = h∘g∘f."""
        result = path[0]
        for f in path[1:]:
            result = self.compose(result, f)
        return result

    @cached_property
    def hom_table(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The hom-sets keyed by (source, target), each in ascending id order;
        built on first use and kept in the instance dict, not as a field."""
        table: dict[tuple[int, int], list[int]] = {}
        for f, ends in enumerate(zip(self.source, self.target)):
            table.setdefault(ends, []).append(f)
        return {ends: tuple(fs) for ends, fs in table.items()}

    @cached_property
    def inverse_table(self) -> tuple[int | None, ...]:
        """inverse(f) for every f, built on first use.  An entry whose scan
        raises on a malformed table holds -1, and inverse repeats the scan
        there, so one bad morphism neither breaks the build nor the others."""
        table: list[int | None] = []
        for f in range(self.num_morphisms):
            try:
                table.append(self._first_inverse(f))
            except (LookupError, TypeError):  # inverse(f) raises it again
                table.append(-1)
        return tuple(table)

    def _first_inverse(self, f: int) -> int | None:
        """The first g in ascending hom(y, x) with g∘f = id_x and f∘g = id_y."""
        x, y = self.source[f], self.target[f]
        comp, ident = self.comp, self.identity
        for g in self.hom(y, x):
            if comp[g][f] == ident[x] and comp[f][g] == ident[y]:
                return g
        return None

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self.hom_table.get((x, y), ())

    def is_identity(self, f: int) -> bool:
        return self.identity[self.source[f]] == f

    def inverse(self, f: int) -> int | None:
        g = self.inverse_table[f]
        if g == -1:
            return self._first_inverse(f)
        return g

    def is_iso(self, f: int) -> bool:
        return self.inverse(f) is not None

    def isos(self, x: int, y: int) -> tuple[int, ...]:
        return tuple(f for f in self.hom(x, y) if self.is_iso(f))


def validate_structure(c: FinCategory) -> None:
    """Reject dangling ids and ill-shaped tables; laws are checked elsewhere."""
    n, m = c.num_objects, c.num_morphisms
    if n < 0:
        raise StructureError("negative object count")
    if len(c.target) != m:
        raise StructureError(f"target table has length {len(c.target)}, expected {m}")
    for f in range(m):
        if not 0 <= c.source[f] < n:
            raise StructureError(f"morphism {f} has dangling source {c.source[f]}")
        if not 0 <= c.target[f] < n:
            raise StructureError(f"morphism {f} has dangling target {c.target[f]}")
    if len(c.identity) != n:
        raise StructureError(f"identity table has length {len(c.identity)}, expected {n}")
    for x in range(n):
        e = c.identity[x]
        if not 0 <= e < m:
            raise StructureError(f"identity of object {x} is dangling id {e}")
        if c.source[e] != x or c.target[e] != x:
            raise StructureError(f"identity of object {x} has endpoints "
                                 f"{c.source[e]} -> {c.target[e]}")
    if len(c.comp) != m:
        raise StructureError(f"composition table has {len(c.comp)} rows, expected {m}")
    for g in range(m):
        if len(c.comp[g]) != m:
            raise StructureError(f"composition row {g} has length {len(c.comp[g])}")
        for f in range(m):
            h = c.comp[g][f]
            if h != -1 and not 0 <= h < m:
                raise StructureError(f"composite of ({g}, {f}) is dangling id {h}")


def check_category(c: FinCategory, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    """Scan totality, identity, and associativity laws; witnesses are id tuples."""
    validate_structure(c)
    rb = ReportBuilder("category", cap)
    m = c.num_morphisms
    for g in range(m):
        for f in range(m):
            h = c.comp[g][f]
            composable = c.target[f] == c.source[g]
            if composable and h == -1:
                rb.add("composition-totality", (g, f),
                       "composable pair has no composite")
            elif not composable and h != -1:
                rb.add("composition-domain", (g, f),
                       "composite defined for non-composable pair")
            elif h != -1:
                if c.source[h] != c.source[f] or c.target[h] != c.target[g]:
                    rb.add("composition-endpoints", (g, f, h),
                           f"composite has endpoints {c.source[h]} -> {c.target[h]}, "
                           f"expected {c.source[f]} -> {c.target[g]}")
            if rb.full:
                return rb.report()
    for f in range(m):
        left = c.comp[c.identity[c.target[f]]][f]
        right = c.comp[f][c.identity[c.source[f]]]
        if left != f:
            rb.add("left-identity", (f,), f"id∘{f} = {left}")
        if right != f:
            rb.add("right-identity", (f,), f"{f}∘id = {right}")
        if rb.full:
            return rb.report()
    for h in range(m):
        for g in range(m):
            if c.comp[h][g] == -1:
                continue
            for f in range(m):
                if c.comp[g][f] == -1:
                    continue
                if c.comp[h][c.comp[g][f]] != c.comp[c.comp[h][g]][f]:
                    rb.add("associativity", (h, g, f),
                           f"{h}∘({g}∘{f}) = {c.comp[h][c.comp[g][f]]} but "
                           f"({h}∘{g})∘{f} = {c.comp[c.comp[h][g]][f]}")
                    if rb.full:
                        return rb.report()
    return rb.report()


def terminal_category() -> FinCategory:
    return FinCategory(1, (0,), (0,), (0,), ((0,),))


def discrete_category(n: int) -> FinCategory:
    ids = tuple(range(n))
    comp = tuple(tuple(x if x == y else -1 for y in range(n)) for x in range(n))
    return FinCategory(n, ids, ids, ids, comp)


def chain_category(n: int) -> FinCategory:
    """The poset 0 <= 1 <= ... <= n-1; chain_category(2) is the walking arrow."""
    arrows = [(x, y) for x in range(n) for y in range(x, n)]
    index = {a: i for i, a in enumerate(arrows)}
    m = len(arrows)
    comp = [[-1] * m for _ in range(m)]
    for g, (gy, gz) in enumerate(arrows):
        for f, (fx, fy) in enumerate(arrows):
            if fy == gy:
                comp[g][f] = index[(fx, gz)]
    return FinCategory(n,
                       tuple(a for a, _ in arrows),
                       tuple(b for _, b in arrows),
                       tuple(index[(x, x)] for x in range(n)),
                       tuple(tuple(row) for row in comp))


def walking_arrow() -> FinCategory:
    return chain_category(2)


def group_as_category(mult: tuple[tuple[int, ...], ...]) -> FinCategory:
    """One object whose endomorphisms are the group; composition g∘f = g·f."""
    n = len(mult)
    return FinCategory(1, (0,) * n, (0,) * n, (0,),
                       tuple(tuple(row) for row in mult))


def relabel_category(c: FinCategory, obj_perm: tuple[int, ...],
                     mor_perm: tuple[int, ...]) -> FinCategory:
    """Apply bijective renamings: new id obj_perm[x] carries old object x."""
    n, m = c.num_objects, c.num_morphisms
    source = [0] * m
    target = [0] * m
    identity = [0] * n
    comp = [[-1] * m for _ in range(m)]
    for f in range(m):
        source[mor_perm[f]] = obj_perm[c.source[f]]
        target[mor_perm[f]] = obj_perm[c.target[f]]
    for x in range(n):
        identity[obj_perm[x]] = mor_perm[c.identity[x]]
    for g in range(m):
        for f in range(m):
            h = c.comp[g][f]
            if h != -1:
                comp[mor_perm[g]][mor_perm[f]] = mor_perm[h]
    return FinCategory(n, tuple(source), tuple(target), tuple(identity),
                       tuple(tuple(row) for row in comp))


@dataclass(frozen=True)
class Functor:
    source: FinCategory
    target: FinCategory
    object_map: tuple[int, ...]
    morphism_map: tuple[int, ...]

    def on_obj(self, x: int) -> int:
        return self.object_map[x]

    def on_mor(self, f: int) -> int:
        return self.morphism_map[f]


def check_functor(fun: Functor, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    rb = ReportBuilder("functor", cap)
    m, n = fun.source, fun.target
    if len(fun.object_map) != m.num_objects or len(fun.morphism_map) != m.num_morphisms:
        raise StructureError("functor table lengths do not match the source category")
    for x in fun.object_map:
        if not 0 <= x < n.num_objects:
            raise StructureError(f"functor maps an object to dangling id {x}")
    for f in fun.morphism_map:
        if not 0 <= f < n.num_morphisms:
            raise StructureError(f"functor maps a morphism to dangling id {f}")
    for f in range(m.num_morphisms):
        img = fun.morphism_map[f]
        if n.source[img] != fun.object_map[m.source[f]] \
                or n.target[img] != fun.object_map[m.target[f]]:
            rb.add("functor-endpoints", (f,),
                   f"image {img} has endpoints {n.source[img]} -> {n.target[img]}")
    for x in range(m.num_objects):
        if fun.morphism_map[m.identity[x]] != n.identity[fun.object_map[x]]:
            rb.add("functor-identity", (x,), "identity not preserved")
    for g in range(m.num_morphisms):
        for f in range(m.num_morphisms):
            h = m.comp[g][f]
            if h == -1:
                continue
            got = n.comp[fun.morphism_map[g]][fun.morphism_map[f]]
            if got != fun.morphism_map[h]:
                rb.add("functor-composition", (g, f),
                       f"F(g)∘F(f) = {got} but F(g∘f) = {fun.morphism_map[h]}")
            if rb.full:
                return rb.report()
    return rb.report()


def identity_functor(c: FinCategory) -> Functor:
    return Functor(c, c, tuple(range(c.num_objects)), tuple(range(c.num_morphisms)))


def constant_functor(source: FinCategory, target: FinCategory, obj: int) -> Functor:
    return Functor(source, target,
                   (obj,) * source.num_objects,
                   (target.identity[obj],) * source.num_morphisms)


def compose_functors(g: Functor, f: Functor) -> Functor:
    """Pointwise composite g∘f; the middle categories must be table-equal."""
    if f.target != g.source:
        raise StructureError("functor composition: middle categories differ")
    return Functor(f.source, g.target,
                   tuple(g.object_map[x] for x in f.object_map),
                   tuple(g.morphism_map[m] for m in f.morphism_map))


@dataclass(frozen=True)
class NatTrans:
    source: Functor
    target: Functor
    components: tuple[int, ...]

    def at(self, x: int) -> int:
        return self.components[x]


def check_nat_trans(nt: NatTrans, cap: int = DEFAULT_VIOLATION_CAP) -> Report:
    rb = ReportBuilder("nat_trans", cap)
    fun, gun = nt.source, nt.target
    if fun.source != gun.source or fun.target != gun.target:
        raise StructureError("natural transformation between functors of different shape")
    m, n = fun.source, fun.target
    if len(nt.components) != m.num_objects:
        raise StructureError("component table length does not match the source category")
    for x in range(m.num_objects):
        cx = nt.components[x]
        if not 0 <= cx < n.num_morphisms:
            raise StructureError(f"component at {x} is dangling id {cx}")
        if n.source[cx] != fun.object_map[x] or n.target[cx] != gun.object_map[x]:
            rb.add("component-endpoints", (x,),
                   f"component {cx} has endpoints {n.source[cx]} -> {n.target[cx]}, "
                   f"expected {fun.object_map[x]} -> {gun.object_map[x]}")
    if not rb.full:
        for f in range(m.num_morphisms):
            x, y = m.source[f], m.target[f]
            lhs = n.comp[gun.morphism_map[f]][nt.components[x]]
            rhs = n.comp[nt.components[y]][fun.morphism_map[f]]
            if lhs != rhs or lhs == -1:
                rb.add("naturality", (f,), f"G(f)∘η_x = {lhs} but η_y∘F(f) = {rhs}")
                if rb.full:
                    break
    return rb.report()


def identity_nat_trans(fun: Functor) -> NatTrans:
    return NatTrans(fun, fun,
                    tuple(fun.target.identity[x] for x in fun.object_map))


def vertical_composite(b: NatTrans, a: NatTrans) -> NatTrans:
    """b∘a for a: F -> G and b: G -> H."""
    if a.target != b.source:
        raise StructureError("vertical composition: middle functors differ")
    cat = a.source.target
    return NatTrans(a.source, b.target,
                    tuple(cat.compose(b.components[x], a.components[x])
                          for x in range(len(a.components))))


def whisker_post(h: Functor, a: NatTrans) -> NatTrans:
    """h∘a: components h(a_x), for a between functors into h's source."""
    if a.source.target != h.source:
        raise StructureError("post-whiskering context mismatch")
    return NatTrans(compose_functors(h, a.source), compose_functors(h, a.target),
                    tuple(h.morphism_map[c] for c in a.components))


def whisker_pre(a: NatTrans, k: Functor) -> NatTrans:
    """a∘k: components a_{k(x)}, for k into the source of a's functors."""
    if k.target != a.source.source:
        raise StructureError("pre-whiskering context mismatch")
    return NatTrans(compose_functors(a.source, k), compose_functors(a.target, k),
                    tuple(a.components[x] for x in k.object_map))


def horizontal_composite(b: NatTrans, a: NatTrans) -> NatTrans:
    """b★a for a: F -> F' (M -> N) and b: G -> G' (N -> P); result G∘F -> G'∘F'."""
    left = whisker_pre(b, a.target)        # G∘F' -> G'∘F'
    right = whisker_post(b.source, a)      # G∘F -> G∘F'
    return vertical_composite(left, right)


def enumerate_functors(m: FinCategory, n: FinCategory) -> list[Functor]:
    """All functors m -> n in lexicographic (object_map, morphism_map) order."""
    results: list[Functor] = []
    num_m = m.num_morphisms
    non_identity = [f for f in range(num_m) if not m.is_identity(f)]
    # pairs whose composite is defined, for incremental composition checks
    defined_pairs = [(g, f, m.comp[g][f]) for g in range(num_m)
                     for f in range(num_m) if m.comp[g][f] != -1]
    for object_map in iter_product(range(n.num_objects), repeat=m.num_objects):
        mor_map = [-1] * num_m
        for x in range(m.num_objects):
            mor_map[m.identity[x]] = n.identity[object_map[x]]

        def consistent(just: int) -> bool:
            for g, f, h in defined_pairs:
                if just not in (g, f, h):
                    continue
                mg, mf, mh = mor_map[g], mor_map[f], mor_map[h]
                if mg == -1 or mf == -1 or mh == -1:
                    continue
                if n.comp[mg][mf] != mh:
                    return False
            return True

        if any(not consistent(m.identity[x]) for x in range(m.num_objects)):
            continue

        def backtrack(idx: int) -> None:
            if idx == len(non_identity):
                results.append(Functor(m, n, object_map, tuple(mor_map)))
                return
            f = non_identity[idx]
            sx = object_map[m.source[f]]
            tx = object_map[m.target[f]]
            for candidate in n.hom(sx, tx):
                mor_map[f] = candidate
                if consistent(f):
                    backtrack(idx + 1)
                mor_map[f] = -1

        backtrack(0)
    return results


def enumerate_nat_transes(fun: Functor, gun: Functor) -> list[NatTrans]:
    """All natural transformations fun -> gun, components in lexicographic order."""
    results: list[NatTrans] = []
    _emit_nat_transes(fun, gun, results.append)
    return results


def _emit_nat_transes(fun: Functor, gun: Functor,
                      emit: Callable[[NatTrans], None]) -> None:
    """Pass each natural transformation fun -> gun to emit as it is found,
    in enumerate_nat_transes order, so that emit can stop the search."""
    if fun.source != gun.source or fun.target != gun.target:
        raise StructureError("natural transformations need parallel functors")
    m, n = fun.source, fun.target
    comps = [-1] * m.num_objects

    def natural_at(just: int) -> bool:
        for f in range(m.num_morphisms):
            x, y = m.source[f], m.target[f]
            if just not in (x, y) or comps[x] == -1 or comps[y] == -1:
                continue
            if n.comp[gun.morphism_map[f]][comps[x]] != n.comp[comps[y]][fun.morphism_map[f]]:
                return False
        return True

    def backtrack(x: int) -> None:
        if x == m.num_objects:
            emit(NatTrans(fun, gun, tuple(comps)))
            return
        for candidate in n.hom(fun.object_map[x], gun.object_map[x]):
            comps[x] = candidate
            if natural_at(x):
                backtrack(x + 1)
            comps[x] = -1

    backtrack(0)


@dataclass(frozen=True)
class FunctorCategory:
    """Fun(dom, cod) materialized: object ids index functors, morphism ids
    index natural transformations, composition is vertical composition.

    functor_category fills the two id maps once.  Every functor here runs
    dom -> cod, so functor_index is keyed by (object_map, morphism_map);
    transformation_index by (source functor id, target functor id,
    components).  They take no part in equality or hashing."""

    dom: FinCategory
    cod: FinCategory
    as_category: FinCategory
    functors: tuple[Functor, ...]
    transformations: tuple[NatTrans, ...]
    functor_index: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = \
        field(compare=False, repr=False)
    transformation_index: dict[tuple[int, int, tuple[int, ...]], int] = \
        field(compare=False, repr=False)

    def functor_id(self, fun: Functor) -> int:
        """The id of fun; KeyError when its tables are not a functor."""
        if fun.source != self.dom or fun.target != self.cod:
            raise StructureError("functor does not run between the categories "
                                 "of the functor category")
        return self.functor_index[(fun.object_map, fun.morphism_map)]

    def transformation_id(self, nt: NatTrans) -> int:
        """The id of nt; KeyError when its components are not natural."""
        return self.transformation_index[(self.functor_id(nt.source),
                                          self.functor_id(nt.target),
                                          nt.components)]

    def within(self, budget: Budget) -> "FunctorCategory":
        """This category, refused against budget where functor_category
        would refuse to enumerate it, in the same order and with the same
        message, so a caller may reuse it in place of enumerating again."""
        _check_functor_estimate(self.dom, self.cod, budget)
        budget.check_objects(len(self.functors), "functor category")
        if len(self.transformations) > budget.max_morphisms:
            # functor_category refuses at the first transformation past the
            # limit
            budget.check_morphisms(max(1, budget.max_morphisms + 1),
                                   "functor category")
        return self


def _check_functor_estimate(m: FinCategory, n: FinCategory,
                            budget: Budget) -> None:
    estimate = n.num_objects ** m.num_objects if m.num_objects else 1
    budget.check_objects(estimate, f"functor category on {m.num_objects}->{n.num_objects} objects")


def functor_category(m: FinCategory, n: FinCategory,
                     budget: Budget = DEFAULT_BUDGET) -> FunctorCategory:
    """Enumerate Fun(m, n) exhaustively, in deterministic id order."""
    _check_functor_estimate(m, n, budget)
    functors = enumerate_functors(m, n)
    budget.check_objects(len(functors), "functor category")
    fi = {(f.object_map, f.morphism_map): i for i, f in enumerate(functors)}

    transformations: list[NatTrans] = []

    def add(t: NatTrans) -> None:
        # refuse at the first transformation past the limit, not after the
        # whole pair of functors has been enumerated
        transformations.append(t)
        budget.check_morphisms(len(transformations), "functor category")

    for fun in functors:
        for gun in functors:
            _emit_nat_transes(fun, gun, add)

    num = len(transformations)
    source = tuple(fi[(t.source.object_map, t.source.morphism_map)]
                   for t in transformations)
    target = tuple(fi[(t.target.object_map, t.target.morphism_map)]
                   for t in transformations)
    ti = {(s, t, nt.components): k
          for k, (s, t, nt) in enumerate(zip(source, target, transformations))}
    identity = tuple(ti[(i, i, identity_nat_trans(f).components)]
                     for i, f in enumerate(functors))
    comp = [[-1] * num for _ in range(num)]
    for b in range(num):
        for a in range(num):
            if source[b] != target[a]:
                continue
            composed = vertical_composite(transformations[b], transformations[a])
            comp[b][a] = ti[(source[a], target[b], composed.components)]
    cat = FinCategory(len(functors), source, target, identity,
                      tuple(tuple(row) for row in comp))
    return FunctorCategory(m, n, cat, tuple(functors), tuple(transformations),
                           fi, ti)


def _whiskering(fc_in: FunctorCategory, fc_out: FunctorCategory,
                obj_map: tuple[int, ...],
                whiskered: Callable[[NatTrans], NatTrans]) -> Functor:
    """Post- or pre-composition fc_in -> fc_out: functors by obj_map, each
    transformation to its whiskered image."""
    cat = fc_in.as_category
    ti = fc_out.transformation_index
    mor_map = tuple(ti[(obj_map[s], obj_map[t], whiskered(nt).components)]
                    for s, t, nt in zip(cat.source, cat.target,
                                        fc_in.transformations))
    return Functor(cat, fc_out.as_category, obj_map, mor_map)


def pushforward(f: Functor, fc_in: FunctorCategory, fc_out: FunctorCategory) -> Functor:
    """Post-composition f_*: Fun(X, M) -> Fun(X, N) for f: M -> N."""
    if fc_in.dom != fc_out.dom:
        raise StructureError("pushforward: functor categories have different domains")
    if fc_in.cod != f.source or fc_out.cod != f.target:
        raise StructureError("pushforward: context does not match the functor")
    obj_map = tuple(fc_out.functor_id(compose_functors(f, w)) for w in fc_in.functors)
    return _whiskering(fc_in, fc_out, obj_map, lambda t: whisker_post(f, t))


def pullback(f: Functor, fc_in: FunctorCategory, fc_out: FunctorCategory) -> Functor:
    """Pre-composition f^*: Fun(N, X) -> Fun(M, X) for f: M -> N."""
    if fc_in.cod != fc_out.cod:
        raise StructureError("pullback: functor categories have different codomains")
    if fc_in.dom != f.target or fc_out.dom != f.source:
        raise StructureError("pullback: context does not match the functor")
    obj_map = tuple(fc_out.functor_id(compose_functors(w, f)) for w in fc_in.functors)
    return _whiskering(fc_in, fc_out, obj_map, lambda t: whisker_pre(t, f))


@dataclass(frozen=True)
class ProductCategory:
    """left × right with pair ids in row-major order."""

    category: FinCategory
    left: FinCategory
    right: FinCategory

    def object_factors(self, p: int) -> tuple[int, int]:
        return divmod(p, self.right.num_objects)

    def morphism_factors(self, m: int) -> tuple[int, int]:
        return divmod(m, self.right.num_morphisms)

    def proj_left(self) -> Functor:
        return Functor(self.category, self.left,
                       tuple(self.object_factors(p)[0]
                             for p in range(self.category.num_objects)),
                       tuple(self.morphism_factors(m)[0]
                             for m in range(self.category.num_morphisms)))

    def proj_right(self) -> Functor:
        return Functor(self.category, self.right,
                       tuple(self.object_factors(p)[1]
                             for p in range(self.category.num_objects)),
                       tuple(self.morphism_factors(m)[1]
                             for m in range(self.category.num_morphisms)))


def product_category(a: FinCategory, b: FinCategory,
                     budget: Budget = DEFAULT_BUDGET) -> ProductCategory:
    budget.check_objects(a.num_objects * b.num_objects, "product category")
    budget.check_morphisms(a.num_morphisms * b.num_morphisms, "product category")
    nb, mb = b.num_objects, b.num_morphisms
    num_objects = a.num_objects * nb
    num_morphisms = a.num_morphisms * mb
    source = [0] * num_morphisms
    target = [0] * num_morphisms
    for f in range(a.num_morphisms):
        for g in range(mb):
            k = f * mb + g
            source[k] = a.source[f] * nb + b.source[g]
            target[k] = a.target[f] * nb + b.target[g]
    identity = tuple(a.identity[x] * mb + b.identity[y]
                     for x in range(a.num_objects) for y in range(nb))
    comp = [[-1] * num_morphisms for _ in range(num_morphisms)]
    for f2 in range(a.num_morphisms):
        for g2 in range(mb):
            k2 = f2 * mb + g2
            row = comp[k2]
            for f1 in range(a.num_morphisms):
                ca = a.comp[f2][f1]
                if ca == -1:
                    continue
                base = f1 * mb
                for g1 in range(mb):
                    cb = b.comp[g2][g1]
                    if cb != -1:
                        row[base + g1] = ca * mb + cb
    cat = FinCategory(num_objects, tuple(source), tuple(target), identity,
                      tuple(tuple(row) for row in comp))
    return ProductCategory(cat, a, b)


def category_over_product(factors: tuple[FinCategory, ...],
                          objects: list[tuple[int, ...]],
                          admits: Callable[[int, int, tuple[int, ...]], bool],
                          budget: Budget = DEFAULT_BUDGET,
                          what: str = "category over a product"):
    """A category with a faithful functor into the product of the factors,
    cut out by commuting squares (comma categories, CWM §II.6).

    Object i lies over objects[i], one object per factor; several objects may
    lie over the same tuple.  The morphisms i -> j are the tuples of factor
    morphisms objects[i] -> objects[j] that admits(i, j, arrow) accepts, and
    identities and composites are taken factor by factor.  Ids run in
    (i, j, arrow) lexicographic order, each factor's hom-set ascending.
    Returns the category, the arrow of each morphism id, and the index
    (i, j) + arrow -> id.  The budget sees the objects first, then the
    morphisms after each object pair with candidate arrows.  An identity or
    composite that is not admitted raises StructureError naming what.

    Three builders keep their own loops: full_subcategory numbers morphisms
    in the relative order of its ambient category, functor_category's
    morphisms are enumerated natural transformations, and product_category
    uses row-major pair ids, which perfbench/spantrace.py wraps by name.
    """
    budget.check_objects(len(objects), what)
    homs: list[dict[tuple[int, int], list[int]]] = []
    for c in factors:
        table: dict[tuple[int, int], list[int]] = {}
        for f in range(c.num_morphisms):
            table.setdefault((c.source[f], c.target[f]), []).append(f)
        homs.append(table)
    arrows: list[tuple[int, ...]] = []
    source: list[int] = []
    target: list[int] = []
    index: dict[tuple[int, ...], int] = {}
    for i, xs in enumerate(objects):
        for j, ys in enumerate(objects):
            hom_sets = [hom.get((x, y)) for hom, x, y in zip(homs, xs, ys)]
            if None in hom_sets:
                continue
            for arrow in iter_product(*hom_sets):
                if admits(i, j, arrow):
                    index[(i, j) + arrow] = len(arrows)
                    arrows.append(arrow)
                    source.append(i)
                    target.append(j)
            budget.check_morphisms(len(arrows), what)

    identity = []
    for i, xs in enumerate(objects):
        key = (i, i) + tuple(c.identity[x] for c, x in zip(factors, xs))
        if key not in index:
            raise StructureError(f"{what}: the identity of object {i} is not a morphism")
        identity.append(index[key])
    num = len(arrows)
    incoming: list[list[int]] = [[] for _ in objects]
    outgoing: list[list[int]] = [[] for _ in objects]
    for k in range(num):
        incoming[target[k]].append(k)
        outgoing[source[k]].append(k)
    tables = [c.comp for c in factors]
    comp = [[-1] * num for _ in range(num)]
    for middle in range(len(objects)):
        for b in outgoing[middle]:
            row, head = comp[b], target[b]
            factor_rows = [t[g] for t, g in zip(tables, arrows[b])]
            for a in incoming[middle]:
                h = index.get((source[a], head, *map(getitem, factor_rows, arrows[a])))
                if h is None:
                    raise StructureError(
                        f"{what}: the composite of morphisms {b} and {a} is not a morphism")
                row[a] = h
    cat = FinCategory(len(objects), tuple(source), tuple(target), tuple(identity),
                      tuple(tuple(row) for row in comp))
    return cat, tuple(arrows), index


def lift_functor(source: FinCategory, target: FinCategory,
                 index: dict[tuple[int, ...], int], object_map: Sequence[int],
                 arrow_of: Iterable[tuple[int, ...]], what: str) -> Functor:
    """The functor into a category over a product that lies over given
    functors into the factors; the category's functor to the product is
    faithful, so those functors and the object map force every morphism.

    index maps (i, j) + arrow to a morphism id, as category_over_product
    returns it.  The caller supplies object_map; arrow_of yields, for each
    morphism k of source in order, the tuple of factor morphisms it lies
    over.  Morphism k: s -> t goes to index[(object_map[s], object_map[t])
    + arrow].  A miss raises MediationError naming what, with witness (k,).
    """
    obj_map = tuple(object_map)
    mor_map = []
    for k, (s, t, arrow) in enumerate(zip(source.source, source.target, arrow_of)):
        h = index.get((obj_map[s], obj_map[t]) + arrow)
        if h is None:
            raise MediationError(
                f"{what}: no morphism lies over the arrows of morphism {k}", (k,))
        mor_map.append(h)
    return Functor(source, target, obj_map, tuple(mor_map))


def full_subcategory(c: FinCategory, objects: tuple[int, ...]) -> tuple[FinCategory, Functor]:
    """The full subcategory on the listed objects plus its inclusion functor.

    Object ids are reindexed densely in the listed order; morphism ids keep
    their relative order from c.
    """
    for x in objects:
        if not 0 <= x < c.num_objects:
            raise StructureError(f"full subcategory: dangling object id {x}")
    if len(set(objects)) != len(objects):
        raise StructureError("full subcategory: repeated object ids")
    obj_index = {x: i for i, x in enumerate(objects)}
    kept = [f for f in range(c.num_morphisms)
            if c.source[f] in obj_index and c.target[f] in obj_index]
    mor_index = {f: i for i, f in enumerate(kept)}
    source = tuple(obj_index[c.source[f]] for f in kept)
    target = tuple(obj_index[c.target[f]] for f in kept)
    identity = tuple(mor_index[c.identity[x]] for x in objects)
    comp = [[-1] * len(kept) for _ in kept]
    for gi, g in enumerate(kept):
        for fi, f in enumerate(kept):
            h = c.comp[g][f]
            if h != -1:
                comp[gi][fi] = mor_index[h]
    sub = FinCategory(len(objects), source, target, identity,
                      tuple(tuple(row) for row in comp))
    inclusion = Functor(sub, c, tuple(objects), tuple(kept))
    return sub, inclusion
