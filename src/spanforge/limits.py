"""2-fiber products (iso-commas) and comma categories of finite categories.

The strict model is used throughout: apex objects are literal triples
(x, y, comparison morphism), so mediating functors land with identity
witnesses and every universal-property equation is a table check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import (
    Budget,
    DEFAULT_BUDGET,
    FinCategory,
    Functor,
    MediationError,
    NatTrans,
    StructureError,
    category_over_product,
    check_nat_trans,
    compose_functors,
    lift_functor,
)

FORWARD = "forward"
REVERSE = "reverse"


@dataclass(frozen=True)
class CommaResult:
    """Apex of a comma square over the cospan (left, right).

    Objects are triples (x, y, xi); in the forward orientation xi runs
    left(x) -> right(y), reversed otherwise.  Morphisms are the pairs (p, q)
    making the evident square commute.  The filler's component at an apex
    object is its own xi.  The builder fills the two id maps once:
    object_index takes (x, y, xi) and morphism_index (i, j, p, q) to an id.
    They take no part in equality or hashing.
    """

    left: Functor
    right: Functor
    apex: FinCategory
    pr1: Functor
    pr2: Functor
    filler: NatTrans
    objects: tuple[tuple[int, int, int], ...]
    morphisms: tuple[tuple[int, int], ...]
    object_index: dict[tuple[int, int, int], int] = field(compare=False, repr=False)
    morphism_index: dict[tuple[int, int, int, int], int] = \
        field(compare=False, repr=False)
    orientation: str = FORWARD


@dataclass(frozen=True)
class FiberProductResult(CommaResult):
    """Comma square whose comparison morphisms are all invertible."""


def _square_commutes(z: FinCategory, f_img: int, g_img: int,
                     xi0: int, xi1: int, orientation: str) -> bool:
    if orientation == FORWARD:
        return z.comp[xi1][f_img] == z.comp[g_img][xi0] != -1
    return z.comp[f_img][xi0] == z.comp[xi1][g_img] != -1


def _build(f: Functor, g: Functor, budget: Budget, invertible: bool,
           orientation: str, what: str):
    """Enumerate the triples (x, y, xi), then build the apex over the two
    feet through category_over_product: (p, q) is a morphism when its
    square commutes."""
    if f.target != g.target:
        raise StructureError(f"{what}: the two functors have different codomains")
    if orientation not in (FORWARD, REVERSE):
        raise StructureError(f"unknown orientation {orientation!r}")
    z = f.target
    objects: list[tuple[int, int, int]] = []
    for x in range(f.source.num_objects):
        for y in range(g.source.num_objects):
            a, b = f.object_map[x], g.object_map[y]
            src, tgt = (a, b) if orientation == FORWARD else (b, a)
            for xi in z.hom(src, tgt):
                if invertible and z.inverse(xi) is None:
                    continue
                objects.append((x, y, xi))

    def admits(i: int, j: int, arrow: tuple[int, int]) -> bool:
        return _square_commutes(z, f.morphism_map[arrow[0]], g.morphism_map[arrow[1]],
                                objects[i][2], objects[j][2], orientation)

    apex, morphisms, index = category_over_product(
        (f.source, g.source), [(x, y) for x, y, _ in objects], admits, budget, what)
    pr1 = Functor(apex, f.source,
                  tuple(x for x, _, _ in objects),
                  tuple(p for p, _ in morphisms))
    pr2 = Functor(apex, g.source,
                  tuple(y for _, y, _ in objects),
                  tuple(q for _, q in morphisms))
    if orientation == FORWARD:
        filler = NatTrans(compose_functors(f, pr1), compose_functors(g, pr2),
                          tuple(xi for _, _, xi in objects))
    else:
        filler = NatTrans(compose_functors(g, pr2), compose_functors(f, pr1),
                          tuple(xi for _, _, xi in objects))
    cls = FiberProductResult if invertible else CommaResult
    return cls(f, g, apex, pr1, pr2, filler, tuple(objects), morphisms,
               {t: i for i, t in enumerate(objects)}, index, orientation)


def fiber_product(f: Functor, g: Functor,
                  budget: Budget = DEFAULT_BUDGET) -> FiberProductResult:
    """Iso-comma of f and g: triples (x, y, xi: f(x) ≅ g(y))."""
    return _build(f, g, budget, invertible=True, orientation=FORWARD,
                  what="fiber product")


def comma(f: Functor, g: Functor, budget: Budget = DEFAULT_BUDGET,
          orientation: str = FORWARD) -> CommaResult:
    """Comma category of f and g; xi need not be invertible."""
    return _build(f, g, budget, invertible=False, orientation=orientation,
                  what="comma category")


def mediate(result: CommaResult, p: Functor, q: Functor, xi: NatTrans) -> Functor:
    """The strict mediating functor u: a ↦ (p(a), q(a), xi_a).

    xi must be a natural transformation left∘p -> right∘q (reversed for the
    reverse orientation), with invertible components when the result is a
    fiber product.  Its witnesses pr1∘u = p and pr2∘u = q are identities by
    construction, so only u is returned.
    """
    if p.source != q.source:
        raise StructureError("mediate: the two legs have different sources")
    if p.target != result.left.source or q.target != result.right.source:
        raise StructureError("mediate: legs do not match the cospan feet")
    lp = compose_functors(result.left, p)
    rq = compose_functors(result.right, q)
    expected = (lp, rq) if result.orientation == FORWARD else (rq, lp)
    if (xi.source, xi.target) != expected:
        raise StructureError("mediate: comparison transformation has the wrong shape")
    bad = check_nat_trans(xi)
    if not bad.ok:
        raise StructureError("mediate: comparison is not natural: "
                             + bad.violations[0].render())
    z = result.left.target
    if isinstance(result, FiberProductResult):
        for a in range(p.source.num_objects):
            if z.inverse(xi.components[a]) is None:
                raise MediationError(
                    "mediate: component is not invertible", (a,))
    oi = result.object_index
    try:
        obj_map = tuple(oi[(p.object_map[a], q.object_map[a], xi.components[a])]
                        for a in range(p.source.num_objects))
    except KeyError as exc:
        raise StructureError(f"mediate: cone object not in the apex: {exc}")
    # with identity witnesses the compatibility equation reduces to
    # filler∘u = xi, which holds by construction: _build gives each apex
    # object its own comparison as its filler component
    return lift_functor(p.source, result.apex, result.morphism_index, obj_map,
                        zip(p.morphism_map, q.morphism_map), "mediate")


def mediate_2cell(result: CommaResult, u: Functor, v: Functor,
                  gamma1: NatTrans, gamma2: NatTrans) -> NatTrans:
    """The unique theta: u -> v whose whiskers along the projections are
    gamma1 and gamma2; raises MediationError naming the first incompatible
    object when the exchange condition fails.
    """
    if u.target != result.apex or v.target != result.apex or u.source != v.source:
        raise StructureError("mediate_2cell: functors do not land in the apex")
    if (gamma1.source, gamma1.target) != (compose_functors(result.pr1, u),
                                          compose_functors(result.pr1, v)):
        raise StructureError("mediate_2cell: gamma1 has the wrong shape")
    if (gamma2.source, gamma2.target) != (compose_functors(result.pr2, u),
                                          compose_functors(result.pr2, v)):
        raise StructureError("mediate_2cell: gamma2 has the wrong shape")
    for g, name in ((gamma1, "gamma1"), (gamma2, "gamma2")):
        bad = check_nat_trans(g)
        if not bad.ok:
            raise StructureError(f"mediate_2cell: {name} is not natural: "
                                 + bad.violations[0].render())
    z = result.left.target
    f, g = result.left, result.right
    mi = result.morphism_index
    comps = []
    for a in range(u.source.num_objects):
        xi_u = result.objects[u.object_map[a]][2]
        xi_v = result.objects[v.object_map[a]][2]
        fp = f.morphism_map[gamma1.components[a]]
        gq = g.morphism_map[gamma2.components[a]]
        if result.orientation == FORWARD:
            ok = z.comp[xi_v][fp] == z.comp[gq][xi_u] != -1
        else:
            ok = z.comp[fp][xi_u] == z.comp[xi_v][gq] != -1
        if not ok:
            raise MediationError(
                "mediate_2cell: exchange condition fails", (a,))
        key = (u.object_map[a], v.object_map[a],
               gamma1.components[a], gamma2.components[a])
        comps.append(mi[key])
    theta = NatTrans(u, v, tuple(comps))
    bad = check_nat_trans(theta)
    if not bad.ok:
        raise MediationError("mediate_2cell: induced cell is not natural",
                             bad.violations[0].witness)
    return theta
