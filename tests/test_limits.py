import pytest

from oracles import brute_force_fiber_morphisms, brute_force_fiber_objects
from spanforge.fincat import (
    Budget,
    BudgetError,
    Functor,
    MediationError,
    NatTrans,
    check_category,
    check_functor,
    check_nat_trans,
    compose_functors,
    constant_functor,
    discrete_category,
    enumerate_nat_transes,
    group_as_category,
    identity_functor,
    identity_nat_trans,
    relabel_category,
    terminal_category,
    walking_arrow,
)
from spanforge.groups import cyclic, symmetric_3
from spanforge.limits import comma, fiber_product, mediate, mediate_2cell


def bs3():
    return group_as_category(symmetric_3().mult)


def bz4():
    return group_as_category(cyclic(4).mult)


# ---------------------------------------------------------------------------
# fiber products
# ---------------------------------------------------------------------------

def test_fiber_of_group_identity_cospan():
    c = bs3()
    ident = identity_functor(c)
    fp = fiber_product(ident, ident)
    oracle_objects = brute_force_fiber_objects(ident, ident, invertible=True)
    assert list(fp.objects) == oracle_objects
    assert fp.apex.num_objects == 6
    oracle_morphisms = brute_force_fiber_morphisms(ident, ident, oracle_objects)
    # one morphism for each (source, target, p): the q is determined
    assert fp.apex.num_morphisms == len(oracle_morphisms) == 216
    assert check_category(fp.apex).ok
    assert check_functor(fp.pr1).ok and check_functor(fp.pr2).ok
    assert check_nat_trans(fp.filler).ok


def test_fiber_of_discrete_functors_is_set_pullback():
    a, b, z = discrete_category(3), discrete_category(2), discrete_category(2)
    f = Functor(a, z, (0, 1, 0), (0, 1, 0))
    g = Functor(b, z, (0, 1), (0, 1))
    fp = fiber_product(f, g)
    assert fp.objects == ((0, 0, 0), (1, 1, 1), (2, 0, 0))
    assert fp.apex == discrete_category(3)


def test_fiber_from_point_counts_isos():
    z = bs3()
    point = terminal_category()
    f = constant_functor(point, z, 0)
    fp = fiber_product(f, identity_functor(z))
    assert fp.apex.num_objects == len(z.isos(0, 0)) == 6


def test_fiber_objects_are_sorted_deterministically():
    z = bz4()
    ident = identity_functor(z)
    fp = fiber_product(ident, ident)
    assert list(fp.objects) == sorted(fp.objects)
    assert fp == fiber_product(ident, ident)


def test_fiber_budget():
    z = bs3()
    ident = identity_functor(z)
    with pytest.raises(BudgetError):
        fiber_product(ident, ident, Budget(max_objects=3))
    with pytest.raises(BudgetError):
        fiber_product(ident, ident, Budget(max_morphisms=10))


# ---------------------------------------------------------------------------
# comma categories
# ---------------------------------------------------------------------------

def test_comma_of_walking_arrow_identity():
    arrow = walking_arrow()
    ident = identity_functor(arrow)
    cm = comma(ident, ident)
    assert cm.apex.num_objects == 3  # id0, the arrow, id1
    oracle = brute_force_fiber_morphisms(
        ident, ident, brute_force_fiber_objects(ident, ident, invertible=False))
    assert cm.apex.num_morphisms == len(oracle) == 6
    assert check_category(cm.apex).ok


def test_comma_on_discrete_is_set_pullback():
    a, z = discrete_category(2), discrete_category(3)
    f = Functor(a, z, (0, 2), (0, 2))
    g = Functor(a, z, (2, 0), (2, 0))
    cm = comma(f, g)
    assert cm.objects == ((0, 1, 0), (1, 0, 2))


def test_comma_equals_fiber_on_groupoid():
    c = bs3()
    ident = identity_functor(c)
    cm = comma(ident, ident)
    fp = fiber_product(ident, ident)
    assert cm.apex.num_objects == 6
    assert cm.apex.num_morphisms == 216
    assert cm.objects == fp.objects
    assert cm.apex == fp.apex


def test_fiber_embeds_fully_faithfully_in_comma():
    arrow = walking_arrow()
    ident = identity_functor(arrow)
    fp = fiber_product(ident, ident)
    cm = comma(ident, ident)
    assert set(fp.objects) <= set(cm.objects)
    ci = cm.object_index
    for si, s_obj in enumerate(fp.objects):
        for ti, t_obj in enumerate(fp.objects):
            fib_homs = {fp.morphisms[k] for k in range(fp.apex.num_morphisms)
                        if fp.apex.source[k] == si and fp.apex.target[k] == ti}
            com_homs = {cm.morphisms[k] for k in range(cm.apex.num_morphisms)
                        if cm.apex.source[k] == ci[s_obj]
                        and cm.apex.target[k] == ci[t_obj]}
            assert fib_homs == com_homs


def test_reverse_orientation():
    arrow = walking_arrow()
    f = constant_functor(terminal_category(), arrow, 0)
    g = constant_functor(terminal_category(), arrow, 1)
    forward = comma(f, g)
    backward = comma(f, g, orientation="reverse")
    assert forward.apex.num_objects == 1   # the unique map 0 -> 1
    assert backward.apex.num_objects == 0  # no map 1 -> 0


def test_renaming_cospans_renames_the_apex():
    z = group_as_category(cyclic(3).mult)
    mor_perm = (0, 2, 1)
    z2 = relabel_category(z, (0,), mor_perm)
    point = terminal_category()
    f = constant_functor(point, z, 0)
    f2 = constant_functor(point, z2, 0)
    fp = fiber_product(f, f)
    fp2 = fiber_product(f2, f2)
    obj_perm = tuple(fp2.objects.index((x, y, mor_perm[xi]))
                     for (x, y, xi) in fp.objects)
    mperm = []
    for k in range(fp.apex.num_morphisms):
        p, q = fp.morphisms[k]
        key = (obj_perm[fp.apex.source[k]], obj_perm[fp.apex.target[k]], p, q)
        mperm.append(fp2.morphism_index[key])
    assert relabel_category(fp.apex, obj_perm, tuple(mperm)) == fp2.apex


# ---------------------------------------------------------------------------
# mediators
# ---------------------------------------------------------------------------

def test_mediate_with_projections_gives_identity():
    c = bz4()
    ident = identity_functor(c)
    fp = fiber_product(ident, ident)
    med = mediate(fp, fp.pr1, fp.pr2, fp.filler)
    assert med == identity_functor(fp.apex)
    # identity witnesses: the mediator recovers both legs on the nose
    assert compose_functors(fp.pr1, med) == fp.pr1
    assert compose_functors(fp.pr2, med) == fp.pr2


def test_mediate_from_point_picks_object():
    c = bz4()
    ident = identity_functor(c)
    fp = fiber_product(ident, ident)
    point = terminal_category()
    p = constant_functor(point, c, 0)
    for xi in range(4):
        cone = NatTrans(compose_functors(ident, p), compose_functors(ident, p),
                        (xi,))
        med = mediate(fp, p, p, cone)
        assert fp.objects[med.object_map[0]] == (0, 0, xi)


def test_mediate_recovers_legs_exactly():
    arrow = walking_arrow()
    ident = identity_functor(arrow)
    cm = comma(ident, ident)
    # cone from the walking arrow itself: a ↦ (a, a, id) along the diagonal
    diag_xi = NatTrans(ident, ident,
                       tuple(arrow.identity[x] for x in range(2)))
    med = mediate(cm, ident, ident, diag_xi)
    assert compose_functors(cm.pr1, med) == ident
    assert compose_functors(cm.pr2, med) == ident
    assert check_functor(med).ok


def test_mediate_requires_invertible_for_fiber():
    arrow = walking_arrow()
    ident = identity_functor(arrow)
    fp = fiber_product(ident, ident)
    point = terminal_category()
    p = constant_functor(point, arrow, 0)
    q = constant_functor(point, arrow, 1)
    u = next(m for m in range(arrow.num_morphisms)
             if arrow.source[m] == 0 and arrow.target[m] == 1)
    cone = NatTrans(compose_functors(ident, p), compose_functors(ident, q), (u,))
    with pytest.raises(MediationError):
        mediate(fp, p, q, cone)
    # the comma over the same cospan accepts it
    cm = comma(ident, ident)
    med = mediate(cm, p, q, cone)
    assert cm.objects[med.object_map[0]] == (0, 1, u)


def mediating_cells(result, u, v, gamma1, gamma2):
    """Independent uniqueness oracle: all candidate 2-cells with the right whiskers."""
    from spanforge.fincat import whisker_post
    found = []
    for theta in enumerate_nat_transes(u, v):
        w1 = whisker_post(result.pr1, theta)
        w2 = whisker_post(result.pr2, theta)
        if w1.components == gamma1.components and w2.components == gamma2.components:
            found.append(theta)
    return found


def test_mediate_2cell_identity():
    c = bz4()
    ident = identity_functor(c)
    fp = fiber_product(ident, ident)
    u = identity_functor(fp.apex)
    g1 = identity_nat_trans(fp.pr1)
    g2 = identity_nat_trans(fp.pr2)
    theta = mediate_2cell(fp, u, u, g1, g2)
    assert theta == identity_nat_trans(u)
    assert mediating_cells(fp, u, u, g1, g2) == [theta]


def test_mediate_2cell_central_element():
    c = bz4()
    ident = identity_functor(c)
    fp = fiber_product(ident, ident)
    u = identity_functor(fp.apex)
    for central in range(4):
        g1 = NatTrans(fp.pr1, fp.pr1, (central,) * fp.apex.num_objects)
        g2 = NatTrans(fp.pr2, fp.pr2, (central,) * fp.apex.num_objects)
        theta = mediate_2cell(fp, u, u, g1, g2)
        assert all(fp.morphisms[m] == (central, central)
                   for m in theta.components)
        assert mediating_cells(fp, u, u, g1, g2) == [theta]


def test_mediate_2cell_incompatible_pair_raises():
    c = bz4()
    ident = identity_functor(c)
    fp = fiber_product(ident, ident)
    u = identity_functor(fp.apex)
    g1 = NatTrans(fp.pr1, fp.pr1, (1,) * fp.apex.num_objects)
    g2 = NatTrans(fp.pr2, fp.pr2, (2,) * fp.apex.num_objects)
    with pytest.raises(MediationError) as exc:
        mediate_2cell(fp, u, u, g1, g2)
    assert exc.value.witness == (0,)


def test_mediate_2cell_uniqueness_on_arrow_comma():
    arrow = walking_arrow()
    ident = identity_functor(arrow)
    cm = comma(ident, ident)
    u = identity_functor(cm.apex)
    g1 = identity_nat_trans(cm.pr1)
    g2 = identity_nat_trans(cm.pr2)
    theta = mediate_2cell(cm, u, u, g1, g2)
    assert mediating_cells(cm, u, u, g1, g2) == [theta]
