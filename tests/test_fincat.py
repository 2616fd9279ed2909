import pytest

from oracles import brute_force_functors, brute_force_nat_transes
from spanforge.fincat import (
    Budget,
    BudgetError,
    FinCategory,
    Functor,
    MediationError,
    NatTrans,
    StructureError,
    category_over_product,
    chain_category,
    check_category,
    check_functor,
    check_nat_trans,
    compose_functors,
    constant_functor,
    discrete_category,
    enumerate_nat_transes,
    full_subcategory,
    functor_category,
    group_as_category,
    horizontal_composite,
    identity_functor,
    identity_nat_trans,
    lift_functor,
    product_category,
    pullback,
    pushforward,
    relabel_category,
    terminal_category,
    vertical_composite,
    walking_arrow,
    whisker_post,
    whisker_pre,
)
from spanforge.groups import cyclic, symmetric_3
from spanforge.limits import fiber_product


def z2_category() -> FinCategory:
    return group_as_category(cyclic(2).mult)


# ---------------------------------------------------------------------------
# check_category
# ---------------------------------------------------------------------------

def test_terminal_category_passes():
    assert check_category(terminal_category()).ok


def test_group_categories_pass():
    assert check_category(z2_category()).ok
    assert check_category(group_as_category(symmetric_3().mult)).ok


def test_idempotent_two_element_table_is_lawful():
    # compose(s, s) = s instead of the inverse law: still a category (the
    # two-element idempotent monoid), so the law scan stays empty.
    idem = FinCategory(1, (0, 0), (0, 0), (0,), ((0, 1), (1, 1)))
    assert check_category(idem).ok


def test_corrupted_group_table_reports_witness():
    # Z/3 with compose(2, 2) = 2 instead of 1 genuinely breaks associativity.
    z3 = group_as_category(cyclic(3).mult)
    rows = [list(r) for r in z3.comp]
    rows[2][2] = 2
    broken = FinCategory(1, z3.source, z3.target, z3.identity,
                         tuple(tuple(r) for r in rows))
    report = check_category(broken)
    assert not report.ok
    laws = {v.law for v in report.violations}
    assert "associativity" in laws
    assert any(v.law == "associativity" and 2 in v.witness
               for v in report.violations)


def test_dangling_id_is_structural_not_law():
    bad = FinCategory(1, (0,), (5,), (0,), ((0,),))
    with pytest.raises(StructureError):
        check_category(bad)


def test_chain_category_is_a_category():
    for n in range(1, 5):
        c = chain_category(n)
        assert check_category(c).ok
        assert c.num_morphisms == n * (n + 1) // 2


def test_isos_and_inverses():
    c = group_as_category(symmetric_3().mult)
    for f in range(c.num_morphisms):
        assert c.is_iso(f)
    poset = chain_category(3)
    isos = [f for f in range(poset.num_morphisms) if poset.is_iso(f)]
    assert isos == [poset.identity[x] for x in range(3)]


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------

def test_identity_after_functor_is_functor():
    arrow = walking_arrow()
    f = constant_functor(arrow, arrow, 1)
    assert compose_functors(identity_functor(arrow), f) == f
    assert compose_functors(f, identity_functor(arrow)) == f


def test_constant_after_anything_is_constant():
    arrow = walking_arrow()
    three = chain_category(3)
    g = constant_functor(three, arrow, 0)
    for f in brute_force_functors(arrow, three):
        assert compose_functors(g, f) == constant_functor(arrow, arrow, 0)


def test_composition_matches_pointwise_oracle():
    three = chain_category(3)
    endos = [f for f in brute_force_functors(three, three)
             if f != identity_functor(three)]
    assert len(endos) >= 2
    for f in endos[:4]:
        for g in endos[:4]:
            got = compose_functors(g, f)
            assert got.object_map == tuple(g.object_map[x] for x in f.object_map)
            assert got.morphism_map == tuple(g.morphism_map[m] for m in f.morphism_map)
            assert check_functor(got).ok


def test_check_functor_catches_violations():
    arrow = walking_arrow()
    u = next(m for m in range(arrow.num_morphisms) if not arrow.is_identity(m))
    # maps both objects to 0 but the arrow to the non-identity morphism
    bad = Functor(arrow, arrow, (0, 0), tuple(
        u if m == u else arrow.identity[0] for m in range(arrow.num_morphisms)))
    assert not check_functor(bad).ok


def test_mismatched_composition_raises():
    with pytest.raises(StructureError):
        compose_functors(identity_functor(walking_arrow()),
                         identity_functor(terminal_category()))


# ---------------------------------------------------------------------------
# natural transformations
# ---------------------------------------------------------------------------

def test_nat_trans_check_and_composites():
    arrow = walking_arrow()
    fc = functor_category(arrow, arrow)
    for t in fc.transformations:
        assert check_nat_trans(t).ok
    # vertical composition agrees with the composition table of Fun(arrow, arrow)
    for b in fc.transformations:
        for a in fc.transformations:
            if a.target != b.source:
                continue
            composed = vertical_composite(b, a)
            assert fc.transformation_id(composed) == fc.as_category.comp[
                fc.transformation_id(b)][fc.transformation_id(a)]


def test_naturality_violation_detected():
    arrow = walking_arrow()
    const0 = constant_functor(arrow, arrow, 0)
    const1 = constant_functor(arrow, arrow, 1)
    u = next(m for m in range(arrow.num_morphisms)
             if arrow.source[m] == 0 and arrow.target[m] == 1)
    # component at object 0 only exists as u; at object 1 as u as well: natural
    good = NatTrans(const0, const1, (u, u))
    assert check_nat_trans(good).ok
    # swap a component for an identity: endpoints break
    bad = NatTrans(const0, const1, (arrow.identity[0], u))
    assert not check_nat_trans(bad).ok


def test_whiskering_shapes():
    arrow = walking_arrow()
    const0 = constant_functor(arrow, arrow, 0)
    ident = identity_functor(arrow)
    for t in enumerate_nat_transes(const0, ident):
        post = whisker_post(ident, t)
        assert post.components == t.components
        pre = whisker_pre(t, const0)
        assert pre.components == tuple(t.components[0] for _ in range(2))
        assert check_nat_trans(post).ok and check_nat_trans(pre).ok


def test_horizontal_composite_is_natural():
    arrow = walking_arrow()
    fc = functor_category(arrow, arrow)
    pairs = [(a, b) for a in fc.transformations for b in fc.transformations]
    for a, b in pairs:
        got = horizontal_composite(b, a)
        assert check_nat_trans(got).ok


# ---------------------------------------------------------------------------
# functor categories
# ---------------------------------------------------------------------------

def test_end_of_walking_arrow_counts():
    arrow = walking_arrow()
    fc = functor_category(arrow, arrow)
    oracle = brute_force_functors(arrow, arrow)
    assert len(fc.functors) == len(oracle) == 3
    assert list(fc.functors) == oracle
    oracle_transes = sum(len(brute_force_nat_transes(f, g))
                         for f in oracle for g in oracle)
    assert fc.as_category.num_morphisms == oracle_transes
    assert check_category(fc.as_category).ok
    # End([1]) is the 3-chain poset: compare hom-set sizes under sorting
    three = chain_category(3)
    homs = sorted(len(fc.as_category.hom(x, y)) for x in range(3) for y in range(3))
    oracle_homs = sorted(len(three.hom(x, y)) for x in range(3) for y in range(3))
    assert homs == oracle_homs


def test_functors_from_point_are_objects():
    point = terminal_category()
    for n in (discrete_category(3), walking_arrow(), z2_category()):
        fc = functor_category(point, n)
        assert len(fc.functors) == n.num_objects
        assert fc.as_category.num_morphisms == n.num_morphisms
        assert check_category(fc.as_category).ok


def test_end_of_z2_matches_oracle():
    bz2 = z2_category()
    fc = functor_category(bz2, bz2)
    oracle = brute_force_functors(bz2, bz2)
    assert len(fc.functors) == len(oracle) == 2
    for f in oracle:
        for g in oracle:
            expected = brute_force_nat_transes(f, g)
            got = [t for t in fc.transformations
                   if t.source == f and t.target == g]
            assert got == expected
            assert fc.functors[fc.functor_id(f)] == f


def test_functor_category_budget():
    five = discrete_category(5)
    with pytest.raises(BudgetError) as exc:
        functor_category(five, five, Budget(max_objects=100))
    assert exc.value.estimate == 5 ** 5


def test_functor_category_refuses_transformations_as_they_are_found(monkeypatch):
    """Fun(1, BZ/8) has one functor and eight transformations, all between
    the same pair; with room for three, the fourth is refused before the
    rest of the pair is built."""
    import spanforge.fincat as fincat
    built = []

    def counting(*args):
        built.append(args)
        return NatTrans(*args)

    monkeypatch.setattr(fincat, "NatTrans", counting)
    bz8 = group_as_category(cyclic(8).mult)
    with pytest.raises(BudgetError) as exc:
        functor_category(terminal_category(), bz8, Budget(max_morphisms=3))
    assert len(built) == 4
    assert (exc.value.estimate, exc.value.limit) == (4, 3)


def test_functor_category_budget_refuses_exactly_the_larger_categories():
    bz2 = group_as_category(cyclic(2).mult)
    for m, n in ((walking_arrow(), walking_arrow()), (bz2, bz2),
                 (terminal_category(), group_as_category(cyclic(8).mult)),
                 (discrete_category(2), chain_category(3))):
        total = functor_category(m, n).as_category.num_morphisms
        assert functor_category(m, n, Budget(max_morphisms=total)) \
            .as_category.num_morphisms == total
        with pytest.raises(BudgetError):
            functor_category(m, n, Budget(max_morphisms=total - 1))


def test_enumeration_is_deterministic():
    arrow = walking_arrow()
    a = functor_category(arrow, arrow)
    b = functor_category(arrow, arrow)
    assert a == b


# ---------------------------------------------------------------------------
# pushforward / pullback
# ---------------------------------------------------------------------------

def test_pushforward_of_identity_is_identity():
    arrow = walking_arrow()
    fc = functor_category(arrow, arrow)
    f_star = pushforward(identity_functor(arrow), fc, fc)
    assert f_star == identity_functor(fc.as_category)


def test_functor_id_refuses_a_functor_between_other_categories():
    arrow = walking_arrow()
    fc = functor_category(arrow, arrow)
    assert fc.functor_id(identity_functor(arrow)) in range(len(fc.functors))
    point = terminal_category()
    with pytest.raises(StructureError):
        fc.functor_id(identity_functor(point))
    with pytest.raises(StructureError):
        fc.transformation_id(identity_nat_trans(constant_functor(point, arrow, 0)))


def test_pushforward_of_constant():
    arrow = walking_arrow()
    point = terminal_category()
    fun_pa = functor_category(point, arrow)
    to1 = constant_functor(arrow, arrow, 1)
    f_star = pushforward(to1, fun_pa, fun_pa)
    for i, w in enumerate(fun_pa.functors):
        assert f_star.object_map[i] == fun_pa.functor_id(compose_functors(to1, w))
        # constant target: every functor lands on the functor picking object 1
        assert fun_pa.functors[f_star.object_map[i]].object_map == (1,)


def test_pushforward_matches_pointwise_oracle():
    arrow = walking_arrow()
    end = functor_category(arrow, arrow)
    for f in end.functors:
        f_star = pushforward(f, end, end)
        assert check_functor(f_star).ok
        for i, w in enumerate(end.functors):
            assert end.functors[f_star.object_map[i]] == compose_functors(f, w)
        for k, t in enumerate(end.transformations):
            assert end.transformations[f_star.morphism_map[k]] == whisker_post(f, t)


def test_strict_functoriality_of_hom_actions():
    arrow = walking_arrow()
    three = chain_category(3)
    end_arrow = functor_category(arrow, arrow)
    fun_a3 = functor_category(arrow, three)
    f = Functor(arrow, three, (0, 2), (three.identity[0],
                                       next(m for m in range(three.num_morphisms)
                                            if three.source[m] == 0 and three.target[m] == 2),
                                       three.identity[2]))
    assert check_functor(f).ok
    g = constant_functor(three, arrow, 1)
    gf = compose_functors(g, f)
    # (g∘f)_* = g_* ∘ f_* on Fun(arrow, -), as literal tables
    lhs = pushforward(gf, end_arrow, end_arrow)
    rhs = compose_functors(pushforward(g, fun_a3, end_arrow),
                           pushforward(f, end_arrow, fun_a3))
    assert lhs == rhs
    # (g∘f)^* = f^* ∘ g^* on Fun(-, arrow)
    fun_3a = functor_category(three, arrow)
    lhs2 = pullback(gf, end_arrow, end_arrow)
    rhs2 = compose_functors(pullback(f, fun_3a, end_arrow),
                            pullback(g, end_arrow, fun_3a))
    assert lhs2 == rhs2


# ---------------------------------------------------------------------------
# products and subcategories
# ---------------------------------------------------------------------------

def test_product_with_terminal_is_identity_on_tables():
    for c in (walking_arrow(), z2_category(), chain_category(3)):
        p = product_category(c, terminal_category())
        assert p.category == c


def test_product_of_discretes():
    p = product_category(discrete_category(2), discrete_category(3))
    assert p.category == discrete_category(6)


def test_square_of_walking_arrow():
    p = product_category(walking_arrow(), walking_arrow())
    assert p.category.num_objects == 4
    assert p.category.num_morphisms == 9
    assert check_category(p.category).ok
    assert check_functor(p.proj_left()).ok
    assert check_functor(p.proj_right()).ok


def test_product_budget():
    big = discrete_category(200)
    with pytest.raises(BudgetError):
        product_category(big, big, Budget(max_objects=100))


def test_full_subcategory_of_chain():
    three = chain_category(3)
    sub, inc = full_subcategory(three, (0, 2))
    assert sub.num_objects == 2
    assert sub.num_morphisms == 3
    assert check_category(sub).ok
    assert check_functor(inc).ok


def test_relabel_roundtrip():
    c = chain_category(3)
    obj_perm = (2, 0, 1)
    mor_perm = tuple(reversed(range(c.num_morphisms)))
    renamed = relabel_category(c, obj_perm, mor_perm)
    assert check_category(renamed).ok
    assert renamed != c
    inv_obj = tuple(obj_perm.index(i) for i in range(3))
    inv_mor = tuple(mor_perm.index(i) for i in range(c.num_morphisms))
    assert relabel_category(renamed, inv_obj, inv_mor) == c


# ---------------------------------------------------------------------------
# categories over a product
# ---------------------------------------------------------------------------

def admit_all(i, j, arrow):
    return True


def test_over_product_ids_run_in_lexicographic_order():
    z2 = z2_category()
    cat, arrows, index = category_over_product(
        (z2, z2), [(0, 0), (0, 0)], admit_all)
    pairs = [(i, j) for i in range(2) for j in range(2)]
    hom = [(p, q) for p in range(2) for q in range(2)]
    assert arrows == tuple(a for _ in pairs for a in hom)
    assert cat.source == tuple(i for i, _ in pairs for _ in hom)
    assert cat.target == tuple(j for _, j in pairs for _ in hom)
    assert index == {(i, j) + a: k for k, ((i, j), a) in
                     enumerate((pair, a) for pair in pairs for a in hom)}
    assert check_category(cat).ok


def test_over_product_identities_and_composites_are_factorwise():
    arrow, z2 = walking_arrow(), z2_category()
    objects = [(x, 0) for x in range(2)]
    cat, arrows, _ = category_over_product((arrow, z2), objects, admit_all)
    assert check_category(cat).ok
    assert cat.num_morphisms == 3 * 2
    for i, (x, y) in enumerate(objects):
        assert arrows[cat.identity[i]] == (arrow.identity[x], z2.identity[y])
    for b in range(cat.num_morphisms):
        for a in range(cat.num_morphisms):
            if cat.target[a] != cat.source[b]:
                assert cat.comp[b][a] == -1
                continue
            assert arrows[cat.comp[b][a]] == (arrow.comp[arrows[b][0]][arrows[a][0]],
                                              z2.comp[arrows[b][1]][arrows[a][1]])


def test_over_product_missing_identity_names_the_construction():
    with pytest.raises(StructureError, match="probe category: the identity"):
        category_over_product((z2_category(),), [(0,)],
                              lambda i, j, arrow: arrow != (0,),
                              what="probe category")


def test_over_product_missing_composite_names_the_construction():
    three = chain_category(3)
    long_arrow = three.hom(0, 2)
    with pytest.raises(StructureError, match="probe category: the composite"):
        category_over_product((three,), [(0,), (1,), (2,)],
                              lambda i, j, arrow: arrow != long_arrow,
                              what="probe category")


def test_over_product_budget_refuses_objects_before_any_morphism():
    calls = []

    def admits(i, j, arrow):
        calls.append((i, j))
        return True

    with pytest.raises(BudgetError) as info:
        category_over_product((discrete_category(3),), [(0,), (1,), (2,)],
                              admits, Budget(max_objects=2), "probe category")
    assert info.value.what == "probe category (objects)"
    assert calls == []


def test_over_product_budget_refuses_morphisms():
    z2 = z2_category()
    objects = [(0, 0), (0, 0)]
    with pytest.raises(BudgetError) as info:
        category_over_product((z2, z2), objects, admit_all,
                              Budget(max_morphisms=15), "probe category")
    assert info.value.what == "probe category (morphisms)"
    assert info.value.estimate == 16
    cat, _, _ = category_over_product((z2, z2), objects, admit_all,
                                      Budget(max_morphisms=16))
    assert cat.num_morphisms == 16


def test_over_product_empty_hom_set_in_one_factor():
    arrow, z2 = walking_arrow(), z2_category()
    cat, arrows, _ = category_over_product((arrow, z2), [(1, 0), (0, 0)], admit_all)
    assert cat.hom(0, 1) == ()
    assert [arrows[k] for k in cat.hom(1, 0)] == [(a, g) for a in arrow.hom(0, 1)
                                                  for g in range(2)]
    assert cat.num_morphisms == 2 + 2 + 2
    assert check_category(cat).ok


# ---------------------------------------------------------------------------
# lifts into categories over a product
# ---------------------------------------------------------------------------

def test_lift_functor_identity_into_fiber_product():
    arrow = walking_arrow()
    ident = identity_functor(arrow)
    fp = fiber_product(ident, ident)
    obj_map = [fp.object_index[(x, x, arrow.identity[x])] for x in range(2)]
    diagonal = lift_functor(arrow, fp.apex, fp.morphism_index, obj_map,
                            [(k, k) for k in range(arrow.num_morphisms)], "diagonal")
    assert check_functor(diagonal).ok
    assert diagonal.object_map == tuple(obj_map)
    assert compose_functors(fp.pr1, diagonal) == ident
    assert compose_functors(fp.pr2, diagonal) == ident


def test_lift_functor_missing_morphism_names_the_morphism():
    arrow = walking_arrow()
    # only identities lie over the diagonal pairs: the arrow has no lift
    cat, _, index = category_over_product((arrow, arrow), [(0, 0), (1, 1)],
                                          lambda i, j, a: i == j)
    (k,) = arrow.hom(0, 1)
    with pytest.raises(MediationError, match=f"probe lift: .* morphism {k}") as info:
        lift_functor(arrow, cat, index, (0, 1),
                     [(f, f) for f in range(arrow.num_morphisms)], "probe lift")
    assert info.value.witness == (k,)


def test_mediation_error_is_a_structure_error():
    assert issubclass(MediationError, StructureError)
    with pytest.raises(StructureError):
        raise MediationError("probe", (0,))
