import pytest

from oracles import (
    bicharacter_radical,
    brute_force_half_braidings,
    check_intertwiner_actions,
    intertwiner_actions,
)
from spanforge.fincat import (
    Budget,
    BudgetError,
    FinCategory,
    Functor,
    check_category,
    check_functor,
    full_subcategory,
    identity_nat_trans,
)
from spanforge.groups import (
    cyclic,
    dihedral_4,
    klein_four,
    quaternion_8,
    symmetric_3,
)
from spanforge.centers import (
    HptSetup,
    braided_centralizer,
    braided_intertwiner,
    check_hpt_conditions,
    drinfeld_center,
    enumerate_half_braidings,
    monoidal_centralizer,
    monoidal_intertwiner,
    mueger_center,
)
from spanforge.monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    check_braiding,
    check_mon_functor,
    check_monoidal,
    identity_mon_functor,
    is_symmetric,
    make_bicharacter_braiding,
    make_discrete_group_category,
    make_skeletal_group_category,
    terminal_monoidal,
    trivial_cochain,
)

Z2 = cyclic(2)
Z3 = cyclic(3)


def toric_z2():
    return make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))


def identity_braiding(ms):
    n = ms.base.num_objects
    return Braiding(ms, tuple(ms.base.identity[ms.tensor_obj(x, y)]
                              for x in range(n) for y in range(n)))


def idempotent_monoid_monoidal():
    """One object, endomorphisms {1, e} with e∘e = e, tensor by multiplication."""
    from spanforge.monoidal import tabulate_monoidal
    base = FinCategory(1, (0, 0), (0, 0), (0,), ((0, 1), (1, 1)))
    ms = tabulate_monoidal(base, 0, lambda x, y: 0,
                           lambda f, g, s, t: base.comp[f][g])
    assert check_monoidal(ms).ok
    return ms


def monoidal_cases():
    """The ambient categories of the center, centralizer and intertwiner tests."""
    twist = tuple(tuple(tuple(1 if (x, y, z) == (1, 1, 1) else 0
                              for z in range(2)) for y in range(2))
                  for x in range(2))
    cases = [(f"discrete-{name}", make_discrete_group_category(group))
             for name, group in (("z2", cyclic(2)), ("z3", cyclic(3)),
                                 ("z4", cyclic(4)), ("klein", klein_four()),
                                 ("s3", symmetric_3()), ("d4", dihedral_4()),
                                 ("q8", quaternion_8()))]
    cases += [("terminal", terminal_monoidal()), ("toric-z2", toric_z2()),
              ("twisted-z2", make_skeletal_group_category(Z2, Z2, twist)),
              ("idempotent", idempotent_monoid_monoidal())]
    return dict(cases)


# ---------------------------------------------------------------------------
# Drinfeld center
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group, expected", [
    (cyclic(2), 2),
    (cyclic(3), 3),
    (cyclic(4), 4),
    (klein_four(), 4),
    (symmetric_3(), 1),
    (dihedral_4(), 2),
    (quaternion_8(), 2),
])
def test_center_counts_of_discrete_group_categories(group, expected):
    ms = make_discrete_group_category(group)
    center = drinfeld_center(ms)
    # oracle: independent full-product enumeration of half-braidings
    oracle = sum(len(brute_force_half_braidings(ms, x))
                 for x in range(ms.base.num_objects))
    assert center.as_category.num_objects == oracle == expected
    assert check_braiding(center.braiding).ok


def test_center_of_terminal_is_terminal():
    center = drinfeld_center(terminal_monoidal())
    assert center.as_category.num_objects == 1
    assert center.as_category.num_morphisms == 1


def test_center_of_toric_z2():
    ms = toric_z2()
    center = drinfeld_center(ms)
    oracle = sum(len(brute_force_half_braidings(ms, x)) for x in range(2))
    assert center.as_category.num_objects == oracle == 4
    assert check_monoidal(center.monoidal).ok
    assert check_braiding(center.braiding).ok
    assert not is_symmetric(center.braiding)
    assert check_functor(center.forgetful).ok
    assert check_category(center.as_category).ok


def test_center_of_twisted_z2():
    omega = tuple(tuple(tuple(1 if (x, y, z) == (1, 1, 1) else 0
                              for z in range(2)) for y in range(2))
                  for x in range(2))
    ms = make_skeletal_group_category(Z2, Z2, omega)
    center = drinfeld_center(ms)
    oracle = sum(len(brute_force_half_braidings(ms, x)) for x in range(2))
    # the twist obstructs half-braidings on the nontrivial object
    assert center.as_category.num_objects == oracle == 2
    assert all(o.carrier == 0 for o in center.objects_data)
    assert check_braiding(center.braiding).ok


def carry_cocycle(n, k):
    """k times the carry cocycle of Z/n, a generator of H³(Z/n, Z/n)."""
    return tuple(tuple(tuple(k * a * ((b + c) // n) % n for c in range(n))
                       for b in range(n)) for a in range(n))


@pytest.mark.parametrize("n, k, expected", [(6, 0, 36), (6, 1, 6), (7, 1, 7)])
def test_center_sizes_of_skeletal_cyclic_groups(n, k, expected):
    # Z/n with Z/n scalars: n² objects for the trivial class, n for the
    # carry class; each carrier took the search through n^n candidate
    # families while it tested the hexagons on complete families only
    zn = cyclic(n)
    center = drinfeld_center(make_skeletal_group_category(zn, zn, carry_cocycle(n, k)))
    assert center.as_category.num_objects == expected


@pytest.mark.parametrize("name", list(monoidal_cases()))
def test_center_enumeration_matches_oracle_per_object(name):
    ms = monoidal_cases()[name]
    ident = identity_mon_functor(ms)
    for x in range(ms.base.num_objects):
        assert enumerate_half_braidings(ms, ident, ident, x, lax=False) == \
            brute_force_half_braidings(ms, x)


def test_center_budgets_keep_their_labels():
    # toric Z/2 has two half-braidings on each carrier; the budget sees the
    # running object count after each carrier
    ident = identity_mon_functor(toric_z2())
    for build, label in ((lambda b: drinfeld_center(toric_z2(), b),
                          "drinfeld center (objects)"),
                         (lambda b: monoidal_centralizer(ident, b),
                          "monoidal centralizer (objects)")):
        with pytest.raises(BudgetError) as info:
            build(Budget(max_objects=1))
        assert (info.value.what, info.value.estimate) == (label, 2)


# ---------------------------------------------------------------------------
# Mueger center
# ---------------------------------------------------------------------------

def test_mueger_of_symmetric_is_everything():
    ms = make_discrete_group_category(klein_four())
    b = identity_braiding(ms)
    center = mueger_center(b)
    assert center.as_category.num_objects == 4
    assert is_symmetric(center.braiding)


def test_mueger_of_z3_pairing_is_radical():
    ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    c = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    b = make_bicharacter_braiding(ms, Z3, c)
    center = mueger_center(b)
    radical = bicharacter_radical(c, Z3, Z3)
    assert radical == {0}
    assert tuple(o.carrier for o in center.objects_data) == tuple(sorted(radical))
    assert is_symmetric(center.braiding)
    # the center is the full subcategory on the radical, table-exactly
    sub, _ = full_subcategory(ms.base, tuple(sorted(radical)))
    assert center.as_category == sub


def test_mueger_of_klein_pairing():
    g = klein_four()
    ms = make_skeletal_group_category(g, Z2, trivial_cochain(g))
    # c(a, b) = a1*b2 is a bicharacter with trivial radical
    c = tuple(tuple(((a // 2) * (b % 2)) % 2 for b in range(4)) for a in range(4))
    b = make_bicharacter_braiding(ms, Z2, c)
    assert check_braiding(b).ok
    center = mueger_center(b)
    radical = bicharacter_radical(c, g, Z2)
    assert {o.carrier for o in center.objects_data} == radical == {0}
    assert is_symmetric(center.braiding)


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------

def test_centralizer_of_identity_equals_center():
    for ms in (make_discrete_group_category(symmetric_3()), toric_z2()):
        center = drinfeld_center(ms)
        centralizer = monoidal_centralizer(identity_mon_functor(ms))
        assert centralizer.objects_data == center.objects_data
        assert centralizer.as_category == center.as_category
        assert centralizer.forgetful == center.forgetful
        assert centralizer.monoidal == center.monoidal


def test_braided_centralizer_of_identity_equals_mueger():
    ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    c = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    b = make_bicharacter_braiding(ms, Z3, c)
    z2_id = braided_centralizer(identity_mon_functor(ms), b, b)
    mueger = mueger_center(b)
    assert z2_id == mueger


def test_centralizer_of_unit_inclusion():
    ms = toric_z2()
    unit = terminal_monoidal()
    incl = MonFunctor(unit, ms,
                      Functor(unit.base, ms.base, (0,), (0,)),
                      (ms.base.identity[0],), ms.base.identity[0])
    assert check_mon_functor(incl).ok
    z1 = monoidal_centralizer(incl)
    # each object of the carrier with each valid braiding against the unit
    assert {o.carrier for o in z1.objects_data} == {0, 1}
    assert check_monoidal(z1.monoidal).ok


def test_braided_centralizer_of_unit_inclusion_is_everything():
    ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    c = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    b = make_bicharacter_braiding(ms, Z3, c)
    unit = terminal_monoidal()
    incl = MonFunctor(unit, ms, Functor(unit.base, ms.base, (0,), (0,)),
                      (ms.base.identity[0],), ms.base.identity[0])
    triv = identity_braiding(unit)
    z2 = braided_centralizer(incl, triv, b)
    assert z2.as_category.num_objects == 3


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

def test_intertwiner_of_identities_on_discrete_matches_center():
    ms = make_discrete_group_category(cyclic(4))
    ident = identity_mon_functor(ms)
    intertwiner = monoidal_intertwiner(ident, ident)
    center = drinfeld_center(ms)
    assert tuple((o.carrier, o.components) for o in intertwiner.objects_data) == \
        tuple((o.carrier, o.components) for o in center.objects_data)
    assert intertwiner.as_category == center.as_category
    result = intertwiner_actions(ident, ident, intertwiner)
    assert check_functor(result.left_action).ok
    assert check_functor(result.right_action).ok
    assert check_intertwiner_actions(result).ok


def test_lax_intertwiner_strictly_contains_invertible_part():
    ms = idempotent_monoid_monoidal()
    ident = identity_mon_functor(ms)
    lax = monoidal_intertwiner(ident, ident)
    centralizer = monoidal_centralizer(ident)
    lax_objects = {(o.carrier, o.components) for o in lax.objects_data}
    strict_objects = {(o.carrier, o.components) for o in centralizer.objects_data}
    assert strict_objects < lax_objects
    # the invertible filter recovers the centralizer exactly
    invertible = {(o.carrier, o.components) for o in lax.objects_data
                  if all(ms.base.is_iso(c) for c in o.components)}
    assert invertible == strict_objects


def test_intertwiner_of_terminal_target():
    unit = terminal_monoidal()
    ident = identity_mon_functor(unit)
    intertwiner = monoidal_intertwiner(ident, ident)
    assert intertwiner.as_category.num_objects == 1
    assert check_intertwiner_actions(
        intertwiner_actions(ident, ident, intertwiner)).ok


def test_intertwiner_action_squares_honour_the_budget():
    # the library builds no action squares, so the intertwiner fits in a
    # budget the 64-morphism squares of its actions exceed
    ident = identity_mon_functor(toric_z2())
    intertwiner = monoidal_intertwiner(ident, ident, Budget(max_morphisms=8))
    assert intertwiner.as_category.num_morphisms == 8
    result = intertwiner_actions(ident, ident, intertwiner, Budget(max_morphisms=64))
    assert result.left_center.as_category.num_morphisms == 8
    assert result.right_center.as_category.num_morphisms == 8
    assert result.left_action.source.num_morphisms == 64
    with pytest.raises(BudgetError) as info:
        intertwiner_actions(ident, ident, intertwiner, Budget(max_morphisms=8))
    assert info.value.what == "product category (morphisms)"
    assert info.value.estimate == 64

def braided_embedding(ms_a, ms_b, obj_map):
    """MonFunctor between skeletal group categories from a group embedding."""
    nu_a = ms_a.base.num_morphisms // ms_a.base.num_objects
    nu_b = ms_b.base.num_morphisms // ms_b.base.num_objects
    assert nu_a == nu_b  # same scalars on both sides
    mor_map = []
    for m in range(ms_a.base.num_morphisms):
        x, u = divmod(m, nu_a)
        mor_map.append(obj_map[x] * nu_b + u)
    fun = Functor(ms_a.base, ms_b.base, tuple(obj_map), tuple(mor_map))
    n = ms_a.base.num_objects
    mult = tuple(ms_b.base.identity[ms_b.tensor_obj(obj_map[x], obj_map[y])]
                 for x in range(n) for y in range(n))
    return MonFunctor(ms_a, ms_b, fun, mult, ms_b.base.identity[0])


def test_braided_intertwiner_union():
    g4 = klein_four()
    ms_b = make_skeletal_group_category(g4, Z2, trivial_cochain(g4))
    c = tuple(tuple(((a // 2) * (b % 2)) % 2 for b in range(4)) for a in range(4))
    b_target = make_bicharacter_braiding(ms_b, Z2, c)
    assert check_braiding(b_target).ok
    ms_a = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    b_source = make_bicharacter_braiding(
        ms_a, Z2, tuple(tuple(0 for _ in range(2)) for _ in range(2)))
    g = braided_embedding(ms_a, ms_b, (0, 2))  # a ↦ (a, 0)
    h = braided_embedding(ms_a, ms_b, (0, 1))  # a ↦ (0, a)
    zg = braided_centralizer(g, b_source, b_target)
    zh = braided_centralizer(h, b_source, b_target)
    assert {o.carrier for o in zg.objects_data} == {0, 2}
    assert {o.carrier for o in zh.objects_data} == {0, 1}
    sub, carriers = braided_intertwiner(g, h, b_source, b_target)
    assert carriers == (0, 1, 2)
    # the union subcategory, computed independently
    expected, inclusion = full_subcategory(
        ms_b.base,
        tuple(sorted({o.carrier for o in zg.objects_data}
                     | {o.carrier for o in zh.objects_data})))
    assert sub == expected
    assert check_functor(inclusion).ok


def test_braided_intertwiner_of_equal_functors():
    ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    c = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    b = make_bicharacter_braiding(ms, Z3, c)
    ident = identity_mon_functor(ms)
    sub, carriers = braided_intertwiner(ident, ident, b, b)
    z2 = braided_centralizer(ident, b, b)
    assert carriers == tuple(o.carrier for o in z2.objects_data)


# ---------------------------------------------------------------------------
# compatibility conditions
# ---------------------------------------------------------------------------

def test_hpt_identity_setup_passes():
    ms = toric_z2()
    center = drinfeld_center(ms)
    ident = identity_mon_functor(ms)
    m_half = center.objects_data[0]
    setup = HptSetup(ident, m_half, m_half,
                     ms.base.identity[m_half.carrier])
    assert check_hpt_conditions(setup).ok


def test_hpt_mismatched_half_braidings_fail_with_witness():
    ms = toric_z2()
    center = drinfeld_center(ms)
    ident = identity_mon_functor(ms)
    on_unit = [o for o in center.objects_data if o.carrier == 0]
    assert len(on_unit) == 2
    setup = HptSetup(ident, on_unit[0], on_unit[1], ms.base.identity[0])
    report = check_hpt_conditions(setup)
    assert not report.ok
    assert any(v.law == "half-braiding-square-g" and v.witness == (1,)
               for v in report.violations)


def test_hpt_factorization_condition():
    ms = toric_z2()
    center = drinfeld_center(ms)
    ident = identity_mon_functor(ms)
    m_half = center.objects_data[0]
    # phi: identity functor -> identity functor with scalar s at each object
    for s in range(2):
        comps = tuple(x * 2 + s for x in range(2))
        nt = identity_nat_trans(ident.underlying)
        phi = MonNatTrans(ident, ident, nt.__class__(nt.source, nt.target, comps))
        xi_h = ms.base.identity[0]
        xi_g = ms.base.comp[xi_h][comps[0]]
        good = HptSetup(ident, m_half, m_half, xi_g, ident, xi_h, phi)
        assert check_hpt_conditions(good).ok
        if s != 0:
            bad = HptSetup(ident, m_half, m_half, xi_h, ident, xi_h, phi)
            report = check_hpt_conditions(bad)
            assert any(v.law == "factorization" for v in report.violations)
