from dataclasses import replace
from itertools import product

import pytest

from oracles import (
    coboundary_vanishes,
    hcomp_mon_nattrans,
    is_bicharacter,
    vcomp_mon_nattrans,
)
from test_reduced_scans import (
    corpus_apexes,
    corpus_end_categories,
    designed_counterexamples,
    skeletal_categories,
)
from spanforge.laxators import monoidal_fiber_product
from spanforge.fincat import (
    Functor,
    MediationError,
    NatTrans,
    StructureError,
    check_category,
    check_functor,
    check_nat_trans,
    compose_functors,
    group_as_category,
    identity_functor,
    identity_nat_trans,
)
from spanforge.groups import cyclic, klein_four, symmetric_3
from spanforge.monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    check_braided_functor,
    check_braiding,
    check_mon_functor,
    check_mon_nattrans,
    check_monoidal,
    compose_mon_functors,
    identity_mon_functor,
    identity_mon_nattrans,
    is_symmetric,
    lift_mon_functor,
    make_bicharacter_braiding,
    make_discrete_group_category,
    make_skeletal_group_category,
    restrict_braiding,
    restrict_monoidal,
    tabulate_monoidal,
    terminal_monoidal,
    trivial_cochain,
)

Z2 = cyclic(2)
Z3 = cyclic(3)
Z4 = cyclic(4)


def cochain_from(entries, g, u):
    """Dense G^3 -> U table from a sparse {(x,y,z): scalar} dict."""
    n = g.order
    return tuple(tuple(tuple(entries.get((x, y, z), 0) for z in range(n))
                       for y in range(n)) for x in range(n))


def pairing_from(entries, g, u):
    n = g.order
    return tuple(tuple(entries.get((x, y), 0) for y in range(n)) for x in range(n))


def nontrivial_z2_cocycle():
    return cochain_from({(1, 1, 1): 1}, Z2, Z2)


# ---------------------------------------------------------------------------
# partial tensors
# ---------------------------------------------------------------------------

def test_partial_tensor_reads_the_entries():
    # x⊗− and −⊗x at f = id_x for every object x, and f⊗− and −⊗f for every
    # morphism f, equal the per-entry reads; the pool holds tensors that are
    # not symmetric on objects and, on S3, on morphisms
    pool = corpus_apexes() + corpus_end_categories() + skeletal_categories() \
        + designed_counterexamples()[:2]
    for ms in pool:
        base = ms.base
        n, m = base.num_objects, base.num_morphisms
        for x, f in [(x, base.identity[x]) for x in range(n)] + \
                [(base.source[f], f) for f in range(m)]:
            assert ms.partial_tensor(x, f, True) == (
                tuple(ms.tensor_obj(x, y) for y in range(n)),
                tuple(ms.tensor_mor(f, k) for k in range(m)))
            assert ms.partial_tensor(x, f, False) == (
                tuple(ms.tensor_obj(y, x) for y in range(n)),
                tuple(ms.tensor_mor(k, f) for k in range(m)))
    assert any(ms.tensor_rows() != list(zip(*ms.tensor_rows())) for ms in pool)
    assert all(any(ms.tensor_mor(f, g) != ms.tensor_mor(g, f)
                   for f in range(6) for g in range(6))
               for ms in designed_counterexamples()[:2])


# ---------------------------------------------------------------------------
# check_monoidal
# ---------------------------------------------------------------------------

def test_terminal_monoidal_passes():
    assert check_monoidal(terminal_monoidal()).ok


def test_discrete_group_categories_pass():
    for g in (Z2, Z3, symmetric_3(), klein_four()):
        ms = make_discrete_group_category(g)
        assert check_monoidal(ms).ok
        assert ms.base.num_objects == g.order


def test_nontrivial_cocycle_passes():
    omega = nontrivial_z2_cocycle()
    assert coboundary_vanishes(omega, Z2, Z2)  # oracle first
    ms = make_skeletal_group_category(Z2, Z2, omega)
    assert check_monoidal(ms).ok


def test_lawless_base_is_reported_before_the_tensor_laws():
    from dataclasses import replace
    ms = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    comp = [list(row) for row in ms.base.comp]
    comp[0][1] = 0  # id∘a = id breaks the identity law
    lawless = replace(ms, base=replace(ms.base,
                                       comp=tuple(tuple(row) for row in comp)))
    report = check_monoidal(lawless)
    assert not report.ok
    assert {v.law for v in report.violations} >= {"base-left-identity"}
    assert all(v.law.startswith("base-") for v in report.violations)


def test_a_lawless_base_report_keeps_its_truncation():
    # BZ/2 with id∘a = id and a∘id = id: check_category reports both identity
    # laws at a, so at cap 1 its report is truncated, and the check_monoidal
    # report it is merged into says so
    lawless = replace(group_as_category(Z2.mult), comp=((0, 0), (0, 0)))
    ms = tabulate_monoidal(lawless, 0, lambda x, y: 0, lambda f, g, s, t: f)
    base_laws = check_category(lawless, cap=1)
    assert len(base_laws.violations) == 1 and base_laws.truncated
    report = check_monoidal(ms, cap=1)
    assert [v.law for v in report.violations] == ["base-left-identity"]
    assert report.truncated


def test_non_cocycle_fails_pentagon():
    omega = cochain_from({(1, 1, 0): 1}, Z2, Z2)
    assert not coboundary_vanishes(omega, Z2, Z2)
    ms = make_skeletal_group_category(Z2, Z2, omega)
    report = check_monoidal(ms)
    assert not report.ok
    pentagon = [v for v in report.violations if v.law == "pentagon"]
    assert pentagon
    assert any(set(v.witness) >= {1, 0} for v in pentagon)


def test_unnormalized_cocycle_still_passes():
    # scan for a cocycle with omega(x, e, y) != 0 somewhere; the derived
    # unitors must absorb it
    found = None
    for bits in product(range(2), repeat=8):
        omega = tuple(tuple((bits[4 * x + 2 * y], bits[4 * x + 2 * y + 1])
                            for y in range(2)) for x in range(2))
        if coboundary_vanishes(omega, Z2, Z2) and any(
                omega[x][0][y] != 0 for x in range(2) for y in range(2)):
            found = omega
            break
    assert found is not None
    assert check_monoidal(make_skeletal_group_category(Z2, Z2, found)).ok


def test_sampled_z2_z4_cochains_match_oracle():
    # deterministic sample of cochains on Z/2 with Z/4 scalars
    import random
    rng = random.Random(20240817)
    for _ in range(120):
        omega = tuple(tuple(tuple(rng.randrange(4) for _ in range(2))
                            for _ in range(2)) for _ in range(2))
        ms = make_skeletal_group_category(Z2, Z4, omega)
        assert check_monoidal(ms).ok == coboundary_vanishes(omega, Z2, Z4)


# ---------------------------------------------------------------------------
# braidings
# ---------------------------------------------------------------------------

def test_identity_braiding_on_discrete_abelian():
    ms = make_discrete_group_category(Z2)
    beta = tuple(ms.base.identity[ms.tensor_obj(x, y)]
                 for x in range(2) for y in range(2))
    b = Braiding(ms, beta)
    assert check_braiding(b).ok
    assert is_symmetric(b)


def test_z3_multiplication_bicharacter():
    ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    c = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    assert is_bicharacter(c, Z3, Z3)
    b = make_bicharacter_braiding(ms, Z3, c)
    assert check_braiding(b).ok
    # double braiding at (1, 1) is the scalar 2 != 0
    assert not is_symmetric(b)


def test_non_bicharacter_fails_hexagon():
    ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    c = pairing_from({(1, 1): 1}, Z3, Z3)
    assert not is_bicharacter(c, Z3, Z3)
    b = make_bicharacter_braiding(ms, Z3, c)
    report = check_braiding(b)
    assert not report.ok
    assert any(v.law.startswith("hexagon") for v in report.violations)


def test_z2_sign_pairing_is_symmetric():
    ms = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    c = pairing_from({(1, 1): 1}, Z2, Z2)
    assert is_bicharacter(c, Z2, Z2)
    b = make_bicharacter_braiding(ms, Z2, c)
    assert check_braiding(b).ok
    assert is_symmetric(b)


def test_all_z2_pairings_hexagons_iff_bicharacter():
    ms = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    for bits in product(range(2), repeat=4):
        c = (bits[:2], bits[2:])
        b = make_bicharacter_braiding(ms, Z2, c)
        assert check_braiding(b).ok == is_bicharacter(c, Z2, Z2)


def test_sampled_z3_pairings_match_oracle():
    import random
    rng = random.Random(987)
    ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    for _ in range(150):
        c = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        b = make_bicharacter_braiding(ms, Z3, c)
        assert check_braiding(b).ok == is_bicharacter(c, Z3, Z3)


def test_all_z2_to_z4_pairings_match_oracle():
    ms = make_skeletal_group_category(Z2, Z4, trivial_cochain(Z2))
    for bits in product(range(4), repeat=4):
        c = (bits[:2], bits[2:])
        b = make_bicharacter_braiding(ms, Z4, c)
        assert check_braiding(b).ok == is_bicharacter(c, Z2, Z4)


# ---------------------------------------------------------------------------
# monoidal functors and transformations
# ---------------------------------------------------------------------------

def test_identity_mon_functor_passes():
    ms = make_skeletal_group_category(Z2, Z2, nontrivial_z2_cocycle())
    assert check_mon_functor(identity_mon_functor(ms)).ok


def test_doubling_into_z4_passes():
    src = make_discrete_group_category(Z2)
    tgt = make_discrete_group_category(Z4)
    fun = Functor(src.base, tgt.base, (0, 2), (0, 2))
    mf = MonFunctor(src, tgt, fun,
                    tuple(tgt.base.identity[tgt.tensor_obj(2 * x, 2 * y)]
                          for x in range(2) for y in range(2)),
                    tgt.base.identity[0])
    assert check_mon_functor(mf).ok


def twisted_identity(ms, t):
    """Identity functor on a skeletal Z/2 category with gamma scalars t[x][y]."""
    base = ms.base
    fun = Functor(base, base, tuple(range(base.num_objects)),
                  tuple(range(base.num_morphisms)))
    mult = tuple(ms.tensor_obj(x, y) * 2 + t[x][y]
                 for x in range(2) for y in range(2))
    return MonFunctor(ms, ms, fun, mult, base.identity[0])


def test_gamma_twists_pass_iff_two_cocycle():
    ms = make_skeletal_group_category(Z2, Z2, nontrivial_z2_cocycle())

    def is_normalized_2_cocycle(t):
        if t[0][0] or t[0][1] or t[1][0]:
            return False
        for x, y, z in product(range(2), repeat=3):
            lhs = (t[y][z] + t[x][(y + z) % 2]) % 2
            rhs = (t[(x + y) % 2][z] + t[x][y]) % 2
            if lhs != rhs:
                return False
        return True

    seen_pass = seen_fail = False
    for bits in product(range(2), repeat=4):
        t = (bits[:2], bits[2:])
        ok = check_mon_functor(twisted_identity(ms, t)).ok
        assert ok == is_normalized_2_cocycle(t)
        seen_pass |= ok
        seen_fail |= not ok
    assert seen_pass and seen_fail


def test_failing_twist_names_associativity_witness():
    ms = make_skeletal_group_category(Z2, Z2, nontrivial_z2_cocycle())
    # d(t)(0,0,1) = t(0,1) + t(0,0) != 0, so this is not a 2-cocycle
    t = ((0, 1), (0, 0))
    report = check_mon_functor(twisted_identity(ms, t))
    assert any(v.law == "mult-associativity" for v in report.violations)


def test_composition_of_mon_functors_passes():
    src = make_discrete_group_category(Z2)
    mid = make_discrete_group_category(Z4)
    fun = Functor(src.base, mid.base, (0, 2), (0, 2))
    f = MonFunctor(src, mid, fun,
                   tuple(mid.base.identity[mid.tensor_obj(2 * x, 2 * y)]
                         for x in range(2) for y in range(2)),
                   mid.base.identity[0])
    g = identity_mon_functor(mid)
    composed = compose_mon_functors(g, f)
    assert check_mon_functor(composed).ok
    assert composed.underlying.object_map == (0, 2)


def test_mon_nattrans_identity_and_composites():
    ms = make_skeletal_group_category(Z2, Z2, nontrivial_z2_cocycle())
    ident = identity_mon_functor(ms)
    t = identity_mon_nattrans(ident)
    assert check_mon_nattrans(t).ok
    assert check_mon_nattrans(vcomp_mon_nattrans(t, t)).ok
    assert check_mon_nattrans(hcomp_mon_nattrans(t, t)).ok


def test_mon_nattrans_scalar_component():
    # on the one-object-per-element Z/2 carrier with Z/2 scalars, the family
    # with scalar s at object x must satisfy s(x⊗y) = s(x)+s(y): characters
    ms = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    ident = identity_mon_functor(ms)
    for s0, s1 in product(range(2), repeat=2):
        nt = identity_nat_trans(ident.underlying)
        comps = (0 * 2 + s0, 1 * 2 + s1)
        t = MonNatTrans(ident, ident,
                        nt.__class__(nt.source, nt.target, comps))
        ok = check_mon_nattrans(t).ok
        assert ok == (s0 == 0)  # s(e) = 0 forced by s(e) = s(e)+s(e); s1 free


def test_mismatched_contexts_raise():
    a = make_discrete_group_category(Z2)
    b = make_discrete_group_category(Z3)
    with pytest.raises(StructureError):
        compose_mon_functors(identity_mon_functor(a), identity_mon_functor(b))


def test_braided_functor_check():
    from spanforge.groups import klein_four
    z3_ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    c = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    b = make_bicharacter_braiding(z3_ms, Z3, c)
    # inversion preserves the pairing: c(2a, 2b) = 4ab = ab
    inv = MonFunctor(z3_ms, z3_ms,
                     Functor(z3_ms.base, z3_ms.base, (0, 2, 1),
                             tuple((2 * (m // 3)) % 3 * 3 + m % 3
                                   for m in range(9))),
                     tuple(z3_ms.base.identity[z3_ms.tensor_obj((2 * x) % 3,
                                                                (2 * y) % 3)]
                           for x in range(3) for y in range(3)),
                     z3_ms.base.identity[0])
    assert check_braided_functor(inv, b, b).ok
    # swapping the Klein coordinates does not preserve c(a, b) = a1*b2
    g4 = klein_four()
    k_ms = make_skeletal_group_category(g4, Z2, trivial_cochain(g4))
    ck = tuple(tuple(((a // 2) * (x % 2)) % 2 for x in range(4))
               for a in range(4))
    bk = make_bicharacter_braiding(k_ms, Z2, ck)
    swap_coords = (0, 2, 1, 3)
    swap = MonFunctor(k_ms, k_ms,
                      Functor(k_ms.base, k_ms.base, swap_coords,
                              tuple(swap_coords[m // 2] * 2 + m % 2
                                    for m in range(8))),
                      tuple(k_ms.base.identity[k_ms.tensor_obj(
                          swap_coords[x], swap_coords[y])]
                          for x in range(4) for y in range(4)),
                      k_ms.base.identity[0])
    assert check_mon_functor(swap).ok
    report = check_braided_functor(swap, bk, bk)
    assert any(v.law == "braiding-compatibility" for v in report.violations)


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_monoidal_to_subgroup():
    ms = make_discrete_group_category(Z4)
    sub, inc = restrict_monoidal(ms, (0, 2))
    assert check_monoidal(sub).ok
    assert sub.base.num_objects == 2
    beta = tuple(ms.base.identity[ms.tensor_obj(x, y)]
                 for x in range(4) for y in range(4))
    restricted = restrict_braiding(Braiding(ms, beta), sub, inc)
    assert check_braiding(restricted).ok
    assert is_symmetric(restricted)


def test_restrict_rejects_non_closed_subset():
    ms = make_discrete_group_category(Z4)
    with pytest.raises(StructureError):
        restrict_monoidal(ms, (0, 1))


# ---------------------------------------------------------------------------
# lifts into monoidal categories over a product
# ---------------------------------------------------------------------------

def diagonal_square():
    """The monoidal fiber product of the identity of a skeletal Z/2 category
    with Z/2 scalars with itself, and the diagonal object map into it."""
    ms = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    ident = identity_mon_functor(ms)
    square = monoidal_fiber_product(ident, ident)
    oi = square.fp.object_index
    obj_map = [oi[(x, x, ms.base.identity[x])] for x in range(2)]
    return ms, ident, square, obj_map


def lift_diagonal(legs):
    ms, _, square, obj_map = diagonal_square()
    return lift_mon_functor(ms, square.apex, square.fp.morphism_index,
                            obj_map, legs, "probe lift")


def test_lift_mon_functor_identity_into_fiber_product():
    ms, ident, square, obj_map = diagonal_square()
    diagonal = lift_diagonal((ident, ident))
    assert check_mon_functor(diagonal).ok
    assert diagonal.underlying.object_map == tuple(obj_map)
    for pr in (square.pr1, square.pr2):
        assert compose_functors(pr.underlying, diagonal.underlying) \
            == identity_functor(ms.base)


def test_lift_mon_functor_missing_morphism():
    ms, ident, _, _ = diagonal_square()
    # send the scalar at the unit to the identity: its pair does not commute
    flat = replace(ident, underlying=Functor(ms.base, ms.base, (0, 1), (0, 0, 2, 3)))
    with pytest.raises(MediationError, match="probe lift: .* morphism 1") as info:
        lift_diagonal((ident, flat))
    assert info.value.witness == (1,)


def test_lift_mon_functor_missing_multiplicativity_cell():
    ms, ident, _, _ = diagonal_square()
    twisted = twisted_identity(ms, ((0, 0), (0, 1)))
    with pytest.raises(MediationError, match=r"probe lift: .* \(1, 1\)") as info:
        lift_diagonal((twisted, ident))
    assert info.value.witness == (1, 1)


def test_lift_mon_functor_missing_unit_cell():
    ms, ident, _, _ = diagonal_square()
    scaled_unit = replace(ident, unit_iso=1)
    with pytest.raises(MediationError, match="probe lift: .* unit") as info:
        lift_diagonal((ident, scaled_unit))
    assert info.value.witness == ()


def permuted_scalars(n, pairs):
    """The identity monoidal functor of skeletal Z/n with Z/n scalars, its
    morphism map swapping the scalars in each pair at every object: a
    non-functor whose tensor cells are all still identities."""
    zn = cyclic(n)
    ms = make_skeletal_group_category(zn, zn, trivial_cochain(zn))
    swap = list(range(n))
    for a, b in pairs:
        swap[a], swap[b] = b, a
    ident = identity_mon_functor(ms)
    mor_map = tuple(x * n + swap[s] for x in range(n) for s in range(n))
    return replace(ident, underlying=replace(ident.underlying,
                                             morphism_map=mor_map))


def test_sub_checks_run_at_the_callers_cap():
    # the underlying functor and transformation checks ran at the default
    # cap whatever the caller's: 32 of 126 functor violations were merged,
    # with truncated=False
    big = 10 ** 9
    mf = permuted_scalars(6, ((1, 2), (3, 4)))
    own = check_functor(mf.underlying, cap=big)
    assert len(own.violations) == 126 and not own.truncated
    got = check_mon_functor(mf, cap=big)
    assert [v for v in got.violations if v.law.startswith("underlying-")] \
        == [replace(v, law="underlying-" + v.law) for v in own.violations]
    assert not got.truncated
    # identity components from the Z/8 permutation to the identity: 48
    # naturality squares fail
    mf = permuted_scalars(8, ((1, 2), (3, 4), (5, 6)))
    ident = identity_mon_functor(mf.source)
    t = MonNatTrans(mf, ident, NatTrans(mf.underlying, ident.underlying,
                                        mf.source.base.identity))
    own = check_nat_trans(t.underlying, cap=big)
    assert len(own.violations) == 48 and not own.truncated
    got = check_mon_nattrans(t, cap=big)
    assert [v for v in got.violations if v.law.startswith("underlying-")] \
        == [replace(v, law="underlying-" + v.law) for v in own.violations]
