from dataclasses import replace

import pytest

from oracles import _subcat_functor
from spanforge.central import (
    CentralFunctorSetup,
    _induced_into_fiber,
    _phi_quadruples_z2,
    _pull_center,
    _push_center,
    central_module,
    central_module_check,
)
from spanforge.centers import braided_centralizer, drinfeld_center, mueger_center
from spanforge.fincat import (
    Budget,
    BudgetError,
    Functor,
    StructureError,
    identity_nat_trans,
)
from spanforge.groups import cyclic, klein_four, symmetric_3
from spanforge.laxators import monoidal_fiber_product
from spanforge.monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    check_braiding,
    check_mon_functor,
    identity_mon_functor,
    is_symmetric,
    make_bicharacter_braiding,
    make_discrete_group_category,
    make_skeletal_group_category,
    terminal_monoidal,
    trivial_cochain,
)
from spanforge.reporting import ReportBuilder
from test_monoidal import twisted_identity

Z2 = cyclic(2)
Z3 = cyclic(3)


def identity_braiding(ms):
    n = ms.base.num_objects
    return Braiding(ms, tuple(ms.base.identity[ms.tensor_obj(x, y)]
                              for x in range(n) for y in range(n)))


def toric_z2():
    return make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))


def grading_action(base_ms, carrier, center):
    """Discrete Z/2 base acting by the carrier's group grading: the
    generator goes to the nontrivial carrier with its trivial half-braiding."""
    oi = center.object_index
    trivial_char_0 = tuple(carrier.base.identity[carrier.tensor_obj(0, y)]
                           for y in range(carrier.base.num_objects))
    trivial_char_1 = tuple(carrier.base.identity[carrier.tensor_obj(1, y)]
                           for y in range(carrier.base.num_objects))
    obj_map = (oi[(0, trivial_char_0)], oi[(1, trivial_char_1)])
    cat = center.as_category
    mor_map = tuple(cat.identity[obj_map[x]] for x in range(2))
    mult = tuple(cat.identity[center.monoidal.tensor_obj(obj_map[x], obj_map[y])]
                 for x in range(2) for y in range(2))
    return MonFunctor(base_ms, center.monoidal,
                      Functor(base_ms.base, cat, obj_map, mor_map),
                      mult, cat.identity[center.monoidal.unit])


# ---------------------------------------------------------------------------
# centers of the first kind (over a braided base)
# ---------------------------------------------------------------------------

def trivial_base_setup():
    base_ms = terminal_monoidal()
    carrier = toric_z2()
    center = drinfeld_center(carrier)
    module = central_module(identity_braiding(base_ms), carrier,
                            unit_action_into(center, base_ms))
    return CentralFunctorSetup(module, module, identity_mon_functor(carrier),
                               (carrier.base.identity[0],))


def grading_setup(psi_h=None):
    """The grading module mapped to itself by the identity; with psi_h, a
    second identity candidate coupled to the first by the sign character."""
    base_ms = make_discrete_group_category(Z2)
    carrier = toric_z2()
    center = drinfeld_center(carrier)
    module = central_module(identity_braiding(base_ms), carrier,
                            grading_action(base_ms, carrier, center))
    ident = identity_mon_functor(carrier)
    psi = (carrier.base.identity[0], carrier.base.identity[1])
    if psi_h is None:
        return CentralFunctorSetup(module, module, ident, psi)
    # the sign character as a monoidal transformation id -> id
    sgn = MonNatTrans(ident, ident,
                      identity_nat_trans(ident.underlying).__class__(
                          ident.underlying, ident.underlying, (0, 3)))
    return CentralFunctorSetup(module, module, ident, psi, ident, psi_h, sgn)


def test_trivial_base_everything_passes():
    result = central_module_check(trivial_base_setup())
    assert result.report.ok
    assert result.induced is not None
    assert check_braiding(result.fiber.braiding).ok


def test_grading_action_module_passes():
    result = central_module_check(grading_setup())
    assert result.report.ok
    assert result.induced is not None


def test_non_braided_action_is_rejected():
    base_ms = make_discrete_group_category(Z2)
    base = identity_braiding(base_ms)
    carrier = toric_z2()
    center = drinfeld_center(carrier)
    oi = center.object_index
    # send the generator to the sign character on the nontrivial carrier:
    # its self-braiding is -1, which the symmetric base cannot match
    sign_char_1 = tuple(carrier.tensor_obj(1, y) * 2 + (y % 2)
                        for y in range(2))
    assert (1, sign_char_1) in oi
    trivial_char_0 = tuple(carrier.base.identity[carrier.tensor_obj(0, y)]
                           for y in range(2))
    cat = center.as_category
    obj_map = (oi[(0, trivial_char_0)], oi[(1, sign_char_1)])
    action = MonFunctor(base_ms, center.monoidal,
                        Functor(base_ms.base, cat, obj_map,
                                tuple(cat.identity[o] for o in obj_map)),
                        tuple(cat.identity[center.monoidal.tensor_obj(
                            obj_map[x], obj_map[y])]
                            for x in range(2) for y in range(2)),
                        cat.identity[center.monoidal.unit])
    with pytest.raises(StructureError):
        central_module(base, carrier, action)


def test_broken_factorization_is_reported():
    carrier = toric_z2()
    setup = grading_setup(psi_h=(carrier.base.identity[0],
                                 carrier.base.identity[1]))
    result = central_module_check(setup)
    assert not result.report.ok
    assert any(v.law == "compatibility-factorization"
               for v in result.report.violations)


def test_coupled_comparisons_pass_with_phi():
    # xi_h ∘ phi = xi_g forces xi_h to absorb the sign at the odd carrier
    setup = grading_setup(psi_h=(toric_z2().base.identity[0], 3))
    result = central_module_check(setup)
    assert result.report.ok
    assert result.phi_fiber is not None
    assert result.phi_fiber.as_category.num_objects > 0


def test_induced_functor_reports_the_missing_cell():
    # the fiber of the identity with itself, entered by the diagonal: a left
    # action whose morphism, cell or unit cell leaves the fiber is reported
    ms = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    ident = identity_mon_functor(ms)
    fiber = monoidal_fiber_product(ident, ident)
    psi = (ms.base.identity[0], ms.base.identity[1])
    flat = replace(ident, underlying=Functor(ms.base, ms.base, (0, 1), (0, 0, 2, 3)))
    cases = [(flat, "induced-morphism", (1,), "pair is not a fiber morphism"),
             (twisted_identity(ms, ((0, 0), (0, 1))), "induced-mult", (1, 1),
              "pair cell is not a fiber morphism"),
             (replace(ident, unit_iso=1), "induced-unit", (),
              "unit pair is not a fiber morphism")]
    for action, law, witness, detail in cases:
        rb = ReportBuilder("central_module_check")
        induced = _induced_into_fiber(rb, ms, action, ident, fiber, psi)
        assert induced is None
        assert [(v.law, v.witness, v.detail) for v in rb.report().violations] \
            == [(law, witness, detail)]


# ---------------------------------------------------------------------------
# centers of the second kind (over a symmetric base)
# ---------------------------------------------------------------------------

def discrete_z2_braided():
    ms = make_discrete_group_category(Z2)
    return ms, identity_braiding(ms)


def discrete_z2_setup():
    ms, b = discrete_z2_braided()
    module = central_module(b, b, identity_mon_functor(ms))
    psi = tuple(ms.base.identity[x] for x in range(2))
    return CentralFunctorSetup(module, module, identity_mon_functor(ms), psi)


def test_discrete_z2_fiber_is_discrete_z2():
    ms, b = discrete_z2_braided()
    center = mueger_center(b)
    assert center.monoidal == ms  # the whole category is transparent
    result = central_module_check(discrete_z2_setup())
    assert result.report.ok
    assert result.fiber.apex.base.num_objects == 2
    assert is_symmetric(result.fiber.braiding)
    assert result.induced is not None
    # the induced functor is the evident diagonal
    assert result.induced.underlying.object_map == (0, 1)


def unit_action_into(center, base_ms):
    cat = center.as_category
    return MonFunctor(base_ms, center.monoidal,
                      Functor(base_ms.base, cat,
                              (center.monoidal.unit,),
                              (cat.identity[center.monoidal.unit],)),
                      (cat.identity[center.monoidal.unit],),
                      cat.identity[center.monoidal.unit])


def character_phi(ms, scalars):
    ident = identity_mon_functor(ms)
    comps = tuple(ms.base.identity[x] if scalars[x] == 0
                  else x * (ms.base.num_morphisms // ms.base.num_objects) + scalars[x]
                  for x in range(ms.base.num_objects))
    nt = identity_nat_trans(ident.underlying)
    return MonNatTrans(ident, ident, nt.__class__(nt.source, nt.target, comps))


def phi_fiber_setup(name):
    """A central braided module over the terminal base mapped to itself by
    the identity, with phi a character of the carrier's group."""
    if name == "z2-trivial":
        carrier_ms = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
        b = make_bicharacter_braiding(
            carrier_ms, Z2, tuple(tuple(0 for _ in range(2)) for _ in range(2)))
        phi_scalars = (0, 1)
    elif name == "z3-pairing":
        carrier_ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
        b = make_bicharacter_braiding(
            carrier_ms, Z3,
            tuple(tuple((a * c) % 3 for c in range(3)) for a in range(3)))
        phi_scalars = (0, 1, 2)
    else:
        g4 = klein_four()
        carrier_ms = make_skeletal_group_category(g4, Z2, trivial_cochain(g4))
        b = make_bicharacter_braiding(
            carrier_ms, Z2,
            tuple(tuple(((a // 2) * (c % 2)) % 2 for c in range(4))
                  for a in range(4)))
        phi_scalars = (0, 0, 1, 1)
    base_ms = terminal_monoidal()
    base = identity_braiding(base_ms)
    center = mueger_center(b)
    action = unit_action_into(center, base_ms)
    module = central_module(base, b, action)
    ident = identity_mon_functor(carrier_ms)
    phi = character_phi(carrier_ms, phi_scalars)
    unit_carrier = center.objects_data[center.monoidal.unit].carrier
    psi_g = (carrier_ms.base.identity[unit_carrier],)
    # xi_h = xi_g ∘ phi⁻¹ at the unit carrier; the characters vanish there
    psi_h = psi_g
    return CentralFunctorSetup(module, module, ident, psi_g, ident, psi_h, phi), b


@pytest.mark.parametrize("name", ["z2-trivial", "z3-pairing", "klein-pairing"])
def test_phi_fiber_matches_common_subcategory(name):
    setup, b = phi_fiber_setup(name)
    ident = setup.g
    result = central_module_check(setup)
    assert result.report.ok, result.report.lines()
    assert result.phi_matches_common is True
    assert result.common_carriers is not None
    # independent recomputation of the largest common full subcategory
    from spanforge.centers import braided_centralizer
    zg = braided_centralizer(ident, b, b)
    assert set(result.common_carriers) == {o.carrier for o in zg.objects_data}


def unit_inclusion_setup():
    """The terminal central braided module mapped into a Z/3 pairing by the
    unit inclusion, coupled to itself by the identity."""
    carrier_ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    b = make_bicharacter_braiding(
        carrier_ms, Z3,
        tuple(tuple((a * c) % 3 for c in range(3)) for a in range(3)))
    base_ms = terminal_monoidal()
    base = identity_braiding(base_ms)
    center = mueger_center(b)
    action = unit_action_into(center, base_ms)
    module = central_module(base, b, action)
    unit_mf = MonFunctor(base_ms, carrier_ms,
                         Functor(base_ms.base, carrier_ms.base, (0,),
                                 (carrier_ms.base.identity[0],)),
                         (carrier_ms.base.identity[0],),
                         carrier_ms.base.identity[0])
    # central braided module on the terminal carrier, mapped in by the unit
    term_b = identity_braiding(base_ms)
    term_center = mueger_center(term_b)
    term_action = unit_action_into(term_center, base_ms)
    term_module = central_module(base, term_b, term_action)
    phi = MonNatTrans(unit_mf, unit_mf,
                      identity_nat_trans(unit_mf.underlying))
    psi = (carrier_ms.base.identity[0],)
    return CentralFunctorSetup(term_module, module, unit_mf, psi,
                               unit_mf, psi, phi)


def test_phi_fiber_can_be_smaller_than_common_subcategory():
    # against a unit inclusion, every object is relatively transparent but
    # the quadruple category only reaches the transparent ones; the checker
    # reports the mismatch instead of asserting it away
    result = central_module_check(unit_inclusion_setup())
    assert result.report.ok
    assert set(result.common_carriers) == {0, 1, 2}
    assert result.phi_matches_common is False


def test_transparent_quadruple_category_honours_the_morphism_budget():
    setup, _ = phi_fiber_setup("z3-pairing")
    rb = ReportBuilder("central_braided_check")
    fiber = _phi_quadruples_z2(rb, setup, Budget(max_morphisms=27))
    assert fiber.as_category.num_morphisms == 27
    with pytest.raises(BudgetError) as info:
        _phi_quadruples_z2(rb, setup, Budget(max_morphisms=26))
    assert info.value.what == "transparent quadruple category (morphisms)"


def s3_twisted_setup():
    """The unit module over the terminal base on skeletal S3 with Z/2
    scalars, whose Drinfeld center lies over the unit object, mapped to
    itself by the identity with its multiplicativity cell at (1, 2) set to
    the non-trivial scalar: no half-braiding reads that cell."""
    s3 = symmetric_3()
    carrier = make_skeletal_group_category(s3, Z2, trivial_cochain(s3))
    base_ms = terminal_monoidal()
    module = central_module(identity_braiding(base_ms), carrier,
                            unit_action_into(drinfeld_center(carrier), base_ms))
    ident = identity_mon_functor(carrier)
    mult = list(ident.mult)
    mult[1 * 6 + 2] = carrier.tensor_obj(1, 2) * 2 + 1
    return CentralFunctorSetup(module, module, replace(ident, mult=tuple(mult)),
                               (carrier.base.identity[0],))


def test_candidate_is_checked_where_no_half_braiding_reads_it():
    # a check of only what is built from g passes here: push, pull, the
    # fiber braiding and the induced functor are lawful; the candidate is
    # not, so it is reported alone and nothing is built from it
    setup = s3_twisted_setup()
    assert {o.carrier for o in setup.left.center.objects_data} == {0}
    result = central_module_check(setup)
    own = check_mon_functor(setup.g)
    assert {v.law for v in own.violations} == {"mult-associativity"}
    assert result.report.violations == tuple(
        replace(v, law="candidate-" + v.law) for v in own.violations)
    assert len(result.report.violations) == 18
    assert (result.fiber, result.induced) == (None, None)


def central_setups():
    """Every setup checked in this file, by name."""
    setups = {"trivial-base": trivial_base_setup(),
              "grading": grading_setup(),
              "broken-factorization": grading_setup(
                  psi_h=(toric_z2().base.identity[0], toric_z2().base.identity[1])),
              "coupled": grading_setup(psi_h=(toric_z2().base.identity[0], 3)),
              "discrete-z2": discrete_z2_setup(),
              "unit-inclusion": unit_inclusion_setup()}
    for name in ("z2-trivial", "z3-pairing", "klein-pairing"):
        setups[name], _ = phi_fiber_setup(name)
    return setups


@pytest.mark.parametrize("short, message", [
    ("psi_g", "one comparison per base object"),
    ("psi_h", "one comparison per base object"),
    ("phi", "phi needs one component per object"),
])
@pytest.mark.parametrize("name", ["coupled", "z2-trivial"])
def test_short_comparisons_are_refused(name, short, message):
    # one component fewer than required, in each comparison of a setup with
    # a second candidate, over a braided and over a symmetric base
    setup = central_setups()[name]
    if short == "phi":
        nat = setup.phi.underlying
        cut = replace(setup.phi, underlying=replace(
            nat, components=nat.components[:-1]))
    else:
        cut = getattr(setup, short)[:-1]
    with pytest.raises(StructureError, match=message):
        central_module_check(replace(setup, **{short: cut}))


def test_the_z2_route_lifts_g_as_the_z1_route_does():
    # over a symmetric base push and pull, built for the Drinfeld-side
    # centralizer, are the subcategory functors the Z₂ route once built:
    # g of a transparent object is transparent against the image of a
    # braided g, whose conjugated components are the target's braiding
    z2 = [s for s in central_setups().values() if isinstance(s.left.carrier, Braiding)]
    assert len(z2) == 5
    for setup in z2:
        z2g = braided_centralizer(setup.g, setup.left.carrier, setup.right.carrier)
        assert _push_center(setup.g, setup.left.center, z2g) == \
            _subcat_functor(setup.g, setup.left.center, z2g, apply_g=True)
        assert _pull_center(setup.g, setup.right.center, z2g) == \
            _subcat_functor(setup.g, setup.right.center, z2g, apply_g=False)
