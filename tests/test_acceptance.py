"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer table equality); the only tolerances are the
stated runtime ceilings.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""
import pathlib
import time
from itertools import product

import corpus
from oracles import (
    bicharacter_radical,
    brute_force_half_braidings,
    coboundary_vanishes,
)
from spanforge.centers import (
    HptSetup,
    braided_centralizer,
    check_hpt_conditions,
    drinfeld_center,
    monoidal_centralizer,
    mueger_center,
)
from spanforge.central import central_module_check
from spanforge.cli import main as cli_main
from spanforge.docs import parse, serialize
from spanforge.fincat import (
    full_subcategory,
    identity_functor,
    identity_nat_trans,
)
from spanforge.groups import (
    cyclic,
    dihedral_4,
    klein_four,
    quaternion_8,
    symmetric_3,
)
from spanforge.laxators import (
    laxator,
    laxator_coherence,
    normalization_check,
    quadruple_pasting_check,
)
from spanforge.limits import comma, fiber_product, mediate_2cell
from spanforge.monoidal import (
    check_braiding,
    check_mon_functor,
    check_mon_nattrans,
    check_monoidal,
    identity_mon_functor,
    is_symmetric,
    make_bicharacter_braiding,
    make_discrete_group_category,
    make_skeletal_group_category,
    trivial_cochain,
)
from spanforge.spans import (
    build_span,
    build_two_span,
    module_structures_on,
)

DATA = pathlib.Path(__file__).parent / "data"
Z2 = cyclic(2)
Z3 = cyclic(3)
Z4 = cyclic(4)


def criterion(number: int, label: str, elapsed: float, bound: float) -> None:
    status = "pass" if elapsed < bound else "slow"
    print(f"criterion {number:02d} [{status}] {label}: "
          f"{elapsed:.2f}s (bound {bound:.0f}s)")
    assert elapsed < bound, f"criterion {number} exceeded {bound}s"


def all_z2_cochains():
    for bits in product(range(2), repeat=8):
        yield tuple(tuple(tuple(bits[4 * x + 2 * y + z] for z in range(2))
                          for y in range(2)) for x in range(2))


def test_criterion_01_coherence_iff_cohomology():
    start = time.monotonic()
    passing = set()
    cocycles = set()
    for omega in all_z2_cochains():
        ms = make_skeletal_group_category(Z2, Z2, omega)
        if check_monoidal(ms).ok:
            passing.add(omega)
        if coboundary_vanishes(omega, Z2, Z2):
            cocycles.add(omega)
    assert passing == cocycles
    assert len(cocycles) == 8  # computed once by the coboundary oracle
    criterion(1, "coherence holds exactly for the 3-cocycles",
              time.monotonic() - start, 5.0)


def test_criterion_02_drinfeld_center_counts():
    start = time.monotonic()
    expected = [
        (cyclic(2), 2), (cyclic(3), 3), (cyclic(4), 4), (klein_four(), 4),
        (symmetric_3(), 1), (dihedral_4(), 2), (quaternion_8(), 2),
    ]
    for group, count in expected:
        ms = make_discrete_group_category(group)
        center = drinfeld_center(ms)
        oracle = sum(len(brute_force_half_braidings(ms, x))
                     for x in range(ms.base.num_objects))
        assert center.as_category.num_objects == oracle == count
        assert check_braiding(center.braiding).ok
    criterion(2, "center sizes match the half-braiding oracle",
              time.monotonic() - start, 10.0)


def test_criterion_03_mueger_center_is_the_radical():
    start = time.monotonic()
    pinned = [
        (Z2, Z2, tuple(tuple(0 for _ in range(2)) for _ in range(2))),
        (Z2, Z2, tuple(tuple((a * b) % 2 for b in range(2)) for a in range(2))),
        (Z3, Z3, tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))),
        (Z4, Z4, tuple(tuple((a * b) % 4 for b in range(4)) for a in range(4))),
        (klein_four(), Z2,
         tuple(tuple(((a // 2) * (b % 2)) % 2 for b in range(4))
               for a in range(4))),
    ]
    for group, scalars, pairing in pinned:
        ms = make_skeletal_group_category(group, scalars,
                                          trivial_cochain(group))
        b = make_bicharacter_braiding(ms, scalars, pairing)
        assert check_braiding(b).ok
        center = mueger_center(b)
        radical = tuple(sorted(bicharacter_radical(pairing, group, scalars)))
        assert tuple(o.carrier for o in center.objects_data) == radical
        sub, _ = full_subcategory(ms.base, radical)
        assert center.as_category == sub
        assert is_symmetric(center.braiding)
    criterion(3, "transparent subcategory equals the pairing radical",
              time.monotonic() - start, 2.0)


def test_criterion_04_span_suite():
    start = time.monotonic()
    entries = corpus.span_corpus()
    assert len(entries) >= 20
    for name, fd in entries:
        # build_span(verify=True) checks the tensor against the table form
        # of the mediator and the unitors against their unique 2-cells;
        # disagreement raises instead of passing silently
        cell = build_span(fd, verify=True)
        assert check_monoidal(cell.apex).ok, name
        assert check_mon_functor(cell.leg_left).ok, name
        assert check_mon_functor(cell.leg_right).ok, name
        assert check_mon_functor(cell.action_lift).ok, name
    criterion(4, f"{len(entries)} spans pass apex and leg coherence",
              time.monotonic() - start, 60.0)


def test_criterion_05_structure_bijection():
    from test_spans import count_monoidal_lifts
    start = time.monotonic()
    seen_zero = seen_many = False
    for name, fd in corpus.span_corpus():
        found = module_structures_on(fd.f, fd.dom, fd.cod)
        lifts = count_monoidal_lifts(fd.f, fd.dom, fd.cod)
        assert len(found) == lifts, name
        seen_many = seen_many or len(found) >= 2
    swap = corpus.m_swap_action()
    trivial = corpus.m_trivial_z2_on_disc2()
    ident = identity_functor(corpus.discrete_category(2))
    zero = module_structures_on(ident, swap, trivial)
    assert zero == []
    from test_spans import count_monoidal_lifts as _count
    assert _count(ident, swap, trivial) == 0
    seen_zero = True
    assert seen_zero and seen_many
    criterion(5, "transport families = monoidal lifts, with 0 and >=2 cases",
              time.monotonic() - start, 60.0)


def test_criterion_06_two_span_suite_and_mutations():
    start = time.monotonic()
    for name, ad in corpus.nattrans_corpus():
        cell = build_two_span(ad)
        assert check_monoidal(cell.apex).ok, name
        assert check_mon_functor(cell.action_lift).ok, name
        for leg in cell.vertical_legs:
            assert check_mon_functor(leg).ok, name
        for fill in cell.vertical_fillers:
            assert check_mon_nattrans(fill).ok, name

    # mutation testing: disabling any one membership condition admits a
    # counterexample object on some corpus instance
    witness_c = witness_a = witness_b = False
    for name, ad in corpus.nattrans_corpus():
        cell = build_two_span(ad)
        span_f, span_g = cell.top, cell.bottom
        admitted = {(o[0], o[1], o[2], o[3]) for o in cell.apex_objects}
        # condition (c) off: every (P, Q)-matched pair of span objects
        unfiltered = {(pf, qf, xf, xg)
                      for pf, qf, xf in span_f.fp.objects
                      for pg, qg, xg in span_g.fp.objects
                      if (pf, qf) == (pg, qg)}
        if unfiltered > admitted:
            witness_c = True
        # condition (a) off: non-invertible comparisons on the source side
        lax_f = comma(span_f.fp.left, span_f.fp.right)
        if len(lax_f.objects) > len(span_f.fp.objects):
            witness_a = True
        lax_g = comma(span_g.fp.left, span_g.fp.right)
        if len(lax_g.objects) > len(span_g.fp.objects):
            witness_b = True
    assert witness_a and witness_b and witness_c
    criterion(6, "2-spans pass checks; each membership condition is load-bearing",
              time.monotonic() - start, 60.0)


def test_criterion_07_lax_functoriality():
    start = time.monotonic()
    for name, fd, gd in corpus.composable_pairs():
        result = laxator(fd, gd)
        assert check_mon_functor(result.comparison).ok, name
    verified = 0
    for name, fd, gd, hd in corpus.composable_triples():
        result = laxator_coherence(fd, gd, hd)
        assert result.cell_report.ok, name
        assert result.cell_is_identity, name
        verified += 1
    for name, fd, gd, hd, kd in corpus.composable_quadruples():
        report = quadruple_pasting_check(fd, gd, hd, kd)
        assert report.ok, name
        verified += 1
    assert verified >= 10
    seen_modules = []
    for name, fd in corpus.span_corpus():
        for md in (fd.dom, fd.cod):
            if any(md == other for other in seen_modules):
                continue
            seen_modules.append(md)
            result = normalization_check(md)
            assert result.report.ok, name
    criterion(7, f"laxators monoidal; {verified} pastings table-equal; "
              "normalization holds", time.monotonic() - start, 60.0)


def limits_corpus():
    from spanforge.fincat import group_as_category, walking_arrow
    bs3 = group_as_category(symmetric_3().mult)
    bz4 = group_as_category(Z4.mult)
    arrow = walking_arrow()
    idem = corpus.idempotent_monoid()
    out = [
        fiber_product(identity_functor(bs3), identity_functor(bs3)),
        fiber_product(identity_functor(bz4), identity_functor(bz4)),
        comma(identity_functor(arrow), identity_functor(arrow)),
        comma(identity_functor(idem), identity_functor(idem)),
        fiber_product(identity_functor(corpus.discrete_category(3)),
                      identity_functor(corpus.discrete_category(3))),
    ]
    for name in ("arrow-id", "disc2-into-arrow", "bz2-id", "idem-id"):
        out.append(build_span(dict(corpus.span_corpus())[name]).fp)
    return out


def test_criterion_08_unique_mediating_cell():
    from test_limits import mediating_cells
    start = time.monotonic()
    checked = 0
    for result in limits_corpus():
        if result.apex.num_objects > 64:
            continue
        u = identity_functor(result.apex)
        g1 = identity_nat_trans(result.pr1)
        g2 = identity_nat_trans(result.pr2)
        theta = mediate_2cell(result, u, u, g1, g2)
        assert mediating_cells(result, u, u, g1, g2) == [theta]
        checked += 1
    # a non-identity pair on the abelian group instance
    from spanforge.fincat import NatTrans, group_as_category
    bz4 = group_as_category(Z4.mult)
    fp = fiber_product(identity_functor(bz4), identity_functor(bz4))
    u = identity_functor(fp.apex)
    for central in range(1, 4):
        g1 = NatTrans(fp.pr1, fp.pr1, (central,) * fp.apex.num_objects)
        g2 = NatTrans(fp.pr2, fp.pr2, (central,) * fp.apex.num_objects)
        theta = mediate_2cell(fp, u, u, g1, g2)
        assert mediating_cells(fp, u, u, g1, g2) == [theta]
        checked += 1
    assert checked >= 10
    criterion(8, f"exactly one mediating 2-cell on {checked} instances",
              time.monotonic() - start, 60.0)


def test_criterion_09_center_machinery():
    start = time.monotonic()
    # centralizers of identities agree with the centers, table-exactly
    for ms in (make_discrete_group_category(symmetric_3()),
               make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))):
        center = drinfeld_center(ms)
        z1 = monoidal_centralizer(identity_mon_functor(ms))
        assert z1.objects_data == center.objects_data
        assert z1.as_category == center.as_category
        assert z1.monoidal == center.monoidal
    z3_ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    pairing = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    b = make_bicharacter_braiding(z3_ms, Z3, pairing)
    assert braided_centralizer(identity_mon_functor(z3_ms), b, b) \
        == mueger_center(b)

    # the pair braiding on fiber products of centers
    from test_central import grading_action, identity_braiding
    from spanforge.central import CentralFunctorSetup, central_module
    base_ms = make_discrete_group_category(Z2)
    base = identity_braiding(base_ms)
    carrier = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    center = drinfeld_center(carrier)
    module = central_module(base, carrier,
                            grading_action(base_ms, carrier, center))
    setup = CentralFunctorSetup(module, module, identity_mon_functor(carrier),
                                (carrier.base.identity[0],
                                 carrier.base.identity[1]))
    result = central_module_check(setup)
    assert result.report.ok
    assert check_braiding(result.fiber.braiding).ok

    # transparent quadruple categories match the common subcategory on the
    # three pinned instances
    from test_central import test_phi_fiber_matches_common_subcategory
    for name in ("z2-trivial", "z3-pairing", "klein-pairing"):
        test_phi_fiber_matches_common_subcategory(name)

    # compatibility fixtures, positive and negative
    toric = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    tcenter = drinfeld_center(toric)
    ident = identity_mon_functor(toric)
    m_half = tcenter.objects_data[0]
    assert check_hpt_conditions(HptSetup(
        ident, m_half, m_half, toric.base.identity[0])).ok
    on_unit = [o for o in tcenter.objects_data if o.carrier == 0]
    negative = check_hpt_conditions(HptSetup(
        ident, on_unit[0], on_unit[1], toric.base.identity[0]))
    assert not negative.ok
    criterion(9, "identity centralizers, pair braidings, quadruple matches, "
              "compatibility fixtures", time.monotonic() - start, 60.0)


EXIT_MATRIX = [
    ("validate", {0: ["validate", "terminal_category.json"],
                  1: ["validate", "broken_category.json"],
                  2: ["validate", "malformed_dangling.json"]}),
    ("center", {0: ["center", "z2_trivial_monoidal.json"],
                1: ["center", "broken_monoidal.json"],
                2: ["center", "terminal_category.json"]}),
    ("mueger", {0: ["mueger", "z3_bicharacter_braiding.json"],
                1: ["mueger", "broken_braiding.json"],
                2: ["mueger", "malformed_version.json"]}),
    ("centralizer", {0: ["centralizer", "z1", "toric_identity_mon_functor.json"],
                     1: ["centralizer", "z1", "broken_mon_functor.json"],
                     2: ["centralizer", "z1", "terminal_category.json"]}),
    ("intertwiner", {0: ["intertwiner", "z1",
                         "disc_z2_identity_mon_functor.json",
                         "disc_z2_identity_mon_functor.json"],
                     1: ["intertwiner", "z1", "broken_mon_functor.json",
                         "toric_identity_mon_functor.json"],
                     2: ["intertwiner", "z1", "toric_identity_mon_functor.json",
                         "malformed_dangling.json"]}),
    ("fiber-product", {0: ["fiber-product", "arrow_identity_functor.json",
                           "arrow_identity_functor.json"],
                       1: ["fiber-product", "broken_functor.json",
                           "arrow_identity_functor.json"],
                       2: ["fiber-product", "arrow_identity_functor.json",
                           "disc2_swap_functor.json"]}),
    ("comma", {0: ["comma", "arrow_identity_functor.json",
                   "arrow_identity_functor.json"],
               1: ["comma", "broken_functor.json",
                   "arrow_identity_functor.json"],
               2: ["comma", "arrow_identity_functor.json",
                   "malformed_unknown_field.json"]}),
    ("end", {0: ["end", "walking_arrow.json"],
             1: ["end", "broken_category.json"],
             2: ["end", "malformed_dangling.json"]}),
    ("build-span", {0: ["build-span", "arrow_identity_module_functor.json"],
                    1: ["build-span", "broken_module_functor.json"],
                    2: ["build-span", "terminal_category.json"]}),
    ("build-2span", {0: ["build-2span",
                         "arrow_const0_to_id_module_nattrans.json"],
                     1: ["build-2span", "broken_module_nattrans.json"],
                     2: ["build-2span", "malformed_version.json"]}),
    ("laxator", {0: ["laxator", "disc2_into_arrow_module_functor.json",
                     "arrow_into_bz2_module_functor.json"],
                 1: ["laxator", "broken_module_functor.json",
                     "arrow_identity_module_functor.json"],
                 2: ["laxator", "arrow_identity_module_functor.json",
                     "disc2_into_arrow_module_functor.json"]}),
    ("laxator-coherence", {0: ["laxator-coherence",
                               "disc2_into_arrow_module_functor.json",
                               "arrow_to_terminal_module_functor.json",
                               "terminal_identity_module_functor.json"],
                           1: ["laxator-coherence",
                               "broken_module_functor.json",
                               "arrow_identity_module_functor.json",
                               "arrow_identity_module_functor.json"],
                           2: ["laxator-coherence",
                               "arrow_identity_module_functor.json",
                               "arrow_identity_module_functor.json",
                               "malformed_dangling.json"]}),
    ("module-structures", {0: ["module-structures", "swap_action_module.json",
                               "swap_action_module.json",
                               "disc2_swap_functor.json"],
                           1: ["module-structures", "swap_action_module.json",
                               "swap_action_module.json",
                               "broken_disc2_functor.json"],
                           2: ["module-structures", "swap_action_module.json",
                               "swap_action_module.json",
                               "arrow_identity_functor.json"]}),
    ("central-check", {0: ["central-check", "z2", "discrete_z2_braiding.json",
                           "discrete_z2_braiding.json",
                           "discrete_z2_braiding.json",
                           "disc_z2_mueger_action.json",
                           "disc_z2_mueger_action.json",
                           "disc_z2_identity_mon_functor.json",
                           "disc_z2_psi.json"],
                       1: ["central-check", "z2", "discrete_z2_braiding.json",
                           "discrete_z2_braiding.json",
                           "discrete_z2_braiding.json",
                           "disc_z2_mueger_action.json",
                           "disc_z2_mueger_action.json",
                           "disc_z2_identity_mon_functor.json",
                           "disc_z2_psi_bad.json"],
                       2: ["central-check", "z2", "discrete_z2_braiding.json",
                           "discrete_z2_braiding.json",
                           "discrete_z2_braiding.json"]}),
    ("normalize-check", {0: ["normalize-check", "arrow_trivial_module.json"],
                         1: ["normalize-check", "broken_module.json"],
                         2: ["normalize-check", "malformed_dangling.json"]}),
]


def test_criterion_10_plumbing(capsys):
    start = time.monotonic()
    # canonical round-trips over the whole golden corpus
    for path in sorted(DATA.glob("*.json")):
        if path.name.startswith("malformed"):
            continue
        text = path.read_text()
        doc = parse(text)
        assert serialize(doc) == text, path.name
        assert parse(serialize(doc)) == doc, path.name
    # determinism of structured reports
    argv = ["--report", "structured", "center",
            str(DATA / "z2_trivial_monoidal.json")]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    # exit-code contract: every subcommand hits every code
    for name, cases in EXIT_MATRIX:
        for expected, argv in sorted(cases.items()):
            full = [a if a.endswith("json") is False else str(DATA / a)
                    for a in argv]
            code = cli_main(full)
            capsys.readouterr()
            assert code == expected, (name, expected, argv, code)
    criterion(10, "round-trips, deterministic reports, exit-code contract",
              time.monotonic() - start, 60.0)
