"""Regenerate the golden document corpus under tests/data/.

Run from the repository root:  python3 tests/make_fixtures.py
The files are checked in; the byte-stability tests compare fresh
serializations against them.
"""
from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import corpus
from spanforge.docs import (
    Document,
    encode_braiding,
    encode_category,
    encode_functor,
    encode_module,
    encode_module_functor,
    encode_module_nattrans,
    encode_mon_functor,
    encode_monoidal,
    encode_nat_trans,
    serialize,
)
from spanforge.fincat import (
    FinCategory,
    Functor,
    discrete_category,
    group_as_category,
    identity_functor,
    terminal_category,
    walking_arrow,
)
from spanforge.groups import cyclic, symmetric_3
from spanforge.monoidal import (
    Braiding,
    identity_mon_functor,
    make_bicharacter_braiding,
    make_discrete_group_category,
    make_skeletal_group_category,
    tabulate_monoidal,
    trivial_cochain,
)

DATA = pathlib.Path(__file__).parent / "data"

Z2 = cyclic(2)
Z3 = cyclic(3)


def identity_braiding(ms):
    n = ms.base.num_objects
    return Braiding(ms, tuple(ms.base.identity[ms.tensor_obj(x, y)]
                              for x in range(n) for y in range(n)))


def write(name: str, kind: str, payload) -> None:
    (DATA / name).write_text(serialize(Document(kind, payload)),
                             encoding="utf-8")


def main() -> None:
    DATA.mkdir(exist_ok=True)

    # plain categories
    write("terminal_category.json", "category",
          encode_category(terminal_category()))
    write("walking_arrow.json", "category", encode_category(walking_arrow()))
    z3_cat = group_as_category(Z3.mult)
    rows = [list(r) for r in z3_cat.comp]
    rows[2][2] = 2  # associativity breaks at (2, 2, 1)
    write("broken_category.json", "category", encode_category(
        FinCategory(1, z3_cat.source, z3_cat.target, z3_cat.identity,
                    tuple(tuple(r) for r in rows))))

    # monoidal structures
    omega = tuple(tuple(tuple(1 if (x, y, z) == (1, 1, 1) else 0
                              for z in range(2)) for y in range(2))
                  for x in range(2))
    toric = make_skeletal_group_category(Z2, Z2, trivial_cochain(Z2))
    twisted = make_skeletal_group_category(Z2, Z2, omega)
    bad_omega = tuple(tuple(tuple(1 if (x, y, z) == (1, 1, 0) else 0
                                  for z in range(2)) for y in range(2))
                      for x in range(2))
    write("z2_cocycle_monoidal.json", "monoidal", encode_monoidal(twisted))
    write("z2_trivial_monoidal.json", "monoidal", encode_monoidal(toric))
    write("s3_discrete_monoidal.json", "monoidal",
          encode_monoidal(make_discrete_group_category(symmetric_3())))
    write("broken_monoidal.json", "monoidal", encode_monoidal(
        make_skeletal_group_category(Z2, Z2, bad_omega)))
    # strict over three discrete objects, with unit 0 and 1⊗1 = 2, 1⊗2 = 1,
    # 2⊗1 = 2⊗2 = 2: unital but not associative on objects, (1⊗1)⊗1 = 2
    # while 1⊗(1⊗1) = 1, so its identity associator components are ill typed
    disc3 = discrete_category(3)
    magma = ((0, 1, 2), (1, 2, 1), (2, 2, 2))
    write("nonassoc_strict_monoidal.json", "monoidal", encode_monoidal(
        tabulate_monoidal(disc3, 0, lambda x, y: magma[x][y],
                          lambda f, g, s, t: disc3.identity[s])))
    # strict over BZ/3, tensor by the group law except id⊗id = 1: the tensor
    # breaks identities, so the strict pentagon is scanned, and at
    # (0, 0, 0, 0) it composes 1∘1 = 2 where the other path is the identity 0
    bz3 = group_as_category(Z3.mult)
    write("strict_identity_breaking_monoidal.json", "monoidal", encode_monoidal(
        tabulate_monoidal(bz3, 0, lambda x, y: 0,
                          lambda f, g, s, t: 1 if f == g == 0 else Z3.mul(f, g))))

    # braidings
    z3_ms = make_skeletal_group_category(Z3, Z3, trivial_cochain(Z3))
    pairing = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    write("z3_bicharacter_braiding.json", "braiding",
          encode_braiding(make_bicharacter_braiding(z3_ms, Z3, pairing)))
    bad_pairing = tuple(tuple(1 if (a, b) == (1, 1) else 0 for b in range(3))
                        for a in range(3))
    write("broken_braiding.json", "braiding",
          encode_braiding(make_bicharacter_braiding(z3_ms, Z3, bad_pairing)))
    disc_z2 = make_discrete_group_category(Z2)
    write("discrete_z2_braiding.json", "braiding",
          encode_braiding(identity_braiding(disc_z2)))

    # functors
    arrow = walking_arrow()
    write("arrow_identity_functor.json", "functor",
          encode_functor(identity_functor(arrow)))
    write("disc2_swap_functor.json", "functor",
          encode_functor(corpus.swap_functor(corpus.discrete_category(2))))
    u = next(m for m in range(arrow.num_morphisms)
             if arrow.source[m] == 0 and arrow.target[m] == 1)
    const0 = Functor(arrow, arrow, (0, 0),
                     tuple(arrow.identity[0] for _ in range(3)))
    bad_functor = Functor(arrow, arrow, (0, 0),
                          tuple(u if m == u else arrow.identity[0]
                                for m in range(3)))
    write("broken_functor.json", "functor", encode_functor(bad_functor))
    # one object, morphisms id, a, b with a∘a = b, a∘b = a and b∘a = b∘b = b:
    # unital but not associative, a∘(a∘a) = a while (a∘a)∘a = b
    nonassoc = FinCategory(1, (0, 0, 0), (0, 0, 0), (0,),
                           ((0, 1, 2), (1, 2, 1), (2, 2, 2)))
    write("nonassoc_identity_functor.json", "functor",
          encode_functor(identity_functor(nonassoc)))

    # natural transformations
    ident = identity_functor(arrow)
    from spanforge.fincat import NatTrans
    write("arrow_nattrans.json", "nat_trans",
          encode_nat_trans(NatTrans(const0, ident, (arrow.identity[0], u))))
    write("broken_nattrans.json", "nat_trans",
          encode_nat_trans(NatTrans(const0, const0, (arrow.identity[0], u))))

    # monoidal functors
    write("toric_identity_mon_functor.json", "mon_functor",
          encode_mon_functor(identity_mon_functor(toric)))
    write("disc_z2_identity_mon_functor.json", "mon_functor",
          encode_mon_functor(identity_mon_functor(disc_z2)))

    # modules and module functors
    named = dict(corpus.span_corpus())
    write("arrow_trivial_module.json", "module",
          encode_module(corpus.m_arrow()))
    write("swap_action_module.json", "module",
          encode_module(corpus.m_swap_action()))
    write("arrow_identity_module_functor.json", "module_functor",
          encode_module_functor(named["arrow-id"]))
    write("disc2_into_arrow_module_functor.json", "module_functor",
          encode_module_functor(named["disc2-into-arrow"]))
    write("arrow_into_bz2_module_functor.json", "module_functor",
          encode_module_functor(named["arrow-into-bz2"]))
    write("arrow_to_terminal_module_functor.json", "module_functor",
          encode_module_functor(named["arrow-to-terminal"]))
    write("terminal_identity_module_functor.json", "module_functor",
          encode_module_functor(corpus.terminal_id()))
    named_nt = dict(corpus.nattrans_corpus())
    write("arrow_const0_to_id_module_nattrans.json", "module_nattrans",
          encode_module_nattrans(named_nt["arrow-const0-to-id"]))

    # malformed documents, written verbatim
    (DATA / "malformed_unknown_field.json").write_text(json.dumps({
        "format": "spanforge/1", "kind": "category",
        "payload": {"objects": 1,
                    "morphisms": [{"source": 0, "target": 0}],
                    "identity": [0], "composition": [[0, 0, 0]],
                    "color": "blue"}}, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    (DATA / "malformed_dangling.json").write_text(json.dumps({
        "format": "spanforge/1", "kind": "category",
        "payload": {"objects": 1,
                    "morphisms": [{"source": 0, "target": 5}],
                    "identity": [0], "composition": [[0, 0, 0]]}},
        sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (DATA / "malformed_version.json").write_text(json.dumps({
        "format": "spanforge/0", "kind": "category",
        "payload": {"objects": 1,
                    "morphisms": [{"source": 0, "target": 0}],
                    "identity": [0], "composition": [[0, 0, 0]]}},
        sort_keys=True, indent=2) + "\n", encoding="utf-8")

    # law-violating documents for the exit-code matrix
    from spanforge.monoidal import MonFunctor
    twisted_gamma = tuple(toric.tensor_obj(x, y) * 2 + (1 if (x, y) == (0, 1)
                                                        else 0)
                          for x in range(2) for y in range(2))
    write("broken_mon_functor.json", "mon_functor", encode_mon_functor(
        MonFunctor(toric, toric, identity_functor(toric.base),
                   twisted_gamma, toric.base.identity[0])))
    from spanforge.spans import ModuleFunctorData, ModuleNatTransData
    arrow_md = corpus.m_arrow()
    bad_transport = NatTrans(identity_functor(arrow), identity_functor(arrow),
                             (arrow.identity[1], arrow.identity[1]))
    write("broken_module_functor.json", "module_functor",
          encode_module_functor(ModuleFunctorData(
              arrow_md, arrow_md, identity_functor(arrow), (bad_transport,))))
    good_id = named["arrow-id"]
    bad_cell = ModuleNatTransData(
        named["arrow-const0"], good_id,
        NatTrans(named["arrow-const0"].f, good_id.f,
                 (arrow.identity[0], arrow.identity[0])))
    write("broken_module_nattrans.json", "module_nattrans",
          encode_module_nattrans(bad_cell))
    disc2 = corpus.discrete_category(2)
    write("broken_disc2_functor.json", "functor", encode_functor(
        Functor(disc2, disc2, (0, 1), (1, 0))))
    # the strict trivial action of Z/2 on BZ/2 with its multiplicativity cell
    # at (0, 1) replaced by the non-identity automorphism of the identity
    # functor; make_module refuses it, so the action is edited directly
    lawful = corpus.make_module(
        make_discrete_group_category(Z2), corpus.bz2(),
        [identity_functor(corpus.bz2()), identity_functor(corpus.bz2())])
    ident = lawful.action.on_obj(0)
    mult = list(lawful.action.mult)
    mult[1] = lawful.end.fc.transformation_index[(ident, ident, (1,))]
    broken_module = replace(lawful, action=replace(lawful.action, mult=tuple(mult)))
    write("broken_module.json", "module", encode_module(broken_module))
    # its identity module functor, whose identity transports pass: only the
    # module checks of build-span and laxator find that the action is not
    # monoidal
    write("broken_module_identity_functor.json", "module_functor",
          encode_module_functor(corpus.identity_module_functor(broken_module)))

    # central-check z2 fixture pieces over the discrete Z/2 carrier
    from spanforge.centers import mueger_center
    b = identity_braiding(disc_z2)
    center = mueger_center(b)
    action = identity_mon_functor(disc_z2)
    write("disc_z2_mueger_action.json", "mon_functor",
          encode_mon_functor(
              action.__class__(disc_z2, center.monoidal, action.underlying,
                               action.mult, action.unit_iso)))
    psi = NatTrans(identity_functor(disc_z2.base),
                   identity_functor(disc_z2.base),
                   tuple(disc_z2.base.identity[x] for x in range(2)))
    write("disc_z2_psi.json", "nat_trans", encode_nat_trans(psi))
    bad_psi = NatTrans(identity_functor(disc_z2.base),
                       identity_functor(disc_z2.base),
                       (disc_z2.base.identity[0], disc_z2.base.identity[0]))
    write("disc_z2_psi_bad.json", "nat_trans", encode_nat_trans(bad_psi))

    # central-check z1 fixture pieces: the grading setup of test_central,
    # whose base braiding and identity candidate are discrete_z2_braiding.json
    # and toric_identity_mon_functor.json; the action's target is the
    # Drinfeld center of toric Z/2
    from test_central import grading_setup
    grading = grading_setup()
    write("toric_z2_grading_action.json", "mon_functor",
          encode_mon_functor(grading.left.action))
    on_carriers = tuple(grading.left.center.objects_data[i].carrier
                        for i in grading.left.action.underlying.object_map)
    carriers = Functor(disc_z2.base, toric.base, on_carriers,
                       tuple(toric.base.identity[c] for c in on_carriers))
    write("toric_z2_psi.json", "nat_trans",
          encode_nat_trans(NatTrans(carriers, carriers, grading.psi_g)))
    # the sign scalar on the unit breaks the induced multiplicativity cells
    write("toric_z2_psi_bad.json", "nat_trans",
          encode_nat_trans(NatTrans(carriers, carriers,
                                    (1, toric.base.identity[1]))))

    # central-check z1 over the terminal base into skeletal S3 with Z/2
    # scalars, whose Drinfeld center lies over the unit object; the
    # candidate's broken multiplicativity cell is read by no half-braiding,
    # so only the check of the candidate itself finds it
    from test_central import s3_twisted_setup
    s3_case = s3_twisted_setup()
    write("terminal_braiding.json", "braiding",
          encode_braiding(s3_case.left.base))
    write("s3_z2_unit_action.json", "mon_functor",
          encode_mon_functor(s3_case.left.action))
    write("s3_z2_twisted_mon_functor.json", "mon_functor",
          encode_mon_functor(s3_case.g))
    s3_base = s3_case.g.target.base
    at_unit = Functor(s3_case.left.base.on.base, s3_base, (0,),
                      (s3_base.identity[0],))
    write("s3_z2_unit_psi.json", "nat_trans", encode_nat_trans(
        NatTrans(at_unit, at_unit, s3_case.psi_g)))

    # central-check z2 over the terminal base into skeletal Z/3 with the
    # pairing braiding, z3_bicharacter_braiding.json, whose Müger center lies
    # over the unit object: the unit action, its comparison, and the identity
    # candidate with the scalar 1 at the unit sent to the scalar 2, one of the
    # seeded candidate mutants of test_output_theorems; the candidate is not a
    # functor, and building the centralizer functors from it raised
    from test_central import phi_fiber_setup
    z3_case, _ = phi_fiber_setup("z3-pairing")
    write("z3_pairing_unit_action.json", "mon_functor",
          encode_mon_functor(z3_case.left.action))
    mor_map = z3_case.g.underlying.morphism_map
    write("z3_pairing_mutant_mon_functor.json", "mon_functor", encode_mon_functor(
        replace(z3_case.g, underlying=replace(
            z3_case.g.underlying, morphism_map=(mor_map[0], 2, *mor_map[2:])))))
    z3_base = z3_case.g.target.base
    z3_unit = Functor(z3_case.left.base.on.base, z3_base, (0,),
                      (z3_base.identity[0],))
    write("z3_pairing_unit_psi.json", "nat_trans", encode_nat_trans(
        NatTrans(z3_unit, z3_unit, z3_case.psi_g)))

    print(f"wrote {len(list(DATA.glob('*.json')))} fixtures to {DATA}")


if __name__ == "__main__":
    main()
