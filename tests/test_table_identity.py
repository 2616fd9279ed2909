"""Table identity of every construction built through category_over_product,
of the functors lifted into them, and of the tensor tables of End categories.

Each construction digest is a sha256 of the repr of its apex tables, objects
and morphisms; each functor digest, of its object map, morphism map,
multiplicativity cells and unit cell.  The pinned values were computed with
the per-site loops that category_over_product, lift_functor and
lift_mon_functor replaced, so ids and tables must match them exactly.
"""
import hashlib

import corpus
from spanforge.central import (
    _pull_center,
    _push_center,
    _subcat_functor,
    central_module_check,
)
from spanforge.centers import (
    braided_centralizer,
    drinfeld_center,
    monoidal_centralizer,
    monoidal_intertwiner,
    mueger_center,
)
from spanforge.fincat import Functor, chain_category, group_as_category
from spanforge.groups import cyclic, klein_four
from spanforge.laxators import (
    laxator,
    laxator_coherence,
    normalization_check,
    quadruple_pasting_check,
)
from spanforge.limits import FORWARD, REVERSE, comma
from spanforge.monoidal import (
    MonFunctor,
    MonoidalStructure,
    identity_mon_functor,
    terminal_monoidal,
)
from spanforge.spans import build_span, build_two_span, end_monoidal
from test_central import central_setups, phi_fiber_setup
from test_centers import identity_braiding, monoidal_cases


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def braiding_cases():
    """The braidings of the Müger center and braided centralizer tests:
    identity braidings on abelian discrete groups and the terminal category,
    then the bicharacter braidings of the phi-fiber setups."""
    cases = monoidal_cases()
    out = {f"identity-{name}": identity_braiding(cases[name])
           for name in ("discrete-z2", "discrete-z3", "discrete-z4",
                        "discrete-klein", "terminal")}
    for name in ("z2-trivial", "z3-pairing", "klein-pairing"):
        _, out[name] = phi_fiber_setup(name)
    return out


def center_digest(center) -> str:
    return digest(center.as_category, center.objects_data,
                  center.forgetful.morphism_map, center.monoidal, center.braiding)


def table_digests() -> dict[str, str]:
    out = {}
    for name, fd in corpus.span_corpus():
        cell = build_span(fd)
        out[f"span/{name}"] = digest(cell.apex, cell.apex_objects, cell.fp.morphisms)
        for orientation in (FORWARD, REVERSE):
            result = comma(cell.fp.left, cell.fp.right, orientation=orientation)
            out[f"comma-{orientation}/{name}"] = digest(
                result.apex, result.objects, result.morphisms)
    for name, ad in corpus.nattrans_corpus():
        cell = build_two_span(ad)
        out[f"2-span/{name}"] = digest(
            cell.apex, cell.apex_objects,
            cell.leg_left.underlying.morphism_map,
            cell.leg_right.underlying.morphism_map)
    cases = monoidal_cases()
    for name, ms in cases.items():
        if name != "idempotent":
            out[f"center/{name}"] = center_digest(drinfeld_center(ms))
    for name in ("discrete-s3", "toric-z2", "idempotent"):
        ident = identity_mon_functor(cases[name])
        out[f"centralizer/{name}"] = center_digest(monoidal_centralizer(ident))
    toric, unit = cases["toric-z2"], terminal_monoidal()
    incl = MonFunctor(unit, toric, Functor(unit.base, toric.base, (0,), (0,)),
                      (toric.base.identity[0],), toric.base.identity[0])
    out["centralizer/unit-into-toric-z2"] = center_digest(monoidal_centralizer(incl))
    for name in ("discrete-z4", "idempotent", "terminal", "toric-z2"):
        ident = identity_mon_functor(cases[name])
        result = monoidal_intertwiner(ident, ident)
        out[f"intertwiner/{name}"] = digest(
            result.intertwiner.as_category, result.intertwiner.objects_data,
            result.intertwiner.forgetful.morphism_map, result.left_action,
            result.right_action)
    for name, b in braiding_cases().items():
        out[f"mueger/{name}"] = center_digest(mueger_center(b))
        out[f"braided-centralizer/{name}"] = center_digest(
            braided_centralizer(identity_mon_functor(b.on), b, b))
    return out


PINNED = {
    "span/terminal-id":
        "f6dbf9a3d023e05ec60706f14b05c62bfbc69bb26c3cbb77f79725dbf3a64bfd",
    "comma-forward/terminal-id":
        "a18a44ff64b09de9d1b27a2261abe76d5aa1f3bac8c1bbaa1f9ea5be2c5c15c3",
    "comma-reverse/terminal-id":
        "a18a44ff64b09de9d1b27a2261abe76d5aa1f3bac8c1bbaa1f9ea5be2c5c15c3",
    "span/arrow-id":
        "76f925ceb7745c952181187182161637ffef3b1b99edca2977716a94b160e26b",
    "comma-forward/arrow-id":
        "dc8aa82179b9f3d1338f1487cbd1a0f4018fcee6aa36d03318c613f9b61c5cd3",
    "comma-reverse/arrow-id":
        "2caaa0b5e597863a38d205d5116d9c6ab20f77dc3495ed7c07837d9dfec0a997",
    "span/arrow-const0":
        "9acfd9b67508fa13b2cc68c9daf094295146de1f37a8dbeb561bf94fa97ac8ac",
    "comma-forward/arrow-const0":
        "1f799bc59cd8f8d298dbe5aa49862f4d2bca44ab22c2373f5c4c642cb1cd5543",
    "comma-reverse/arrow-const0":
        "0da968054ea4bd9a0b4529b41119d910803549b737bae3c92bfd591076728df2",
    "span/arrow-const1":
        "b60e0abe066b1afe4f792d758b4f26621eb0c3fd63a4548b7de60b67136dbb0f",
    "comma-forward/arrow-const1":
        "422d681297ff970314dbcdfd328416e21a310fdffae7bd8ba58c4ccb4ff49d36",
    "comma-reverse/arrow-const1":
        "55b5cd920369e4c3bbc5aad11fcfff2144ee6a13272d5c514709559919707a96",
    "span/disc2-id":
        "9335efea1ff49e8fc25521483717db6c34e547355422f3699a43a3a2b959c2f6",
    "comma-forward/disc2-id":
        "26d4ac5c6710a618df4e84149c20dc74f8eac6fc75e079898d753c20a3b8938f",
    "comma-reverse/disc2-id":
        "26d4ac5c6710a618df4e84149c20dc74f8eac6fc75e079898d753c20a3b8938f",
    "span/disc2-swap":
        "1e6149f7edce055b6f2c7fef512888e202b2ca432f5ac98305ea5ec1b22304b0",
    "comma-forward/disc2-swap":
        "146103d0f98fd008884dc3035726aec1e536767cf1c601985f8dedbb4918b3ee",
    "comma-reverse/disc2-swap":
        "146103d0f98fd008884dc3035726aec1e536767cf1c601985f8dedbb4918b3ee",
    "span/disc2-into-arrow":
        "a8fcb7978120b6de2d979828d4f810a236297a38f676308987b14baeb20806b6",
    "comma-forward/disc2-into-arrow":
        "0ec45155c9115e3d998219e3938f377421c2fbfa884b73bae6287ba38d9eb42e",
    "comma-reverse/disc2-into-arrow":
        "cd7ffd0d10191b95c5115d7b20118408544c400393d9fb752243de8f3a55ea58",
    "span/arrow-to-terminal":
        "8dcb3226f2c22aa4770775ee1c588c34041fa215cfcf05a94001a5504b4b10cc",
    "comma-forward/arrow-to-terminal":
        "a24947ab1929690e24b337ad1bc66da837cb729b977c7dc930a689601ccbfe80",
    "comma-reverse/arrow-to-terminal":
        "a24947ab1929690e24b337ad1bc66da837cb729b977c7dc930a689601ccbfe80",
    "span/point-into-arrow":
        "210c64f35e01166fac10316dbc0bb09e15bb7ffeca03dfbefdb04b871bcf5898",
    "comma-forward/point-into-arrow":
        "587e931a504d1110d373a102f08f094376593f8e4f13d26172c4bebcfd536e37",
    "comma-reverse/point-into-arrow":
        "cd7a975a34950b77dc11bae569bc9da8078bad8b87eaa7a7bd604301571eaca9",
    "span/point-into-bz2":
        "277e99bd855a370dc071240780d2b3482a13ad45576de89211ce486245b7106e",
    "comma-forward/point-into-bz2":
        "15185bf0fdf707166aed92ee12d378f16b8caf6f6e4a52a70b90feb3dd04def2",
    "comma-reverse/point-into-bz2":
        "15185bf0fdf707166aed92ee12d378f16b8caf6f6e4a52a70b90feb3dd04def2",
    "span/bz2-id":
        "cf1ad6dfdda3a799a01014b3cbe3baac72beb7a782b073fdfd86147c14ec6424",
    "comma-forward/bz2-id":
        "67ee219591ba3fc094e2100692d3f32113abd718cc6ef699acb0effddb04862a",
    "comma-reverse/bz2-id":
        "67ee219591ba3fc094e2100692d3f32113abd718cc6ef699acb0effddb04862a",
    "span/bz2-collapse":
        "d8184dadc81173a8992444568365fd3ba889cc9e721054c6bc06eafddab377d2",
    "comma-forward/bz2-collapse":
        "b85e7542aef164324e2843f79e65ba4582c9afd521d151b9ef5c6f5567299ac1",
    "comma-reverse/bz2-collapse":
        "b85e7542aef164324e2843f79e65ba4582c9afd521d151b9ef5c6f5567299ac1",
    "span/arrow-into-bz2":
        "cdd08714b5c6b8ae02799b830c7caef6fe6028c7349188a2233771f2bd2e0691",
    "comma-forward/arrow-into-bz2":
        "6aff40f7e3008b71a9a19bc40d584cbcb88d7db64d2824ef7f2a2343faaf75a8",
    "comma-reverse/arrow-into-bz2":
        "4f3a515b01ba1beca570c22a3dd338a1c0ecc852f57b0e7452a4ba92913461d8",
    "span/swap-equivariant-id":
        "9335efea1ff49e8fc25521483717db6c34e547355422f3699a43a3a2b959c2f6",
    "comma-forward/swap-equivariant-id":
        "26d4ac5c6710a618df4e84149c20dc74f8eac6fc75e079898d753c20a3b8938f",
    "comma-reverse/swap-equivariant-id":
        "26d4ac5c6710a618df4e84149c20dc74f8eac6fc75e079898d753c20a3b8938f",
    "span/swap-equivariant-swap":
        "1e6149f7edce055b6f2c7fef512888e202b2ca432f5ac98305ea5ec1b22304b0",
    "comma-forward/swap-equivariant-swap":
        "146103d0f98fd008884dc3035726aec1e536767cf1c601985f8dedbb4918b3ee",
    "comma-reverse/swap-equivariant-swap":
        "146103d0f98fd008884dc3035726aec1e536767cf1c601985f8dedbb4918b3ee",
    "span/z2-trivial-bz2-id":
        "cf1ad6dfdda3a799a01014b3cbe3baac72beb7a782b073fdfd86147c14ec6424",
    "comma-forward/z2-trivial-bz2-id":
        "67ee219591ba3fc094e2100692d3f32113abd718cc6ef699acb0effddb04862a",
    "comma-reverse/z2-trivial-bz2-id":
        "67ee219591ba3fc094e2100692d3f32113abd718cc6ef699acb0effddb04862a",
    "span/z2-trivial-bz2-twisted":
        "cf1ad6dfdda3a799a01014b3cbe3baac72beb7a782b073fdfd86147c14ec6424",
    "comma-forward/z2-trivial-bz2-twisted":
        "67ee219591ba3fc094e2100692d3f32113abd718cc6ef699acb0effddb04862a",
    "comma-reverse/z2-trivial-bz2-twisted":
        "67ee219591ba3fc094e2100692d3f32113abd718cc6ef699acb0effddb04862a",
    "span/disc3-id":
        "a8679687c4b18d1f2f98b71908172abfb0380dd2766110da14ce73d66070ad4b",
    "comma-forward/disc3-id":
        "d9d5e3c3fde7eaf3f10a643b701a6a567e7101883a74e92d8b6df522e0d12c4d",
    "comma-reverse/disc3-id":
        "d9d5e3c3fde7eaf3f10a643b701a6a567e7101883a74e92d8b6df522e0d12c4d",
    "span/disc3-three-cycle":
        "b20ecee2d82e42539694779fa5c7fbaabea7c3007c820236056e1ef394c06fab",
    "comma-forward/disc3-three-cycle":
        "8f2260c7505d7ad9bd674519d36c77fe7f2ea4c432f9d11292d63697c7c8b54d",
    "comma-reverse/disc3-three-cycle":
        "8f2260c7505d7ad9bd674519d36c77fe7f2ea4c432f9d11292d63697c7c8b54d",
    "span/transposition-equivariant":
        "60d6c1d67cbf653684280d1bb8dd1fe03232222403de11f95adaec35a07c8532",
    "comma-forward/transposition-equivariant":
        "d1d707eb8c9c152673451375c6f5fbc4f0721c1c35e0e81b20bf6ce74f9f8171",
    "comma-reverse/transposition-equivariant":
        "d1d707eb8c9c152673451375c6f5fbc4f0721c1c35e0e81b20bf6ce74f9f8171",
    "span/klein-id":
        "9335efea1ff49e8fc25521483717db6c34e547355422f3699a43a3a2b959c2f6",
    "comma-forward/klein-id":
        "26d4ac5c6710a618df4e84149c20dc74f8eac6fc75e079898d753c20a3b8938f",
    "comma-reverse/klein-id":
        "26d4ac5c6710a618df4e84149c20dc74f8eac6fc75e079898d753c20a3b8938f",
    "span/idem-id":
        "1e4c49925796c9b25574c0db5c364683805e5b1dc85f8f4c8277b5a2a1cd236f",
    "comma-forward/idem-id":
        "bc100b5f246626e40eec12d33441469428c5f0b6fada480ac1820415e8897cb0",
    "comma-reverse/idem-id":
        "bd58d088492f3caed4abe9c153b334091266a3d0ea2910332fc5bbf5ffa73e97",
    "span/idem-collapse":
        "405238481822f2c3dcfe43bdf558ab0f0da811c9f44152bac77a843750c174f7",
    "comma-forward/idem-collapse":
        "b93b6ab594469dafec6c4f6bfa03f23ba24d7a66638d183d7c3439fecb212ee6",
    "comma-reverse/idem-collapse":
        "9a2c9e508e38ed17de8bb8252c4f9b3170c1b803455490b4961fb9c764820eb1",
    "2-span/terminal-identity":
        "ebd24c48b536b69d8cec52589a5b88d14533eeba117ac92912f146c0148c614b",
    "2-span/arrow-identity":
        "6fab20a068d4826bcb7e6f08b22706ffe11a6f76278b218cd1cadb1c2793ef13",
    "2-span/arrow-const0-to-id":
        "1e1ab0458ac2b38aadd806d92a820f25b5a05c41ed125f2ea4d0e55e07ece17e",
    "2-span/idem-absorbing":
        "6ccecc22daee6c4825ca76f472e18417c9f0d36807952a110ec51351d85dcf1d",
    "2-span/swap-identity":
        "8ea109f4b51fae165f6bd3ef0a4b03ffc0c95937a60379f993e37b2913aaef65",
    "2-span/bz2-central":
        "3ca33bcdd735317de017808246355ead5d2ff40cc60f48259a0b5a2a208200c0",
    "center/discrete-z2":
        "c1b4efbbc84b90f4f36bbe40dc3f557cd2182e2a90618958418cdac3a5049a28",
    "center/discrete-z3":
        "1842f85e7d562eb91e7c81722e07401ec93d272fbc24547b2bac8da213262d35",
    "center/discrete-z4":
        "513f027b15922c60f2d18f33facab1a9478e3633191338030c7c6a4d27afcb7e",
    "center/discrete-klein":
        "dc7f3e3d92506716f98ae25c6548c40e8aef3e91d0749a0870e87cf16afca5d7",
    "center/discrete-s3":
        "e5b0a1536bc20ae2e6ccca66d3c990b84bd80f2355ff6d334e449c2199004fef",
    "center/discrete-d4":
        "9c737c21aeec6a8f5545ff99bd81b56a4986bb278695f44d9b35910e4eefd258",
    "center/discrete-q8":
        "5c2ae7fca50d2f665748724faed9f2c05b09103b1e453ae62e2fbe6da15fbe58",
    "center/terminal":
        "73c33a41904cb607c388cee3c7a587ec7466f0920ed24f3ca232e9d88f58211f",
    "center/toric-z2":
        "0c4b1fc1f6ede1d813a30da4572c03349caf90cf9148fb52072e13f527e64633",
    "center/twisted-z2":
        "e3c1d78b27e1f73de33cc9e4419d25dd8e7751b2810a4ce0b705b064e78c89c5",
    "centralizer/discrete-s3":
        "3a5e47c0ef4584a25f86ad65152031c0ab9f3e6d8758f8079e98857def6cae65",
    "centralizer/toric-z2":
        "a3f336a78bc31cd06eaae9124eea237f9de9aecc9d6268072592056dc807c117",
    "centralizer/idempotent":
        "5127aad3679327c9d06a2d81be372351a23cad570661cc8357444f8679aeeae7",
    "centralizer/unit-into-toric-z2":
        "a2797d8931db01629e0a47d668eaf0058861d37489de6d59883441ea6c2bb7f0",
    "intertwiner/discrete-z4":
        "b755c37246febb2e591819f3b74b75f324d48c1b0db0870c615ab17cc57a38d8",
    "intertwiner/idempotent":
        "15bde79b0f00f470c52c0a4f3f0107877b0ab12ead6f070a8dbd6c7c87571b94",
    "intertwiner/terminal":
        "60233d74246bf536abdcb7b68f0eb7e5e856ab2ac9e0bc7dd7bc693d48b90813",
    "intertwiner/toric-z2":
        "0f2d898a292d0c450e14898975d3f544dd0bb2e1e7678ac46f3705b4b0e6f2a3",
    # computed with the Müger center's own transparency scan, before it
    # became the braided centralizer of the identity functor
    "mueger/identity-discrete-z2":
        "c1b4efbbc84b90f4f36bbe40dc3f557cd2182e2a90618958418cdac3a5049a28",
    "braided-centralizer/identity-discrete-z2":
        "c1b4efbbc84b90f4f36bbe40dc3f557cd2182e2a90618958418cdac3a5049a28",
    "mueger/identity-discrete-z3":
        "1842f85e7d562eb91e7c81722e07401ec93d272fbc24547b2bac8da213262d35",
    "braided-centralizer/identity-discrete-z3":
        "1842f85e7d562eb91e7c81722e07401ec93d272fbc24547b2bac8da213262d35",
    "mueger/identity-discrete-z4":
        "513f027b15922c60f2d18f33facab1a9478e3633191338030c7c6a4d27afcb7e",
    "braided-centralizer/identity-discrete-z4":
        "513f027b15922c60f2d18f33facab1a9478e3633191338030c7c6a4d27afcb7e",
    "mueger/identity-discrete-klein":
        "dc7f3e3d92506716f98ae25c6548c40e8aef3e91d0749a0870e87cf16afca5d7",
    "braided-centralizer/identity-discrete-klein":
        "dc7f3e3d92506716f98ae25c6548c40e8aef3e91d0749a0870e87cf16afca5d7",
    "mueger/identity-terminal":
        "73c33a41904cb607c388cee3c7a587ec7466f0920ed24f3ca232e9d88f58211f",
    "braided-centralizer/identity-terminal":
        "73c33a41904cb607c388cee3c7a587ec7466f0920ed24f3ca232e9d88f58211f",
    "mueger/z2-trivial":
        "c6ce8f575bb034ba86fd9786c37704efe4ff0a5bb7bfef75c710b96b9df1da1a",
    "braided-centralizer/z2-trivial":
        "c6ce8f575bb034ba86fd9786c37704efe4ff0a5bb7bfef75c710b96b9df1da1a",
    "mueger/z3-pairing":
        "1c5bec359303b7e67f10e393a866c6f91d741feda69c41af9a8e1fd7773e2852",
    "braided-centralizer/z3-pairing":
        "1c5bec359303b7e67f10e393a866c6f91d741feda69c41af9a8e1fd7773e2852",
    "mueger/klein-pairing":
        "21cc3ccc2c686fc3c27899f2b5d838ebb97f4ecdc65c570f78c604fdcd0f5a83",
    "braided-centralizer/klein-pairing":
        "21cc3ccc2c686fc3c27899f2b5d838ebb97f4ecdc65c570f78c604fdcd0f5a83",
}


def test_tables_match_the_pinned_digests():
    assert table_digests() == PINNED


def functor_digest(mf) -> str:
    return digest(mf.underlying.object_map, mf.underlying.morphism_map,
                  mf.mult, mf.unit_iso)


def push_and_pull(setup):
    if isinstance(setup.left.carrier, MonoidalStructure):
        z1g = monoidal_centralizer(setup.g)
        return (_push_center(setup.g, setup.left.center, z1g),
                _pull_center(setup.g, setup.right.center, z1g))
    z2g = braided_centralizer(setup.g, setup.left.carrier, setup.right.carrier)
    return (_subcat_functor(setup.g, setup.left.center, z2g, apply_g=True),
            _subcat_functor(setup.g, setup.right.center, z2g, apply_g=False))


def lift_digests() -> dict[str, str]:
    out = {}
    for name, fd in corpus.span_corpus():
        out[f"action-lift/{name}"] = functor_digest(
            build_span(fd).action_lift)
    for name, ad in corpus.nattrans_corpus():
        cell = build_two_span(ad)
        out[f"2-span-action-lift/{name}"] = functor_digest(cell.action_lift)
        out[f"2-span-vertical-legs/{name}"] = digest(
            *(functor_digest(leg) for leg in cell.vertical_legs))
        out[f"2-span-vertical-fillers/{name}"] = digest(
            *((functor_digest(c.source), functor_digest(c.target),
               c.underlying.components) for c in cell.vertical_fillers))
    for name, fd, gd in corpus.composable_pairs():
        out[f"laxator/{name}"] = functor_digest(laxator(fd, gd).comparison)
    for name, setup in central_setups().items():
        push, pull = push_and_pull(setup)
        out[f"push/{name}"] = functor_digest(push)
        out[f"pull/{name}"] = functor_digest(pull)
        out[f"induced/{name}"] = functor_digest(central_module_check(setup).induced)
    return out


# the 2-span vertical legs and their identity fillers were computed with the
# legs built by limits.mediate, before they were lifted along the outer legs
LIFTS_PINNED = {
    "action-lift/terminal-id":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
    "action-lift/arrow-id":
        "54293abfd726d08ca1dbddeed3f780731b23f426817a2231903aa89bb7ca5cd5",
    "action-lift/arrow-const0":
        "e202e887a977aa9a36899d636b62b6cd3ebca4e6e1d96f9be3ad7676ed0f2b9b",
    "action-lift/arrow-const1":
        "0205a3d2c16b575d2b34fefe8bbd45b1413710972cb18c4f7ccf64e23fe0b266",
    "action-lift/disc2-id":
        "6b5675889cbc67faf8e48871ba2ec75b2f149b973d661591d2a1164885811cb4",
    "action-lift/disc2-swap":
        "6b5675889cbc67faf8e48871ba2ec75b2f149b973d661591d2a1164885811cb4",
    "action-lift/disc2-into-arrow":
        "6b5675889cbc67faf8e48871ba2ec75b2f149b973d661591d2a1164885811cb4",
    "action-lift/arrow-to-terminal":
        "54293abfd726d08ca1dbddeed3f780731b23f426817a2231903aa89bb7ca5cd5",
    "action-lift/point-into-arrow":
        "eacc8f403ba9cf533ccb057998ddb59b2fadb8e4c49a0363189117004d546066",
    "action-lift/point-into-bz2":
        "02a179cfb2e2393ed3af14f0aeec3e0ae94bee4f17a08787226944312be5c961",
    "action-lift/bz2-id":
        "89bce5a267fad21a9f45e44ab965153cae51067ad3c47711d9b4222ed1cb13d5",
    "action-lift/bz2-collapse":
        "625aef069a49b490f77f440597f0b35a4c75dd2aae6b1d6c00835a298b2a9053",
    "action-lift/arrow-into-bz2":
        "66efab59e53189c137df6c1c73eaaed014a7afffae7e221a3786108c1bf5210f",
    "action-lift/swap-equivariant-id":
        "aca282094969531a309b16bb0961dbfba8b2b6b89a0fe1015a068fbec02f9e7f",
    "action-lift/swap-equivariant-swap":
        "aca282094969531a309b16bb0961dbfba8b2b6b89a0fe1015a068fbec02f9e7f",
    "action-lift/z2-trivial-bz2-id":
        "6f138676e8cb7e12f957a30310848e66034b740f179fb37973a03bddb477e8d9",
    "action-lift/z2-trivial-bz2-twisted":
        "ad1e491fcb4c62f4e97156c6a1c5ce6afbac578138bd76722759a963c8a13ee9",
    "action-lift/disc3-id":
        "66dd4e48d67f290e8a8afc3f588fd3be47005da2172cbe37289fd4edb53023bb",
    "action-lift/disc3-three-cycle":
        "66dd4e48d67f290e8a8afc3f588fd3be47005da2172cbe37289fd4edb53023bb",
    "action-lift/transposition-equivariant":
        "27a6577ebdaeddf5e24e14a9909f7af154e7d15a8a1d05b52c39c1301703387f",
    "action-lift/klein-id":
        "3442793c3b2824de6db71047c4364d657cf718bc3f6eb694b769f6f67d9bb389",
    "action-lift/idem-id":
        "eab813cb0cd74ecbdaf04866639b46f471789d77599b3060aa7aee89766da11c",
    "action-lift/idem-collapse":
        "72d9fbfa656eb93cb1ed056a0ac6e90d1539e6eea04b495605e86105cbae4446",
    "2-span-action-lift/terminal-identity":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
    "2-span-action-lift/arrow-identity":
        "54293abfd726d08ca1dbddeed3f780731b23f426817a2231903aa89bb7ca5cd5",
    "2-span-action-lift/arrow-const0-to-id":
        "eacc8f403ba9cf533ccb057998ddb59b2fadb8e4c49a0363189117004d546066",
    "2-span-action-lift/idem-absorbing":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
    "2-span-action-lift/swap-identity":
        "aca282094969531a309b16bb0961dbfba8b2b6b89a0fe1015a068fbec02f9e7f",
    "2-span-action-lift/bz2-central":
        "89bce5a267fad21a9f45e44ab965153cae51067ad3c47711d9b4222ed1cb13d5",
    "2-span-vertical-legs/terminal-identity":
        "813df457a3238e301bfc81100a0d414b0150ff204cd60ba85e42d94ea9d2ee95",
    "2-span-vertical-fillers/terminal-identity":
        "67b5eb1b01a839e25620901a5af68281aee5db3443a77aabb4daa368ec50d609",
    "2-span-vertical-legs/arrow-identity":
        "aec83645773aaaa40c34b4c6511f22be95f19b6aa6906f7c100773895eb906fa",
    "2-span-vertical-fillers/arrow-identity":
        "5c7e93b5d993a9c316a61b57120d8b38f1f14b0f561fb2e5d57bd750cae41238",
    "2-span-vertical-legs/arrow-const0-to-id":
        "3e7ecafcda1e64ee195322312bfff6249389c2d56ecdd322bf3a2164f1c020d7",
    "2-span-vertical-fillers/arrow-const0-to-id":
        "6d5e3d5190174af436f7dc16a6e8d356c121f890ab4ad9ef7fea50bd94d363d6",
    "2-span-vertical-legs/idem-absorbing":
        "0e658e790922dee5cd535b0800a4d432e1458645b50338c73a2e133a47d97b96",
    "2-span-vertical-fillers/idem-absorbing":
        "02642214202db0f53ee1dba08d630c2e974c8896c83c5a260f07490eb26cdfb0",
    "2-span-vertical-legs/swap-identity":
        "1d9723d49562f877ea735743d9530774402ed561f84fa5a81965d97ec3e2c3bc",
    "2-span-vertical-fillers/swap-identity":
        "0d90ef200a4af16072abb3d2a5ee783c896e0ee2d5afdf5067e90268e14cb2c1",
    "2-span-vertical-legs/bz2-central":
        "743a4be975e11883b052903523afcd0ed128bdc129a2edac3b04e9b31d71c8fa",
    "2-span-vertical-fillers/bz2-central":
        "8c169ed727bf558482a1ad6309049dae96f04cb8aed6c4ad472dba2256b354d4",
    "laxator/arrow-id-id":
        "3c640fd856a344240f4214161439cd8a8c7a738cee645b47fced063efafb1931",
    "laxator/disc2-arrow-bz2":
        "7a7fa34500427f2dc51b38738b8d669c25924a81e130754b3e230a4f17623ab1",
    "laxator/swap-swap":
        "3642be11aab672861ec7899c4335dd5d8385e514ab68c4e6445f83c06ec8460c",
    "laxator/point-arrow-terminal":
        "457b8468df3ac7f68f4ff4038315cbe3ae75b770a2e650ce424d0158fcf39123",
    "laxator/idem-id-collapse":
        "ac9c26931512e67b60aef80e255b0ce5c714c6a025e8e84b919d2226b04e38b9",
    "laxator/disc2-arrow-terminal":
        "5ad23b15ee0172794568451fcfa081a3010b8b27f5bb873288efe984be9df0f2",
    "laxator/disc2-id-swap":
        "3642be11aab672861ec7899c4335dd5d8385e514ab68c4e6445f83c06ec8460c",
    "laxator/klein-id-id":
        "3642be11aab672861ec7899c4335dd5d8385e514ab68c4e6445f83c06ec8460c",
    "push/trivial-base":
        "62a6f3d498344d93bfb98886ac9b2a7a22578f3b314c3aa33b978ce0d4dd9724",
    "pull/trivial-base":
        "62a6f3d498344d93bfb98886ac9b2a7a22578f3b314c3aa33b978ce0d4dd9724",
    "induced/trivial-base":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
    "push/grading":
        "62a6f3d498344d93bfb98886ac9b2a7a22578f3b314c3aa33b978ce0d4dd9724",
    "pull/grading":
        "62a6f3d498344d93bfb98886ac9b2a7a22578f3b314c3aa33b978ce0d4dd9724",
    "induced/grading":
        "16d478bc689a8239951f7b7c7800eb4341a34436ef86baecb3aecf07395411a5",
    "push/broken-factorization":
        "62a6f3d498344d93bfb98886ac9b2a7a22578f3b314c3aa33b978ce0d4dd9724",
    "pull/broken-factorization":
        "62a6f3d498344d93bfb98886ac9b2a7a22578f3b314c3aa33b978ce0d4dd9724",
    "induced/broken-factorization":
        "16d478bc689a8239951f7b7c7800eb4341a34436ef86baecb3aecf07395411a5",
    "push/coupled":
        "62a6f3d498344d93bfb98886ac9b2a7a22578f3b314c3aa33b978ce0d4dd9724",
    "pull/coupled":
        "62a6f3d498344d93bfb98886ac9b2a7a22578f3b314c3aa33b978ce0d4dd9724",
    "induced/coupled":
        "16d478bc689a8239951f7b7c7800eb4341a34436ef86baecb3aecf07395411a5",
    "push/discrete-z2":
        "6a08e2cc77723c275b6101b1edc85edf0b14c2157694f35351430ae68a53b6c4",
    "pull/discrete-z2":
        "6a08e2cc77723c275b6101b1edc85edf0b14c2157694f35351430ae68a53b6c4",
    "induced/discrete-z2":
        "6a08e2cc77723c275b6101b1edc85edf0b14c2157694f35351430ae68a53b6c4",
    "push/unit-inclusion":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
    "pull/unit-inclusion":
        "e26cd0485086c5abae9f4e9551db9566b8a5031080397f49546cd2b8a0a637f7",
    "induced/unit-inclusion":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
    "push/z2-trivial":
        "fc5cb84e0881b983e32b4258076e3f3046ea8399d8febed98d5428c8eb405f88",
    "pull/z2-trivial":
        "fc5cb84e0881b983e32b4258076e3f3046ea8399d8febed98d5428c8eb405f88",
    "induced/z2-trivial":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
    "push/z3-pairing":
        "e26cd0485086c5abae9f4e9551db9566b8a5031080397f49546cd2b8a0a637f7",
    "pull/z3-pairing":
        "e26cd0485086c5abae9f4e9551db9566b8a5031080397f49546cd2b8a0a637f7",
    "induced/z3-pairing":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
    "push/klein-pairing":
        "20e0d67d707218e36d86a1a077df290914b5f6933263c08ec8118d53b3f2e0d2",
    "pull/klein-pairing":
        "20e0d67d707218e36d86a1a077df290914b5f6933263c08ec8118d53b3f2e0d2",
    "induced/klein-pairing":
        "680c9dfda637249311a04167b71e64b71d696734761a01c4d1639086b860863e",
}


def test_lifted_functors_match_the_pinned_digests():
    assert lift_digests() == LIFTS_PINNED


def end_carriers():
    """The distinct module carriers of the span corpus, named by the first
    entry that uses them, then the chain 0 <= 1 <= 2, BZ/3 and the Klein
    group as a one-object category."""
    found = {}
    for name, fd in corpus.span_corpus():
        for side, md in (("dom", fd.dom), ("cod", fd.cod)):
            found.setdefault(md.carrier, f"{name}/{side}")
    carriers = {label: carrier for carrier, label in found.items()}
    carriers.update({"chain3": chain_category(3),
                     "bz3": group_as_category(cyclic(3).mult),
                     "bklein": group_as_category(klein_four().mult)})
    return carriers


# computed with end_monoidal tensoring transformations by whiskering and
# vertical composition, before it read the components off the carrier
END_PINNED = {
    "end/terminal-id/dom":
        "38a63f463981eaa651b55a58fafa155cbc7b0e7152e750d9f49d4571cc154944",
    "end/arrow-id/dom":
        "26ca040e8d017a22b60bb1cfa1cd0c90e9400fa70f2ba77c16c8f5bc79c083cd",
    "end/disc2-id/dom":
        "28b5bb39b2fd4c1a3889c5215e537b90407727fc983c90061c6b1fe795fbf0a3",
    "end/point-into-bz2/cod":
        "ba91be2ca8169da585b094544c57f636f726e5a0048a097b293bc23efa04dd04",
    "end/disc3-id/dom":
        "93b10441debd744d0d90b2279690e689c9d26bf1adebeadb4c2f79d1109af442",
    "end/idem-id/dom":
        "2e3b9478fcceef38544ae05e900d08495b1d468b9f026d533c673dd727bab971",
    "end/chain3":
        "25eb04701f66e8555e88fc3877d49273a8c24c99a778c5bf5ae7b2c21df47802",
    "end/bz3":
        "ae98592cb87b8766c351bc728a2f600f34f7b6396abd715ba900e519ffe969db",
    "end/bklein":
        "cede1934f81d2717d8b6ae45d22c7c4239aa637f7de649784a3e905f39e3e851",
}


def test_end_tensor_tables_match_the_pinned_digests():
    assert {f"end/{label}": digest(end_monoidal(carrier).monoidal)
            for label, carrier in end_carriers().items()} == END_PINNED


def pasting_digests() -> dict[str, str]:
    """Everything the span layer builds from pasted transports: the coherence
    cells, quadruple-pasting reports, normalization results and 2-span
    fillers."""
    out = {}
    for name, fd, gd, hd in corpus.composable_triples():
        result = laxator_coherence(fd, gd, hd)
        cell = result.coherence_cell
        out[f"coherence/{name}"] = digest(
            functor_digest(cell.source), functor_digest(cell.target),
            cell.underlying.components, result.cell_is_identity,
            result.cell_report)
    for name, fd, gd, hd, kd in corpus.composable_quadruples():
        out[f"quadruple/{name}"] = digest(quadruple_pasting_check(fd, gd, hd, kd))
    for name in ("m_terminal", "m_arrow", "m_disc2", "m_disc3", "m_bz2", "m_idem",
                 "m_swap_action", "m_trivial_z2_on_disc2", "m_trivial_z2_on_bz2",
                 "m_transposition_on_disc3", "m_klein_on_disc2"):
        out[f"normalization/{name}"] = digest(
            normalization_check(getattr(corpus, name)()))
    for name, ad in corpus.nattrans_corpus():
        filler = build_two_span(ad).filler
        out[f"2-span-filler/{name}"] = digest(
            filler.source.object_map, filler.source.morphism_map,
            filler.target.object_map, filler.target.morphism_map,
            filler.components)
    return out


# computed with the span layer pasting transports through whisker_post,
# whisker_pre and vertical_composite, before it read each component off the
# carrier's comp table
PASTINGS_PINNED = {
    "coherence/arrow-triple-id":
        "1615e0616e54e33242c872d42627b8b69d075195be9465bb2b5a9d7b003877fc",
    "coherence/swap-triple":
        "b7703b68d208ae0504d126b5fb4ab4279f1b4876141d3f13e4951a8779b07561",
    "coherence/idem-triple":
        "fa805e948df9b5872e7513c52a79c7ebc0e47157925e87eab9f359a368d927db",
    "coherence/disc2-arrow-terminal-triple":
        "d44647ca74dabc52e6ef679b32334946bf8b6e786e0a4c09dadb7921a6923704",
    "coherence/disc2-swap-triple":
        "b7703b68d208ae0504d126b5fb4ab4279f1b4876141d3f13e4951a8779b07561",
    "coherence/klein-triple":
        "b7703b68d208ae0504d126b5fb4ab4279f1b4876141d3f13e4951a8779b07561",
    "coherence/point-arrow-terminal-point":
        "471ff75ba82e01d741d2b28ae4920320f15dee47075c34385f420aa963310396",
    "coherence/point-const-arrow":
        "c4ba2cde12655f9472f751f7dfd216719e7ce8adcbe19da8848f61ea3da1a043",
    "quadruple/arrow-quad-id":
        "8a13da1dc99d0d4aeaac58ce5eb1aa828f9ac3b1822a4689c317c9c6ae236f4b",
    "quadruple/swap-quad":
        "8a13da1dc99d0d4aeaac58ce5eb1aa828f9ac3b1822a4689c317c9c6ae236f4b",
    "quadruple/disc2-arrow-terminal-quad":
        "8a13da1dc99d0d4aeaac58ce5eb1aa828f9ac3b1822a4689c317c9c6ae236f4b",
    "quadruple/idem-quad":
        "8a13da1dc99d0d4aeaac58ce5eb1aa828f9ac3b1822a4689c317c9c6ae236f4b",
    "quadruple/point-consts-quad":
        "8a13da1dc99d0d4aeaac58ce5eb1aa828f9ac3b1822a4689c317c9c6ae236f4b",
    "normalization/m_terminal":
        "abadfff9e1a198c517303fb4d84f32463e6cdc3e11ec473250bc8ed6b3b3ac67",
    "normalization/m_arrow":
        "63b4f5b0cfd1bfc85061751f6a1ed9503a18adc342d94eb7cf230f1792576214",
    "normalization/m_disc2":
        "4493097f389d2b787561824297ff4775a62ec7254cf1d1dc2d9b41d86862ee46",
    "normalization/m_disc3":
        "0a6a30f2922202be4da4a4482eb46e13ac2d46ac4a2c6572de826b874dd42bc5",
    "normalization/m_bz2":
        "62552fe1867ab2633742081368f3a0bb7562ce2d6071aa8e0978baa3b7832a92",
    "normalization/m_idem":
        "a56029b255f0fabf88cd1e3f1dbdbf32fa3f1fed17fd8dd12a3f9eedfbe79dd7",
    "normalization/m_swap_action":
        "4493097f389d2b787561824297ff4775a62ec7254cf1d1dc2d9b41d86862ee46",
    "normalization/m_trivial_z2_on_disc2":
        "4493097f389d2b787561824297ff4775a62ec7254cf1d1dc2d9b41d86862ee46",
    "normalization/m_trivial_z2_on_bz2":
        "62552fe1867ab2633742081368f3a0bb7562ce2d6071aa8e0978baa3b7832a92",
    "normalization/m_transposition_on_disc3":
        "0a6a30f2922202be4da4a4482eb46e13ac2d46ac4a2c6572de826b874dd42bc5",
    "normalization/m_klein_on_disc2":
        "4493097f389d2b787561824297ff4775a62ec7254cf1d1dc2d9b41d86862ee46",
    "2-span-filler/terminal-identity":
        "e71b0a52b28fccca983dee1c8721b89897f439c9e01f3e41d60fc9c5ac306ea1",
    "2-span-filler/arrow-identity":
        "fcdf720332ae08a857a25fc4f19a0e432b6bb242def4a06121b6aa5fc961bb6c",
    "2-span-filler/arrow-const0-to-id":
        "b1e9845e42856f58a390c1a2ec5c4bdc22b30804bf9798b5728b820ccbf1bcbf",
    "2-span-filler/idem-absorbing":
        "a71ea762eaa87b1b5a0ee1bc3f0bb5b84f71fdbe1a3e554ef825db13dc695217",
    "2-span-filler/swap-identity":
        "211d68bafbe1bfbc31f394f54c2d424f1fc0f564431722d823c2f71680b6c800",
    "2-span-filler/bz2-central":
        "f4a6bc58ff20f27399ff7882c2a2de85aaa773f5c8c563bc99f4a8a593da13f2",
}


def test_pastings_match_the_pinned_digests():
    assert pasting_digests() == PASTINGS_PINNED
