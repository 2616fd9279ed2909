"""Table identity of every construction built through category_over_product.

Each digest is a sha256 of the repr of a construction's apex tables, objects
and morphisms.  The pinned values were computed with the per-site loops that
category_over_product replaced, so ids and tables must match them exactly.
"""
import hashlib

import corpus
from spanforge.centers import (
    drinfeld_center,
    monoidal_centralizer,
    monoidal_intertwiner,
)
from spanforge.fincat import Functor
from spanforge.groups import (
    cyclic,
    dihedral_4,
    klein_four,
    quaternion_8,
    symmetric_3,
)
from spanforge.limits import FORWARD, REVERSE, comma
from spanforge.monoidal import (
    MonFunctor,
    identity_mon_functor,
    make_discrete_group_category,
    make_skeletal_group_category,
    terminal_monoidal,
)
from spanforge.spans import build_span, build_two_span
from test_centers import idempotent_monoid_monoidal, toric_z2


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def monoidal_cases():
    """The ambient categories of the center, centralizer and intertwiner tests."""
    z2 = cyclic(2)
    twist = tuple(tuple(tuple(1 if (x, y, z) == (1, 1, 1) else 0
                              for z in range(2)) for y in range(2))
                  for x in range(2))
    cases = [(f"discrete-{name}", make_discrete_group_category(group))
             for name, group in (("z2", cyclic(2)), ("z3", cyclic(3)),
                                 ("z4", cyclic(4)), ("klein", klein_four()),
                                 ("s3", symmetric_3()), ("d4", dihedral_4()),
                                 ("q8", quaternion_8()))]
    cases += [("terminal", terminal_monoidal()), ("toric-z2", toric_z2()),
              ("twisted-z2", make_skeletal_group_category(z2, z2, twist)),
              ("idempotent", idempotent_monoid_monoidal())]
    return dict(cases)


def center_digest(center) -> str:
    return digest(center.as_category, center.objects_data,
                  center.forgetful.morphism_map, center.monoidal, center.braiding)


def table_digests() -> dict[str, str]:
    out = {}
    for name, fd in corpus.span_corpus():
        cell = build_span(fd, verify=False)
        out[f"span/{name}"] = digest(cell.apex, cell.apex_objects, cell.fp.morphisms)
        for orientation in (FORWARD, REVERSE):
            result = comma(cell.fp.left, cell.fp.right, orientation=orientation)
            out[f"comma-{orientation}/{name}"] = digest(
                result.apex, result.objects, result.morphisms)
    for name, ad in corpus.nattrans_corpus():
        cell = build_two_span(ad, verify=False)
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
            result.as_category, result.objects_data,
            result.forgetful.morphism_map, result.left_action, result.right_action)
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
}


def test_tables_match_the_pinned_digests():
    assert table_digests() == PINNED
