"""Bit-exact textual documents for every domain type.

The format is canonical JSON: sorted keys, two-space indent, a trailing
newline, integers only.  Parsing is strict — unknown fields, wrong types,
and dangling ids are rejected with the offending path — and canonical, so
equal values always serialize to identical bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .fincat import (
    FinCategory,
    Functor,
    NatTrans,
    StructureError,
)
from .monoidal import Braiding, MonFunctor, MonoidalStructure, tabulate_monoidal
from .spans import (
    ModuleData,
    ModuleFunctorData,
    ModuleNatTransData,
    SpanCell,
)

FORMAT = "spanforge/1"

KINDS = ("category", "monoidal", "braiding", "functor", "mon_functor",
         "nat_trans", "module", "module_functor", "module_nattrans", "span",
         "report")


class SchemaError(StructureError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Document:
    kind: str
    payload: object


def serialize(doc: Document) -> str:
    tree = {"format": FORMAT, "kind": doc.kind, "payload": doc.payload}
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


def parse(text: str) -> Document:
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc.msg}")
    _expect_keys(tree, "$", ("format", "kind", "payload"))
    if tree["format"] != FORMAT:
        raise SchemaError("$.format",
                          f"version {tree['format']!r} is not {FORMAT!r}")
    kind = tree["kind"]
    if kind not in KINDS:
        raise SchemaError("$.kind", f"unknown kind {kind!r}")
    _VALIDATORS[kind](tree["payload"], "$.payload")
    return Document(kind, tree["payload"])


# ---------------------------------------------------------------------------
# validators: shape, types, and id ranges, with paths
# ---------------------------------------------------------------------------

def _expect_keys(tree, path, keys):
    if not isinstance(tree, dict):
        raise SchemaError(path, "expected an object")
    extra = set(tree) - set(keys)
    if extra:
        raise SchemaError(f"{path}.{sorted(extra)[0]}", "unknown field")
    for key in keys:
        if key not in tree:
            raise SchemaError(f"{path}.{key}", "missing field")


def _expect_int(value, path, upper=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(path, "expected an integer")
    if upper is not None and not 0 <= value < upper:
        raise SchemaError(path, f"dangling id {value} (must be below {upper})")
    return value


def _expect_list(value, path, length=None):
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array")
    if length is not None and len(value) != length:
        raise SchemaError(path, f"expected {length} entries, found {len(value)}")
    return value


def _int_list(value, path, length, upper):
    out = _expect_list(value, path, length)
    return [_expect_int(v, f"{path}[{i}]", upper) for i, v in enumerate(out)]


def _validate_category(tree, path) -> tuple[int, int]:
    _expect_keys(tree, path, ("objects", "morphisms", "identity", "composition"))
    n = _expect_int(tree["objects"], f"{path}.objects")
    if n < 0:
        raise SchemaError(f"{path}.objects", "negative object count")
    morphisms = _expect_list(tree["morphisms"], f"{path}.morphisms")
    for i, mor in enumerate(morphisms):
        _expect_keys(mor, f"{path}.morphisms[{i}]", ("source", "target"))
        _expect_int(mor["source"], f"{path}.morphisms[{i}].source", n)
        _expect_int(mor["target"], f"{path}.morphisms[{i}].target", n)
    m = len(morphisms)
    _int_list(tree["identity"], f"{path}.identity", n, m)
    comp = _expect_list(tree["composition"], f"{path}.composition")
    seen = set()
    for i, entry in enumerate(comp):
        triple = _int_list(entry, f"{path}.composition[{i}]", 3, m)
        if (triple[0], triple[1]) in seen:
            raise SchemaError(f"{path}.composition[{i}]",
                              "duplicate composable pair")
        seen.add((triple[0], triple[1]))
    return n, m


def _validate_functor(tree, path) -> tuple[tuple[int, int], tuple[int, int]]:
    _expect_keys(tree, path, ("source", "target", "objects", "morphisms"))
    src = _validate_category(tree["source"], f"{path}.source")
    tgt = _validate_category(tree["target"], f"{path}.target")
    _int_list(tree["objects"], f"{path}.objects", src[0], tgt[0])
    _int_list(tree["morphisms"], f"{path}.morphisms", src[1], tgt[1])
    return src, tgt


def _validate_nat_trans(tree, path):
    _expect_keys(tree, path, ("source", "target", "components"))
    src = _validate_functor(tree["source"], f"{path}.source")
    tgt = _validate_functor(tree["target"], f"{path}.target")
    if tree["source"]["source"] != tree["target"]["source"] \
            or tree["source"]["target"] != tree["target"]["target"]:
        raise SchemaError(f"{path}.target", "functors are not parallel")
    _int_list(tree["components"], f"{path}.components", src[0][0], src[1][1])


def _validate_monoidal(tree, path) -> tuple[int, int]:
    _expect_keys(tree, path, ("base", "unit", "tensor", "associator",
                              "left_unitor", "right_unitor"))
    n, m = _validate_category(tree["base"], f"{path}.base")
    _expect_int(tree["unit"], f"{path}.unit", n)
    _expect_keys(tree["tensor"], f"{path}.tensor", ("objects", "morphisms"))
    rows = _expect_list(tree["tensor"]["objects"], f"{path}.tensor.objects", n)
    for i, row in enumerate(rows):
        _int_list(row, f"{path}.tensor.objects[{i}]", n, n)
    rows = _expect_list(tree["tensor"]["morphisms"],
                        f"{path}.tensor.morphisms", m)
    for i, row in enumerate(rows):
        _int_list(row, f"{path}.tensor.morphisms[{i}]", m, m)
    outer = _expect_list(tree["associator"], f"{path}.associator", n)
    for i, mid in enumerate(outer):
        mid = _expect_list(mid, f"{path}.associator[{i}]", n)
        for j, row in enumerate(mid):
            _int_list(row, f"{path}.associator[{i}][{j}]", n, m)
    _int_list(tree["left_unitor"], f"{path}.left_unitor", n, m)
    _int_list(tree["right_unitor"], f"{path}.right_unitor", n, m)
    return n, m


def _validate_braiding(tree, path):
    _expect_keys(tree, path, ("monoidal", "components"))
    n, m = _validate_monoidal(tree["monoidal"], f"{path}.monoidal")
    rows = _expect_list(tree["components"], f"{path}.components", n)
    for i, row in enumerate(rows):
        _int_list(row, f"{path}.components[{i}]", n, m)


def _validate_mon_functor(tree, path):
    _expect_keys(tree, path, ("source", "target", "objects", "morphisms",
                              "mult", "unit"))
    sn, sm = _validate_monoidal(tree["source"], f"{path}.source")
    tn, tm = _validate_monoidal(tree["target"], f"{path}.target")
    _int_list(tree["objects"], f"{path}.objects", sn, tn)
    _int_list(tree["morphisms"], f"{path}.morphisms", sm, tm)
    rows = _expect_list(tree["mult"], f"{path}.mult", sn)
    for i, row in enumerate(rows):
        _int_list(row, f"{path}.mult[{i}]", sn, tm)
    _expect_int(tree["unit"], f"{path}.unit", tm)


def _validate_module(tree, path):
    _expect_keys(tree, path, ("acting", "carrier", "action_objects",
                              "action_morphisms", "mult", "unit"))
    an, am = _validate_monoidal(tree["acting"], f"{path}.acting")
    cn, cm = _validate_category(tree["carrier"], f"{path}.carrier")
    functors = _expect_list(tree["action_objects"], f"{path}.action_objects", an)
    for i, fun in enumerate(functors):
        _expect_keys(fun, f"{path}.action_objects[{i}]", ("objects", "morphisms"))
        _int_list(fun["objects"], f"{path}.action_objects[{i}].objects", cn, cn)
        _int_list(fun["morphisms"], f"{path}.action_objects[{i}].morphisms",
                  cm, cm)
    rows = _expect_list(tree["action_morphisms"], f"{path}.action_morphisms", am)
    for i, row in enumerate(rows):
        _int_list(row, f"{path}.action_morphisms[{i}]", cn, cm)
    outer = _expect_list(tree["mult"], f"{path}.mult", an)
    for i, mid in enumerate(outer):
        mid = _expect_list(mid, f"{path}.mult[{i}]", an)
        for j, row in enumerate(mid):
            _int_list(row, f"{path}.mult[{i}][{j}]", cn, cm)
    _int_list(tree["unit"], f"{path}.unit", cn, cm)
    return (an, am), (cn, cm)


def _validate_module_functor(tree, path):
    _expect_keys(tree, path, ("dom", "cod", "functor", "transports"))
    (an, _), (dn, dm) = _validate_module(tree["dom"], f"{path}.dom")
    _, (cn, cm) = _validate_module(tree["cod"], f"{path}.cod")
    fun = tree["functor"]
    _expect_keys(fun, f"{path}.functor", ("objects", "morphisms"))
    _int_list(fun["objects"], f"{path}.functor.objects", dn, cn)
    _int_list(fun["morphisms"], f"{path}.functor.morphisms", dm, cm)
    rows = _expect_list(tree["transports"], f"{path}.transports", an)
    for i, row in enumerate(rows):
        _int_list(row, f"{path}.transports[{i}]", dn, cm)


def _validate_module_nattrans(tree, path):
    _expect_keys(tree, path, ("dom", "cod", "components"))
    _validate_module_functor(tree["dom"], f"{path}.dom")
    _validate_module_functor(tree["cod"], f"{path}.cod")
    if tree["dom"]["dom"] != tree["cod"]["dom"] \
            or tree["dom"]["cod"] != tree["cod"]["cod"]:
        raise SchemaError(f"{path}.cod", "module functors are not parallel")
    dn = tree["dom"]["dom"]["carrier"]["objects"]
    cm = len(tree["dom"]["cod"]["carrier"]["morphisms"])
    _int_list(tree["components"], f"{path}.components", dn, cm)


def _validate_span(tree, path):
    _expect_keys(tree, path, ("apex", "objects", "left_leg", "right_leg",
                              "filler"))
    n, _ = _validate_monoidal(tree["apex"], f"{path}.apex")
    objects = _expect_list(tree["objects"], f"{path}.objects", n)
    for i, entry in enumerate(objects):
        entry = _expect_list(entry, f"{path}.objects[{i}]")
        if len(entry) not in (3, 4):
            raise SchemaError(f"{path}.objects[{i}]",
                              "expected a triple or quadruple")
        for j, v in enumerate(entry):
            _expect_int(v, f"{path}.objects[{i}][{j}]")
    for leg in ("left_leg", "right_leg"):
        _expect_keys(tree[leg], f"{path}.{leg}", ("objects", "morphisms"))
        _expect_list(tree[leg]["objects"], f"{path}.{leg}.objects", n)
        _expect_list(tree[leg]["morphisms"], f"{path}.{leg}.morphisms")
    _expect_list(tree["filler"], f"{path}.filler", n)


def _validate_report(tree, path):
    _expect_keys(tree, path, ("command", "ok", "summary", "violations",
                              "artifacts"))
    if not isinstance(tree["ok"], bool):
        raise SchemaError(f"{path}.ok", "expected a boolean")
    if not isinstance(tree["command"], str):
        raise SchemaError(f"{path}.command", "expected a string")
    if not isinstance(tree["summary"], dict):
        raise SchemaError(f"{path}.summary", "expected an object")
    if not isinstance(tree["artifacts"], dict):
        raise SchemaError(f"{path}.artifacts", "expected an object")
    entries = _expect_list(tree["violations"], f"{path}.violations")
    for i, v in enumerate(entries):
        _expect_keys(v, f"{path}.violations[{i}]",
                      ("subject", "law", "witness", "detail"))


_VALIDATORS = {
    "category": _validate_category,
    "functor": _validate_functor,
    "nat_trans": _validate_nat_trans,
    "monoidal": _validate_monoidal,
    "braiding": _validate_braiding,
    "mon_functor": _validate_mon_functor,
    "module": _validate_module,
    "module_functor": _validate_module_functor,
    "module_nattrans": _validate_module_nattrans,
    "span": _validate_span,
    "report": _validate_report,
}


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def encode_category(c: FinCategory) -> dict:
    return {
        "objects": c.num_objects,
        "morphisms": [{"source": c.source[f], "target": c.target[f]}
                      for f in range(c.num_morphisms)],
        "identity": list(c.identity),
        "composition": [[g, f, c.comp[g][f]]
                        for g in range(c.num_morphisms)
                        for f in range(c.num_morphisms)
                        if c.comp[g][f] != -1],
    }


def encode_functor(f: Functor) -> dict:
    return {"source": encode_category(f.source),
            "target": encode_category(f.target),
            "objects": list(f.object_map),
            "morphisms": list(f.morphism_map)}


def encode_nat_trans(t: NatTrans) -> dict:
    return {"source": encode_functor(t.source),
            "target": encode_functor(t.target),
            "components": list(t.components)}


def encode_monoidal(ms: MonoidalStructure) -> dict:
    n = ms.base.num_objects
    m = ms.base.num_morphisms
    return {
        "base": encode_category(ms.base),
        "unit": ms.unit,
        "tensor": {
            "objects": [[ms.tensor_obj(x, y) for y in range(n)]
                        for x in range(n)],
            "morphisms": [[ms.tensor_mor(f, g) for g in range(m)]
                          for f in range(m)],
        },
        "associator": [[[ms.alpha(x, y, z) for z in range(n)]
                        for y in range(n)] for x in range(n)],
        "left_unitor": list(ms.left_unitor),
        "right_unitor": list(ms.right_unitor),
    }


def encode_braiding(b: Braiding) -> dict:
    n = b.on.base.num_objects
    return {"monoidal": encode_monoidal(b.on),
            "components": [[b.at(x, y) for y in range(n)] for x in range(n)]}


def encode_mon_functor(mf: MonFunctor) -> dict:
    n = mf.source.base.num_objects
    return {"source": encode_monoidal(mf.source),
            "target": encode_monoidal(mf.target),
            "objects": list(mf.underlying.object_map),
            "morphisms": list(mf.underlying.morphism_map),
            "mult": [[mf.gamma(x, y) for y in range(n)] for x in range(n)],
            "unit": mf.unit_iso}


def encode_module(md: ModuleData) -> dict:
    an = md.acting.base.num_objects
    return {
        "acting": encode_monoidal(md.acting),
        "carrier": encode_category(md.carrier),
        "action_objects": [{"objects": list(md.functor_at(c).object_map),
                            "morphisms": list(md.functor_at(c).morphism_map)}
                           for c in range(an)],
        "action_morphisms": [
            list(md.end.fc.transformations[md.action.on_mor(u)].components)
            for u in range(md.acting.base.num_morphisms)],
        "mult": [[list(md.end.fc.transformations[md.action.gamma(x, y)].components)
                  for y in range(an)] for x in range(an)],
        "unit": list(md.end.fc.transformations[md.action.unit_iso].components),
    }


def encode_module_functor(fd: ModuleFunctorData) -> dict:
    return {"dom": encode_module(fd.dom),
            "cod": encode_module(fd.cod),
            "functor": {"objects": list(fd.f.object_map),
                        "morphisms": list(fd.f.morphism_map)},
            "transports": [list(t.components) for t in fd.xi]}


def encode_module_nattrans(ad: ModuleNatTransData) -> dict:
    return {"dom": encode_module_functor(ad.dom),
            "cod": encode_module_functor(ad.cod),
            "components": list(ad.a.components)}


def encode_span(cell: SpanCell) -> dict:
    return {
        "apex": encode_monoidal(cell.apex),
        "objects": [list(entry) for entry in cell.apex_objects],
        "left_leg": {"objects": list(cell.leg_left.underlying.object_map),
                     "morphisms": list(cell.leg_left.underlying.morphism_map)},
        "right_leg": {"objects": list(cell.leg_right.underlying.object_map),
                      "morphisms": list(cell.leg_right.underlying.morphism_map)},
        "filler": list(cell.filler.components),
    }


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------

def decode_category(tree) -> FinCategory:
    m = len(tree["morphisms"])
    comp = [[-1] * m for _ in range(m)]
    for g, f, h in tree["composition"]:
        comp[g][f] = h
    return FinCategory(tree["objects"],
                       tuple(mor["source"] for mor in tree["morphisms"]),
                       tuple(mor["target"] for mor in tree["morphisms"]),
                       tuple(tree["identity"]),
                       tuple(tuple(row) for row in comp))


def decode_functor(tree) -> Functor:
    return Functor(decode_category(tree["source"]),
                   decode_category(tree["target"]),
                   tuple(tree["objects"]), tuple(tree["morphisms"]))


def decode_nat_trans(tree) -> NatTrans:
    return NatTrans(decode_functor(tree["source"]),
                    decode_functor(tree["target"]),
                    tuple(tree["components"]))


def decode_monoidal(tree) -> MonoidalStructure:
    tensor = tree["tensor"]
    return tabulate_monoidal(
        decode_category(tree["base"]), tree["unit"],
        lambda x, y: tensor["objects"][x][y],
        lambda f, g, s, t: tensor["morphisms"][f][g],
        associator=lambda x, y, z, s, t: tree["associator"][x][y][z],
        left_unitor=lambda x, s: tree["left_unitor"][x],
        right_unitor=lambda x, s: tree["right_unitor"][x])


def decode_braiding(tree) -> Braiding:
    ms = decode_monoidal(tree["monoidal"])
    n = ms.base.num_objects
    return Braiding(ms, tuple(tree["components"][x][y]
                              for x in range(n) for y in range(n)))


def decode_mon_functor(tree) -> MonFunctor:
    src = decode_monoidal(tree["source"])
    tgt = decode_monoidal(tree["target"])
    n = src.base.num_objects
    return MonFunctor(src, tgt,
                      Functor(src.base, tgt.base, tuple(tree["objects"]),
                              tuple(tree["morphisms"])),
                      tuple(tree["mult"][x][y]
                            for x in range(n) for y in range(n)),
                      tree["unit"])


def decode_module(tree, budget) -> ModuleData:
    from .spans import end_monoidal
    acting = decode_monoidal(tree["acting"])
    carrier = decode_category(tree["carrier"])
    end = end_monoidal(carrier, budget)
    fi = end.fc.functor_index()
    ti = end.fc.transformation_index()

    def functor_id(entry, path) -> int:
        fun = Functor(carrier, carrier, tuple(entry["objects"]),
                      tuple(entry["morphisms"]))
        if fun not in fi:
            raise SchemaError(path, "tables do not define an endofunctor")
        return fi[fun]

    obj_map = tuple(functor_id(entry, f"$.payload.action_objects[{c}]")
                    for c, entry in enumerate(tree["action_objects"]))

    def trans_id(src, tgt, comps, path) -> int:
        key = (src, tgt, tuple(comps))
        if key not in ti:
            raise SchemaError(path, "components are not a natural transformation")
        return ti[key]

    mor_map = tuple(
        trans_id(obj_map[acting.base.source[u]], obj_map[acting.base.target[u]],
                 row, f"$.payload.action_morphisms[{u}]")
        for u, row in enumerate(tree["action_morphisms"]))
    an = acting.base.num_objects
    mult = tuple(
        trans_id(end.monoidal.tensor_obj(obj_map[x], obj_map[y]),
                 obj_map[acting.tensor_obj(x, y)],
                 tree["mult"][x][y], f"$.payload.mult[{x}][{y}]")
        for x in range(an) for y in range(an))
    unit_iso = trans_id(end.monoidal.unit, obj_map[acting.unit], tree["unit"],
                        "$.payload.unit")
    from .monoidal import MonFunctor as MF
    action = MF(acting, end.monoidal,
                Functor(acting.base, end.fc.as_category, obj_map, mor_map),
                mult, unit_iso)
    return ModuleData(acting, carrier, end, action)


def decode_module_functor(tree, budget) -> ModuleFunctorData:
    dom = decode_module(tree["dom"], budget)
    cod = decode_module(tree["cod"], budget)
    fun = Functor(dom.carrier, cod.carrier,
                  tuple(tree["functor"]["objects"]),
                  tuple(tree["functor"]["morphisms"]))
    xi = []
    for c, row in enumerate(tree["transports"]):
        from .fincat import compose_functors
        left = compose_functors(fun, dom.functor_at(c))
        right = compose_functors(cod.functor_at(c), fun)
        xi.append(NatTrans(left, right, tuple(row)))
    return ModuleFunctorData(dom, cod, fun, tuple(xi))


def decode_module_nattrans(tree, budget) -> ModuleNatTransData:
    dom = decode_module_functor(tree["dom"], budget)
    cod = decode_module_functor(tree["cod"], budget)
    return ModuleNatTransData(dom, cod,
                              NatTrans(dom.f, cod.f, tuple(tree["components"])))
