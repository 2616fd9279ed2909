import pathlib

import pytest

import corpus
from spanforge.docs import (
    Document,
    SchemaError,
    decode_braiding,
    decode_functor,
    decode_module,
    decode_module_functor,
    decode_module_nattrans,
    decode_mon_functor,
    decode_monoidal,
    decode_nat_trans,
    encode_braiding,
    encode_category,
    encode_functor,
    encode_module,
    encode_module_functor,
    encode_module_nattrans,
    encode_mon_functor,
    encode_monoidal,
    encode_nat_trans,
    encode_span,
    parse,
    serialize,
)
from spanforge.fincat import identity_functor, terminal_category, walking_arrow
from spanforge.groups import cyclic
from spanforge.monoidal import (
    identity_mon_functor,
    make_bicharacter_braiding,
    make_skeletal_group_category,
    trivial_cochain,
)
from spanforge.spans import build_span

DATA = pathlib.Path(__file__).parent / "data"


def roundtrip(kind, payload):
    doc = Document(kind, payload)
    text = serialize(doc)
    back = parse(text)
    assert back == doc
    assert serialize(back) == text
    return text


def test_category_roundtrip_and_golden_bytes():
    text = roundtrip("category", encode_category(terminal_category()))
    assert text == (DATA / "terminal_category.json").read_text()
    roundtrip("category", encode_category(walking_arrow()))


def test_monoidal_roundtrip_and_golden_bytes():
    omega = tuple(tuple(tuple(1 if (x, y, z) == (1, 1, 1) else 0
                              for z in range(2)) for y in range(2))
                  for x in range(2))
    ms = make_skeletal_group_category(cyclic(2), cyclic(2), omega)
    text = roundtrip("monoidal", encode_monoidal(ms))
    assert text == (DATA / "z2_cocycle_monoidal.json").read_text()
    assert decode_monoidal(parse(text).payload) == ms


def test_braiding_roundtrip():
    z3 = cyclic(3)
    ms = make_skeletal_group_category(z3, z3, trivial_cochain(z3))
    pairing = tuple(tuple((a * b) % 3 for b in range(3)) for a in range(3))
    b = make_bicharacter_braiding(ms, z3, pairing)
    text = roundtrip("braiding", encode_braiding(b))
    assert decode_braiding(parse(text).payload) == b


def fixture_monoidals():
    """(file, monoidal structure) for every monoidal structure that a
    monoidal, braiding or mon_functor fixture holds."""
    found = []
    for path in sorted(DATA.glob("*.json")):
        try:
            doc = parse(path.read_text())
        except SchemaError:
            continue
        if doc.kind == "monoidal":
            found.append((path.name, decode_monoidal(doc.payload)))
        elif doc.kind == "braiding":
            found.append((path.name, decode_braiding(doc.payload).on))
        elif doc.kind == "mon_functor":
            mf = decode_mon_functor(doc.payload)
            found += [(path.name, mf.source), (path.name, mf.target)]
    return found


def test_strict_structures_roundtrip_strict():
    # a document always lists the identity tables, and decoding stores a
    # structure whose components are all identities strict again
    strict = [(name, ms) for name, ms in fixture_monoidals() if ms.strict]
    assert len(strict) >= 8
    for name, ms in strict:
        tree = encode_monoidal(ms)
        assert len(tree["associator"]) == len(tree["left_unitor"]) \
            == ms.base.num_objects, name
        back = decode_monoidal(parse(roundtrip("monoidal", tree)).payload)
        assert back == ms and back.strict, name
    cocycle = decode_monoidal(parse((DATA / "z2_cocycle_monoidal.json").read_text()).payload)
    assert not cocycle.strict


def test_functor_and_nat_trans_roundtrip():
    fun = identity_functor(walking_arrow())
    text = roundtrip("functor", encode_functor(fun))
    assert decode_functor(parse(text).payload) == fun
    from spanforge.fincat import identity_nat_trans
    nt = identity_nat_trans(fun)
    text = roundtrip("nat_trans", encode_nat_trans(nt))
    assert decode_nat_trans(parse(text).payload) == nt


def test_mon_functor_roundtrip():
    ms = make_skeletal_group_category(cyclic(2), cyclic(2),
                                      trivial_cochain(cyclic(2)))
    mf = identity_mon_functor(ms)
    text = roundtrip("mon_functor", encode_mon_functor(mf))
    assert decode_mon_functor(parse(text).payload) == mf


def test_module_documents_roundtrip():
    md = corpus.m_swap_action()
    text = roundtrip("module", encode_module(md))
    back = decode_module(parse(text).payload, __import__(
        "spanforge.fincat", fromlist=["Budget"]).Budget())
    assert back == md

    fd = dict(corpus.span_corpus())["disc2-into-arrow"]
    text = roundtrip("module_functor", encode_module_functor(fd))
    from spanforge.fincat import Budget
    assert decode_module_functor(parse(text).payload, Budget()) == fd

    ad = dict(corpus.nattrans_corpus())["arrow-const0-to-id"]
    text = roundtrip("module_nattrans", encode_module_nattrans(ad))
    assert decode_module_nattrans(parse(text).payload, Budget()) == ad


def test_span_document_roundtrip():
    cell = build_span(dict(corpus.span_corpus())["disc2-into-arrow"])
    roundtrip("span", encode_span(cell))


def test_canonical_serialization_is_idempotent():
    for path in sorted(DATA.glob("*.json")):
        if path.name.startswith("malformed"):
            continue
        text = path.read_text()
        assert serialize(parse(text)) == text, path.name


def test_unknown_field_rejected_with_path():
    with pytest.raises(SchemaError) as exc:
        parse((DATA / "malformed_unknown_field.json").read_text())
    assert "color" in str(exc.value)


def test_dangling_id_rejected_with_path():
    with pytest.raises(SchemaError) as exc:
        parse((DATA / "malformed_dangling.json").read_text())
    assert "morphisms[0].target" in str(exc.value)
    assert "dangling" in str(exc.value)


def test_version_mismatch_rejected():
    with pytest.raises(SchemaError) as exc:
        parse((DATA / "malformed_version.json").read_text())
    assert "$.format" in str(exc.value)


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        parse('{"format": "spanforge/1", "kind": "mystery", "payload": {}}')


def test_non_integer_rejected():
    bad = ('{"format": "spanforge/1", "kind": "category", "payload": '
           '{"objects": 1, "morphisms": [{"source": 0, "target": 0.5}], '
           '"identity": [0], "composition": [[0, 0, 0]]}}')
    with pytest.raises(SchemaError):
        parse(bad)


def test_duplicate_composition_pair_rejected():
    bad = ('{"format": "spanforge/1", "kind": "category", "payload": '
           '{"objects": 1, "morphisms": [{"source": 0, "target": 0}], '
           '"identity": [0], "composition": [[0, 0, 0], [0, 0, 0]]}}')
    with pytest.raises(SchemaError) as exc:
        parse(bad)
    assert "duplicate" in str(exc.value)
