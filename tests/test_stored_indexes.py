"""The id maps that builders store are the maps their tables determine.

Fiber products and commas, functor categories and centers carry their id
maps, filled once by the builder.  Each stored map is compared with the dict
built from the result's own tables by the formulas below, which are the ones
the per-call rebuild methods used.  The maps take no part in equality or
hashing, which is checked too.
"""
from dataclasses import replace

from corpus import composable_pairs, span_corpus
from test_central import central_setups

from spanforge.central import central_module_check
from spanforge.centers import (
    braided_centralizer,
    monoidal_centralizer,
    monoidal_intertwiner,
)
from spanforge.laxators import laxator
from spanforge.limits import FORWARD, REVERSE, comma
from spanforge.monoidal import MonoidalStructure
from spanforge.spans import build_span


def comma_maps(result):
    objects = {t: i for i, t in enumerate(result.objects)}
    morphisms = {(result.apex.source[k], result.apex.target[k]) + result.morphisms[k]: k
                 for k in range(len(result.morphisms))}
    return objects, morphisms


def functor_category_maps(fc):
    functors = {(f.object_map, f.morphism_map): i for i, f in enumerate(fc.functors)}
    cat = fc.as_category
    transformations = {(fi, ti, nt.components): k for k, (fi, ti, nt)
                       in enumerate(zip(cat.source, cat.target, fc.transformations))}
    return functors, transformations


def center_maps(center):
    objects = {(o.carrier, o.components): i
               for i, o in enumerate(center.objects_data)}
    cat = center.as_category
    morphisms = {(cat.source[k], cat.target[k], center.forgetful.morphism_map[k]): k
                 for k in range(cat.num_morphisms)}
    return objects, morphisms


def assert_comma_maps(result, name):
    objects, morphisms = comma_maps(result)
    assert len(objects) == len(result.objects), name
    assert result.object_index == objects, name
    assert result.morphism_index == morphisms, name


def assert_functor_category_maps(fc, name):
    functors, transformations = functor_category_maps(fc)
    assert fc.functor_index == functors, name
    assert fc.transformation_index == transformations, name
    for i, fun in enumerate(fc.functors):
        assert fc.functor_id(fun) == i, name
    for k, nt in enumerate(fc.transformations):
        assert fc.transformation_id(nt) == k, name


def assert_center_maps(center, name):
    objects, morphisms = center_maps(center)
    assert len(objects) == len(center.objects_data), name
    assert center.object_index == objects, name
    assert center.morphism_index == morphisms, name


def test_span_corpus_fiber_products_and_functor_categories():
    modules = {}
    for name, fd in span_corpus():
        cell = build_span(fd)
        assert_comma_maps(cell.fp, name)
        assert_functor_category_maps(cell.hom_fc, name)
        for md in (fd.dom, fd.cod):
            modules[id(md)] = md
        for orientation in (FORWARD, REVERSE):
            assert_comma_maps(comma(cell.fp.left, cell.fp.right,
                                    orientation=orientation), name)
    assert len(modules) == 10
    for md in modules.values():
        assert_functor_category_maps(md.end.fc, md.carrier)


def test_pairing_squares_of_the_composable_pairs():
    for name, fd, gd in composable_pairs():
        result = laxator(fd, gd)
        assert_comma_maps(result.pairing.fp, name)
        assert_comma_maps(result.span_composite.fp, name)
        assert_functor_category_maps(result.span_composite.hom_fc, name)


def test_centralizers_centers_and_intertwiners_of_the_central_setups():
    for name, setup in central_setups().items():
        for center in (setup.left.center, setup.right.center):
            assert_center_maps(center, name)
        fiber = central_module_check(setup).fiber
        assert_comma_maps(fiber.fp, name)
        if isinstance(setup.left.carrier, MonoidalStructure):
            assert_center_maps(monoidal_centralizer(setup.g), name)
            other = setup.g if setup.h is None else setup.h
            result = monoidal_intertwiner(setup.g, other)
            for center in (result.intertwiner, result.left_center,
                           result.right_center):
                assert_center_maps(center, name)
        else:
            assert_center_maps(braided_centralizer(
                setup.g, setup.left.carrier, setup.right.carrier), name)


def test_stored_maps_take_no_part_in_equality():
    cell = build_span(dict(span_corpus())["arrow-id"])
    stripped = replace(cell.fp, object_index={}, morphism_index={})
    assert stripped == cell.fp and hash(stripped) == hash(cell.fp)
    fc = cell.hom_fc
    stripped = replace(fc, functor_index={}, transformation_index={})
    assert stripped == fc and hash(stripped) == hash(fc)
    center = next(iter(central_setups().values())).left.center
    stripped = replace(center, object_index={}, morphism_index={})
    assert stripped == center and hash(stripped) == hash(center)
    assert "object_index" not in repr(stripped)
