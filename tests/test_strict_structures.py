"""Strict monoidal structures store no coherence tables.

tabulate_monoidal stores a structure whose associator and unitor components
are all identities with None in place of the three tables, whether its
coherence callbacks were left out or returned those identities.  The span
apexes, End categories, 2-span apexes, pairing apexes and centers are all
strict.  Only monoidal.py reads the table layout; everything else reads a
component through alpha, alpha_inv or unitor.

check_monoidal, check_mon_functor and check_braiding read a strict end
through the strict reduction instead of a table.  Each must give the
report of its reference, which reads explicit tables, on the constructions
above, on their explicit-table forms (oracles.explicit_tables) and on
seeded mutants that break one of strict associativity on objects, strict
associativity on morphisms, unitality on objects or on morphisms, and the
tensor's preservation of identities; test_reference_checkers builds these
pools and compares them once.  The exhaustive oracle agrees
with check_monoidal on the small constructions here.

laxators.monoidal_fiber_product builds its apex with
monoidal.monoidal_over_product, which over strict feet runs no coherence
lookup unless the apex tensor is not associative and unital on objects.
It must build what oracles.callback_monoidal_fiber_product builds, with
every lookup run, on every fiber product of the laxators on the composable
pairs and triples (each laxator_coherence t_right among them) and of both
central routes on every central setup, and raise what it raises over
seeded magma feet.
"""
import ast
import functools
import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import corpus
from oracles import explicit_tables
from test_centers import monoidal_cases
from test_reduced_scans import agree, with_scalars
from spanforge.centers import drinfeld_center
from spanforge.fincat import StructureError, constant_functor, discrete_category
from spanforge.groups import cyclic
from spanforge.laxators import laxator, laxator_coherence, monoidal_fiber_product
from spanforge.monoidal import (
    MonoidalStructure,
    check_monoidal,
    identity_mon_functor,
    make_bicharacter_braiding,
    make_skeletal_group_category,
    strict_mon_functor,
    tabulate_monoidal,
    terminal_monoidal,
    trivial_cochain,
)
from spanforge.reporting import DEFAULT_VIOLATION_CAP
from spanforge.spans import build_span, build_two_span

SRC = Path(__file__).resolve().parent.parent / "src" / "spanforge"
TABLES = ("associator", "left_unitor", "right_unitor")
CAPS = (DEFAULT_VIOLATION_CAP, 1)


def small(ms) -> bool:
    """Whether the exhaustive oracle, whose scans take m⁴ and n⁴ steps, is
    quick on ms; test_reduced_scans runs it on the larger corpus apexes."""
    return ms.base.num_morphisms <= 24 and ms.base.num_objects <= 12


def test_only_monoidal_reads_the_coherence_tables():
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "monoidal.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in TABLES:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not readers, readers


@functools.cache
def strict_cases():
    """(kind, structure, monoidal functors out of or into it, braidings on
    it): span apexes with their legs and action lifts, End categories with
    the actions into them, 2-span and pairing apexes with their legs,
    Drinfeld centers with their braidings and forgetful functors, and a
    strict skeletal category with a bicharacter braiding."""
    cases = []
    for _, fd in corpus.span_corpus():
        cell = build_span(fd)
        cases.append(("span", cell.apex,
                      (cell.leg_left, cell.leg_right, cell.action_lift), ()))
        for md in {fd.dom: None, fd.cod: None}:
            cases.append(("end", md.end.monoidal, (md.action,), ()))
    for _, ad in corpus.nattrans_corpus():
        cell = build_two_span(ad)
        cases.append(("2-span", cell.apex, (cell.leg_left, cell.leg_right), ()))
    for _, fd, gd in corpus.composable_pairs():
        pairing = laxator(fd, gd).pairing
        cases.append(("pairing", pairing.apex, (pairing.pr1, pairing.pr2), ()))
    for ms in monoidal_cases().values():
        center = drinfeld_center(ms)
        functors = [identity_mon_functor(center.monoidal)]
        if ms.strict:
            functors.append(strict_mon_functor(center.monoidal, ms, center.forgetful))
        cases.append(("center", center.monoidal, tuple(functors), (center.braiding,)))
    z3 = cyclic(3)
    skeletal = make_skeletal_group_category(z3, z3, trivial_cochain(z3))
    cases.append(("skeletal", skeletal, (identity_mon_functor(skeletal),), (
        make_bicharacter_braiding(skeletal, z3, [[x * y % 3 for y in range(3)]
                                                 for x in range(3)]),)))
    return cases


def test_constructions_are_stored_strict():
    stored = [(i, kind) for i, (kind, ms, _, _) in enumerate(strict_cases())
              if any(getattr(ms, table) is not None for table in TABLES)]
    assert not stored, stored


def identity_callbacks(ms):
    """tabulate_monoidal's arguments for ms, with coherence callbacks that
    return the identity components."""
    ident = ms.base.identity
    return ((ms.base, ms.unit, ms.tensor_obj, lambda f, g, s, t: ms.tensor_mor(f, g)),
            {"associator": lambda x, y, z, s, t: ident[s],
             "left_unitor": lambda x, s: ident[x],
             "right_unitor": lambda x, s: ident[x]})


def test_identity_callbacks_give_the_default_structure():
    for kind, ms, _, _ in strict_cases():
        args, callbacks = identity_callbacks(ms)
        assert tabulate_monoidal(*args) == ms, kind
        for chosen in range(1, 4):
            given = dict(list(callbacks.items())[:chosen])
            assert tabulate_monoidal(*args, **given) == ms, (kind, given)


def test_one_non_identity_component_stores_every_table():
    # the skeletal Z/2 with Z/2 scalars: mor(x, 1) = 2x + 1 is a non-identity
    # endomorphism of x; each component in turn is set to it
    ms = make_skeletal_group_category(cyclic(2), cyclic(2), trivial_cochain(cyclic(2)))
    assert ms.strict
    (base, unit, t_obj, t_mor), _ = identity_callbacks(ms)
    n = base.num_objects
    flat = explicit_tables(ms)
    identities = flat.associator + flat.left_unitor + flat.right_unitor
    n3 = n ** 3
    for k in range(n3 + 2 * n):
        want = list(identities)
        want[k] += 1
        got = tabulate_monoidal(
            base, unit, t_obj, t_mor,
            associator=lambda x, y, z, s, t: want[(x * n + y) * n + z],
            left_unitor=lambda x, s: want[n3 + x],
            right_unitor=lambda x, s: want[n3 + n + x])
        assert not got.strict, k
        assert got.associator + got.left_unitor + got.right_unitor == tuple(want), k
        assert got != ms and explicit_tables(got) == got


def outcome(check, s, cap):
    try:
        return check(s, cap)
    except StructureError as exc:
        return type(exc), str(exc)


def test_strict_checks_match_the_explicit_tables_on_constructions():
    # test_reference_checkers builds its pools from this module, so it is
    # imported here; its reference reads every structure through explicit
    # tables, and each strict structure's explicit form is in the pool too
    from test_reference_checkers import pool_outcomes
    for kind in ("monoidal", "mon_functor", "braiding"):
        assert pool_outcomes(kind, "strict constructions"), kind


def magma(n: int, rng: random.Random, unital: bool) -> MonoidalStructure:
    """A strict structure on the discrete category with n objects whose
    object tensor is a seeded magma with unit 0, or with a unit that is
    only a right unit; unlike a group it need not be associative."""
    base = discrete_category(n)
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for x in range(n):
        rows[x][0] = x
        if unital:
            rows[0][x] = x
    return tabulate_monoidal(base, 0, lambda x, y: rows[x][y],
                             lambda f, g, s, t: base.identity[s])


def tensor_mutants(ms, rng: random.Random, count: int):
    """(kind, ms with one tensor_morphisms entry set to a parallel
    morphism), still stored strict.  The entry is id_x⊗id_y ("identity",
    where the tensor must preserve identities), id_I⊗p or p⊗id_I ("unit",
    where strict unitality on morphisms is read) or p⊗q with neither an
    identity ("morphism", where strict associativity on morphisms is)."""
    base = ms.base
    m, ident, unit = base.num_morphisms, base.identity, base.identity[ms.unit]
    moves = [f for f in range(m) if not base.is_identity(f)]
    kinds = {"identity": list(product(ident, ident)),
             "unit": [(unit, p) for p in moves] + [(p, unit) for p in moves],
             "morphism": list(product(moves, moves))}
    out = []
    for kind, pairs in kinds.items():
        for _ in range(count):
            if not pairs:
                break
            f, g = rng.choice(pairs)
            entries = list(ms.tensor_morphisms)
            old = entries[f * m + g]
            parallel = [h for h in base.hom(base.source[old], base.target[old])
                        if h != old]
            if parallel:
                entries[f * m + g] = rng.choice(parallel)
                out.append((kind, replace(ms, tensor_morphisms=tuple(entries))))
    return out


def small_strict_bases():
    """The small strict constructions with a non-thin hom-set, and strict
    thin ones made non-thin by a Z/2 of scalars."""
    found = [ms for _, ms, _, _ in strict_cases() if small(ms)
             and any(len(fs) > 1 for fs in ms.base.hom_table.values())]
    found += [with_scalars(ms) for _, ms, _, _ in strict_cases()[:12]
              if ms.base.num_morphisms <= 6]
    assert all(ms.strict for ms in found)
    return found


def test_strict_checks_match_the_explicit_tables_on_mutants():
    # seeded magmas and tensor mutants of seed 22:
    # test_reference_checkers.strict_mutants
    from test_reference_checkers import agreed_on, pool_outcomes
    for kind in ("monoidal", "mon_functor"):
        assert pool_outcomes(kind, "strict mutants"), kind
    assert {"associator-component", "left-unitor-component",
            "associator-naturality", "left-unitor-naturality",
            "right-unitor-naturality", "tensor-functor-identity",
            "pentagon"} <= {v.law for report in agreed_on("strict mutants")
                            for v in report.violations}


def test_strict_checks_match_the_explicit_tables_on_mutated_ends():
    # a monoidal functor or braiding whose end's tensor breaks one strict
    # law, seed 23: test_reference_checkers.mutated_ends
    from test_reference_checkers import pool_laws, pool_outcomes
    assert pool_outcomes("monoidal", "mutated strict ends")
    assert {"mult-naturality"} <= pool_laws(pool_outcomes("mon_functor", "mutated strict ends"))
    assert {"braiding-naturality"} <= pool_laws(pool_outcomes("braiding", "mutated strict ends"))


def test_exhaustive_oracle_agrees_on_strict_constructions():
    # test_reference_checkers compares the span apexes and End categories
    for kind, ms, _, _ in strict_cases():
        if kind not in ("span", "end") and small(ms):
            agree(ms)


def test_mixed_coherence_tables_are_refused():
    ms = explicit_tables(make_skeletal_group_category(
        cyclic(2), cyclic(2), trivial_cochain(cyclic(2))))
    for table in TABLES:
        with pytest.raises(StructureError, match="all stored or all None"):
            check_monoidal(replace(ms, **{table: None}))


# ---------------------------------------------------------------------------
# the monoidal fiber product over strict feet
# ---------------------------------------------------------------------------

def recorded_fiber_products(monkeypatch):
    """The arguments of every monoidal_fiber_product call made by laxator on
    the composable pairs, by laxator_coherence on the composable triples (its
    t_right among them) and by both central routes on every central setup,
    with whether each call's monoidal_over_product ran its coherence
    lookups."""
    import oracles
    from spanforge import central, laxators
    from test_central import central_setups, s3_twisted_setup
    from test_over_product import recorded_builds

    calls = []
    real_product = laxators.monoidal_fiber_product

    def product(*args, **kwargs):
        calls.append((args, kwargs))
        return real_product(*args, **kwargs)

    def run():
        for _, fd, gd in corpus.composable_pairs():
            laxator(fd, gd)
        for _, fd, gd, hd in corpus.composable_triples():
            laxator_coherence(fd, gd, hd)
        for setup in [*central_setups().values(), s3_twisted_setup()]:
            central.central_module_check(setup)
            oracles.checked_central_module_check(setup)

    for module in (laxators, central, oracles):
        monkeypatch.setattr(module, "monoidal_fiber_product", product)
    builds = recorded_builds(run, (laxators,))
    monkeypatch.undo()
    assert len(builds) == len(calls)
    return calls, [looked_up for _, _, looked_up in builds]


def product_outcome(build, args, kwargs):
    try:
        return build(*args, **kwargs)
    except StructureError as exc:
        return type(exc), str(exc)


def test_fiber_products_over_strict_feet_match_the_callback_route(monkeypatch):
    from oracles import callback_monoidal_fiber_product

    calls, looked_up = recorded_fiber_products(monkeypatch)
    kinds = set()
    for (args, kwargs), given in zip(calls, looked_up):
        f, g = args[:2]
        assert f.source.strict and g.source.strict
        square = monoidal_fiber_product(*args, **kwargs)
        assert square == callback_monoidal_fiber_product(*args, **kwargs)
        assert square.apex.strict and not given
        kinds.add(square.braiding is not None)
    assert len(calls) > 60 and kinds == {True, False}, (len(calls), kinds)


def magma_feet(rng: random.Random):
    """(what, legs) for monoidal fiber products over the terminal category
    whose strict feet are seeded magmas, so the apex is not associative on
    objects, and associative feet with a one-sided unit: x⊗y = x has no
    left unit and x⊗y = y no right unit."""
    point = terminal_monoidal()

    def to_point(ms):
        return strict_mon_functor(ms, point, constant_functor(ms.base, point.base, 0))

    def semigroup(n, rows):
        base = discrete_category(n)
        return tabulate_monoidal(base, 0, lambda x, y: rows[x][y],
                                 lambda f, g, s, t: base.identity[s])

    cases = []
    for n, unital in product((2, 3, 4), (True, False)):
        for _ in range(3):
            x = to_point(magma(n, rng, unital))
            other = to_point(magma(n, rng, True)) if rng.random() < 0.5 \
                else identity_mon_functor(point)
            cases.append(("magma", (x, other) if rng.random() < 0.5 else (other, x)))
    for n in (2, 3):
        cases.append(("left zero", (to_point(semigroup(n, [[x] * n for x in range(n)])),
                                    identity_mon_functor(point))))
        cases.append(("right zero", (identity_mon_functor(point), to_point(
            semigroup(n, [list(range(n))] * n)))))
    return cases


def test_fiber_products_over_magma_feet_raise_as_the_callback_route():
    from oracles import callback_monoidal_fiber_product

    messages = set()
    for what, (f, g) in magma_feet(random.Random(25)):
        got = product_outcome(monoidal_fiber_product, (f, g), {})
        assert got == product_outcome(callback_monoidal_fiber_product, (f, g), {}), what
        if isinstance(got, tuple):
            messages.add(got[1])
        else:
            assert got.apex.strict, what
    assert messages == {"associator pair is not an apex morphism",
                        "left unitor pair is not an apex morphism",
                        "right unitor pair is not an apex morphism"}, messages
