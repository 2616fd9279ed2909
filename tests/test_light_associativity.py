"""Light's associativity test gates the scans of associativity on objects.

groups._first_nonassociative, which monoidal, spans and laxators import,
finds a generating set S of the objects under the tensor, greedily in id
order, and tests (x⊗s)⊗y = x⊗(s⊗y) for every x, y and every s in S
(Clifford-Preston §1.2); it runs the lexicographic n³ scan only when that
test fails, so its witness is the scan's.  check_monoidal skips its
associator component loop on a strict structure whose tensor passes it,
check_mon_functor's strict-image test decides associativity over the
image, a sub-magma, the same way, and so does validate_group on a group
table.

oracles keeps the lexicographic scan and validate_group with its own loop
over every triple.  Each must agree with the gated code, == on return
values and errors, on the tensors of the corpus apexes, End categories,
2-span and pairing apexes, Drinfeld centers and skeletal Z/n cochains,
seeded magmas, and one-entry mutants of associative tensors and of group
tables.  check_monoidal and check_mon_functor, gated, must give the
reports of their references, whose loops run over every triple, on these
structures, their relabelled copies, seeded mutants and the functors whose
strict-image test reaches the image loop, at caps 32, 1 and 0;
test_reference_checkers builds these pools and compares them once.  The gate must also keep firing: neither full loop may run on
a corpus apex or a corpus leg.
"""
import functools
import random

import corpus
import oracles
from test_reduced_scans import corpus_apexes, skeletal_categories
from test_strict_mon_functors import corpus_legs
from test_strict_structures import strict_cases
from spanforge import groups, monoidal
from spanforge.centers import drinfeld_center
from spanforge.groups import GroupError, GroupTable, cyclic, quaternion_8, symmetric_3
from spanforge.monoidal import (
    check_monoidal,
    make_discrete_group_category,
    make_skeletal_group_category,
    trivial_cochain,
)
from spanforge.spans import build_span


def carry(n, k):
    """k times the carry cocycle of Z/n."""
    return tuple(tuple(tuple(k * a * ((b + c) // n) % n for c in range(n))
                       for b in range(n)) for a in range(n))


@functools.cache
def structures():
    """Every structure of test_strict_structures' constructions, the Z/4
    center, skeletal Z/n categories with seeded cochains, and skeletal Z/n
    with Z/n scalars and 0 or 1 times the carry cocycle, strict at 0."""
    z4 = cyclic(4)
    found = [ms for _, ms, _, _ in strict_cases()]
    found.append(drinfeld_center(make_skeletal_group_category(
        z4, z4, trivial_cochain(z4))).monoidal)
    found += [make_skeletal_group_category(cyclic(n), cyclic(n), carry(n, k))
              for n in (4, 5, 6) for k in (0, 1)]
    return found + skeletal_categories()


def associative_tables():
    """Rows of associative tensors: every structure above, and groups."""
    tables = [ms.tensor_rows() for ms in structures()]
    tables += [make_discrete_group_category(g).tensor_rows()
               for g in (cyclic(5), cyclic(6), symmetric_3())]
    return tables


def entry_mutants(rows, rng, count):
    """rows with one entry x⊗y moved to another object, count times."""
    n = len(rows)
    out = []
    for _ in range(count if n > 1 else 0):
        x, y = rng.randrange(n), rng.randrange(n)
        mutant = [list(r) for r in rows]
        mutant[x][y] = rng.choice([z for z in range(n) if z != rows[x][y]])
        out.append([tuple(r) for r in mutant])
    return out


def seeded_magmas(rng, count):
    """Rows of seeded magmas on 2 to 7 objects, unital with unit 0 or not."""
    out = []
    for _ in range(count):
        n = rng.randrange(2, 8)
        rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            for x in range(n):
                rows[x][0] = rows[0][x] = x
        out.append([tuple(r) for r in rows])
    return out


def test_the_helper_returns_the_scans_witness():
    rng = random.Random(28)
    tables = associative_tables()
    mutants = [m for rows in tables for m in entry_mutants(rows, rng, 3)]
    verdicts = {True: 0, False: 0}
    for rows in tables + mutants + seeded_magmas(rng, 300):
        got = monoidal._first_nonassociative(rows)
        assert got == oracles.scanned_first_nonassociative(rows), rows
        verdicts[got is None] += 1
    assert all(monoidal._first_nonassociative(rows) is None for rows in tables)
    assert min(verdicts.values()) > 100, verdicts


def test_validate_group_raises_as_the_full_scan():
    # the groups pass; their one-entry mutants break associativity, or an
    # earlier check, with the parent's message
    rng = random.Random(32)
    messages = {"group": 0, "associativity": 0, "other": 0}
    for g in (cyclic(4), cyclic(6), symmetric_3(), quaternion_8()):
        for rows in [g.mult] + entry_mutants(g.mult, rng, 40):
            got, want = (outcome_of(check, GroupTable(tuple(rows)))
                         for check in (groups.validate_group, oracles.scanned_validate_group))
            assert got == want, rows
            messages["group" if got is None else "associativity"
                     if got[1].startswith("associativity") else "other"] += 1
    assert messages["group"] == 4, messages
    assert min(messages["associativity"], messages["other"]) > 10, messages


def outcome_of(check, table):
    try:
        return check(table)
    except GroupError as exc:
        return type(exc), str(exc)


def test_check_monoidal_matches_the_full_component_loop():
    # test_reference_checkers builds its pools from this module, so it is
    # imported here; its reference runs the associator component loop over
    # every triple, on these structures and their relabelled copies
    from test_reference_checkers import pool_outcomes
    found = pool_outcomes("monoidal", "associativity structures")
    assert set(structures()) <= set(found)


def test_check_monoidal_matches_the_full_component_loop_on_mutants():
    """Seeded magmas and mutants of seed 29
    (test_reference_checkers.component_loop_mutants): object-entry mutants
    of strict constructions, which break the tensor's endpoints too, so at
    cap 1 the builder is full before the component loop; and morphism-entry
    mutants, whose tensor stays associative on objects, so at cap 1 the gate
    passes on a full builder, with the unit moved too, so that a unitor
    component after the skipped loop is ill typed."""
    from test_reference_checkers import pool_laws, pool_outcomes
    found = pool_outcomes("monoidal", "component-loop mutants")
    full_on_entry = {True: 0, False: 0}
    for ms, (_, capped, _) in found.items():
        if not isinstance(capped, tuple) and capped.violations \
                and not capped.violations[0].law.startswith(
                    ("base-", "associator-", "left-unitor-", "right-unitor-")):
            full_on_entry[monoidal._first_nonassociative(ms.tensor_rows()) is None] += 1
    assert min(full_on_entry.values()) > 5, full_on_entry
    assert {"associator-component", "tensor-functor-endpoints",
            "left-unitor-component"} <= pool_laws(found)


def test_the_strict_image_test_matches_the_full_image_loop():
    # exhaustive_check_mon_functor composes every instance, on the
    # constructions, their relabelled copies and functors whose
    # strict-image test reaches the image loop
    from test_reference_checkers import pool_outcomes
    verdicts = {True: 0, False: 0}
    for name in ("constructions", "relabelled constructions", "image-loop cases"):
        for mf in pool_outcomes("mon_functor", name):
            verdicts[monoidal._strict_on_image(mf)] += 1
    assert verdicts[False] > 40, verdicts


def test_the_gate_keeps_firing_on_the_corpus(monkeypatch):
    def scan(*args):
        raise AssertionError("a full associativity loop ran")

    monkeypatch.setattr(monoidal, "_scan_associator_components", scan)
    monkeypatch.setattr(groups, "_scan_nonassociative", scan)
    apexes = corpus_apexes()
    assert len(apexes) == 23
    for ms in apexes:
        assert check_monoidal(ms).ok
    legs = corpus_legs()
    assert len(legs) == 69
    for name, mf in legs:
        assert monoidal._strict_on_image(mf), name
    for name, fd in corpus.span_corpus():
        build_span(fd, verify=True)
