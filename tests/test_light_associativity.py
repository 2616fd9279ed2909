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

oracles keeps the parent scans: the lexicographic scan, check_monoidal with
its component loop over every triple, the strict-image test with its loop
over every image triple, and validate_group with its own.  Each must agree
with the gated code, == on return values, errors and whole reports at cap
32, cap 1 and cap 0, on the corpus apexes and their legs, End categories,
2-span and pairing apexes, Drinfeld centers, skeletal Z/n cochains,
relabelled copies, seeded magmas, and one-entry mutants of associative
tensors and of group tables, a builder already full on entry among them.  The gate must
also keep firing: neither full loop may run on a corpus apex or a corpus
leg.
"""
import functools
import random
from dataclasses import replace
from itertools import product

import corpus
import oracles
from test_reduced_scans import corpus_apexes, skeletal_categories
from test_relabel_invariance import TableRelabeler
from test_strict_mon_functors import constructions, corpus_legs
from test_strict_structures import CAPS, magma, outcome, strict_cases, tensor_mutants
from spanforge import groups, monoidal
from spanforge.centers import drinfeld_center
from spanforge.fincat import discrete_category
from spanforge.groups import GroupError, GroupTable, cyclic, quaternion_8, symmetric_3
from spanforge.monoidal import (
    check_mon_functor,
    check_monoidal,
    identity_mon_functor,
    make_discrete_group_category,
    make_skeletal_group_category,
    restrict_monoidal,
    strict_mon_functor,
    tabulate_monoidal,
    trivial_cochain,
)
from spanforge.spans import build_span


def magma_structure(rows):
    """The strict structure on the discrete category whose object tensor
    has x⊗y at rows[x][y], with unit 0."""
    base = discrete_category(len(rows))
    return tabulate_monoidal(base, 0, lambda x, y: rows[x][y],
                             lambda f, g, s, t: base.identity[s])


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


# cap 0: the builder is full on entry to every scan
ALL_CAPS = CAPS + (0,)


def assert_same_reports(ms):
    """check_monoidal against the full component loop at caps 32, 1 and 0;
    the reports at cap 32 and cap 1."""
    got = [outcome(check_monoidal, ms, cap) for cap in ALL_CAPS]
    assert got == [outcome(oracles.scanned_check_monoidal, ms, cap) for cap in ALL_CAPS]
    return got[:2]


def test_check_monoidal_matches_the_full_component_loop():
    relabel = TableRelabeler(random.Random(28))
    for ms in structures():
        assert_same_reports(ms)
        if ms.base.num_morphisms <= 64:
            assert_same_reports(relabel.monoidal(ms))


def test_check_monoidal_matches_the_full_component_loop_on_mutants():
    """Seeded magmas; object-entry mutants of strict constructions, which
    break the tensor's endpoints too, so at cap 1 the builder is full before
    the component loop; and morphism-entry mutants, whose tensor stays
    associative on objects, so at cap 1 the gate passes on a full builder,
    with the unit moved too, so that a unitor component after the skipped
    loop is ill typed."""
    rng = random.Random(29)
    laws = set()
    cases = [magma(n, rng, unital) for n, unital in product((2, 3, 4, 5), (True, False))
             for _ in range(5)]
    for ms in structures():
        if not ms.strict or ms.base.num_objects > 16:
            continue
        for rows in entry_mutants(ms.tensor_rows(), rng, 2):
            cases.append(replace(ms, tensor_objects=sum(rows, ())))
        for _, mutant in tensor_mutants(ms, rng, 1):
            cases += [mutant, replace(mutant, unit=rng.randrange(ms.base.num_objects))]
    full_on_entry = {True: 0, False: 0}
    for ms in cases:
        report, capped = assert_same_reports(ms)
        if capped.violations and not capped.violations[0].law.startswith(
                ("base-", "associator-", "left-unitor-", "right-unitor-")):
            full_on_entry[monoidal._first_nonassociative(ms.tensor_rows()) is None] += 1
        laws |= {v.law for v in report.violations}
    assert min(full_on_entry.values()) > 5, full_on_entry
    assert {"associator-component", "tensor-functor-endpoints",
            "left-unitor-component"} <= laws, laws


def image_cases(rng):
    """Monoidal functors whose strict-image test reaches the image loop:
    identities of seeded magmas and of one-entry mutants of group tensors,
    and inclusions of sub-magmas containing the unit."""
    tables = seeded_magmas(rng, 60)
    tables += [m for g in (cyclic(4), cyclic(5), symmetric_3())
               for m in entry_mutants(make_discrete_group_category(g).tensor_rows(), rng, 8)]
    cases = []
    for rows in tables:
        ms = magma_structure(rows)
        cases.append(identity_mon_functor(ms))
        closed = {0, rng.randrange(len(rows))}
        while True:
            more = closed | {rows[x][y] for x in closed for y in closed}
            if more == closed:
                break
            closed = more
        if len(closed) < len(rows):
            sub, inclusion = restrict_monoidal(ms, tuple(sorted(closed)))
            cases.append(strict_mon_functor(sub, ms, inclusion))
    return cases


def test_the_strict_image_test_matches_the_full_image_loop():
    relabel = TableRelabeler(random.Random(30))
    functors = [mf for _, mf in constructions()]
    functors += [relabel.mon_functor(mf) for mf in functors
                 if mf.source.base.num_morphisms <= 64]
    cases = image_cases(random.Random(31))
    verdicts = {True: 0, False: 0}
    for mf in functors + cases:
        got = monoidal._strict_on_image(mf)
        assert got == oracles.scanned_strict_on_image(mf)
        verdicts[got] += 1
    assert verdicts[False] > 40, verdicts
    # the whole report, against the check that composes every instance
    for mf in cases:
        assert [outcome(check_mon_functor, mf, cap) for cap in ALL_CAPS] \
            == [outcome(oracles.exhaustive_check_mon_functor, mf, cap) for cap in ALL_CAPS]


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
