"""Each public checker against its one reference, on pools built once.

check_monoidal is compared with oracles.reference_check_monoidal by == at
caps 32, 1 and 0, where the builder is full on entry: violations, their
order, truncation and any exception raised.  The reference runs the
library's bifunctor criterion on explicit coherence tables, the associator
component loop over every triple with no associativity test before it, and
every coherence instance, thin hom-sets included, so each reduction of
check_monoidal (Light's gate on the component loop, the strict reading of
identity components, the strict pentagon and the thin-hom-set skip) must
give what the definition gives.  agree() compares it, uncapped, with
oracles.exhaustive_check_monoidal, whose tensor and associator-naturality
witnesses are a superset of the bifunctor criterion's and of one-variable
naturality's (CWM §II.3).  check_mon_functor is compared by == with
oracles.exhaustive_check_mon_functor, which composes every
mult-associativity instance, and check_braiding with
oracles.reference_check_braiding, which writes its component loop out.

The pools are the inputs of the differential tests of the modules named in
the imports, with their seeds: corpus apexes, End categories, 2-span and
pairing apexes, Drinfeld centers, skeletal group categories, fixtures,
relabelled copies, seeded magmas and one-entry mutants of tensors, coherence
tables, multiplicativity cells and braiding components, and each strict
structure with its explicit-table form.  Each kind's pools are built once
per session and deduplicated by ==, so the structures shared between
pools, the 27-object apexes among them, are checked once; each renamed
copy is its own structure.  Where an earlier
differential test compared a named pool, that test stays in its module
under its name, with the pool's minimum case count and the laws it must
reach, and reads the cached comparisons here.

The reductions that can be patched are made unsound in turn, and the
comparison must then find a difference on the pool.
"""
import functools
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import oracles
from test_centers import idempotent_monoid_monoidal, monoidal_cases
from test_central import central_setups, identity_braiding
from test_light_associativity import entry_mutants, seeded_magmas
from test_light_associativity import structures as light_structures
from test_reduced_scans import (
    agree,
    corpus_apexes,
    corpus_end_categories,
    designed_counterexamples,
    fixture_monoidals,
    mixed_thin_bases,
    mutants,
    retract_magma,
    skeletal_categories,
    small_thin_bases,
    unitor_counterexamples,
    with_scalars,
)
from test_relabel_invariance import TableRelabeler
from test_strict_mon_functors import constructions, gate_mutants
from test_strict_structures import magma, small, small_strict_bases, strict_cases, tensor_mutants
from spanforge import monoidal
from spanforge.centers import drinfeld_center, mueger_center
from spanforge.central import central_module_check
from spanforge.fincat import FinCategory, StructureError, discrete_category
from spanforge.groups import cyclic, symmetric_3
from spanforge.monoidal import (
    check_braiding,
    check_mon_functor,
    check_monoidal,
    identity_mon_functor,
    make_bicharacter_braiding,
    make_discrete_group_category,
    make_skeletal_group_category,
    restrict_monoidal,
    strict_mon_functor,
    tabulate_monoidal,
    trivial_cochain,
)
from spanforge.reporting import DEFAULT_VIOLATION_CAP

# cap 0: the builder is full on entry to every scan
CAPS = (DEFAULT_VIOLATION_CAP, 1, 0)


def outcome(check, s, cap):
    """The report, or the class of the exception raised with the message of
    a StructureError."""
    try:
        return check(s, cap)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc) if isinstance(exc, StructureError) else ""


def outcomes(check, s):
    return [outcome(check, s, cap) for cap in CAPS]


def reference_outcomes(reference, s):
    """outcomes(reference, s), with the run at a nonzero cap below the
    first read from the first when that report has no violation: its
    builder never filled, so a lower cap takes the same path."""
    first = outcome(reference, s, CAPS[0])
    clean = not isinstance(first, tuple) and first.ok
    return [first] + [first if clean and cap else outcome(reference, s, cap)
                      for cap in CAPS[1:]]


def laws(reports):
    return {v.law for r in reports if not isinstance(r, tuple) for v in r.violations}


def with_explicit_tables(ms):
    """ms, and its explicit-table form when ms is strict."""
    return [ms, oracles.explicit_tables(ms)] if ms.strict else [ms]


def with_explicit_ends(mf):
    return [mf, replace(mf, source=oracles.explicit_tables(mf.source),
                        target=oracles.explicit_tables(mf.target))]


def with_explicit_on(b):
    return [b, replace(b, on=oracles.explicit_tables(b.on))]


def reduced_scan_mutants():
    """2,000 or more single-entry tensor and associator mutants of the small
    bases of the reduced-scan pools."""
    rng = random.Random(2024)
    bases = [ms for ms in (corpus_apexes() + corpus_end_categories()
                           + skeletal_categories() + fixture_monoidals()
                           + mixed_thin_bases())
             if 2 <= ms.base.num_morphisms <= 8]
    per_base = -(-2000 // len(bases))
    return [mutant for ms in bases for mutant in mutants(ms, rng, per_base)]


def thin_bases_made_non_thin():
    rng = random.Random(7)
    found = []
    for ms in small_thin_bases():
        n = ms.base.num_objects
        found.append(with_scalars(ms))
        for _ in range(3):
            triple = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            found.append(with_scalars(ms, {triple}))
    return found


@functools.cache
def strict_mutants():
    """Seeded magmas and (kind, tensor mutant, identity functor of its base)
    for the small strict bases."""
    rng = random.Random(22)
    magmas = [magma(n, rng, unital) for n, unital in product((3, 4), (True, False))
              for _ in range(6)]
    found = [(kind, mutant, identity_mon_functor(ms)) for ms in small_strict_bases()
             for kind, mutant in tensor_mutants(ms, rng, 2)]
    assert {kind for kind, _, _ in found} == {"identity", "unit", "morphism"}
    return magmas, found


@functools.cache
def mutated_ends():
    """(mutant, monoidal functors and braidings with that end) for one
    tensor mutant of each small strict construction."""
    rng = random.Random(23)
    found = []
    for _, ms, functors, braids in strict_cases():
        if not small(ms):
            continue
        for _, mutant in tensor_mutants(ms, rng, 1):
            found.append((mutant, [replace(mf, **(
                {"source": mutant} if mf.source == ms else {"target": mutant}))
                for mf in functors], [replace(b, on=mutant) for b in braids]))
    return found


def component_loop_mutants():
    """Seeded magmas and, for each strict structure of the associativity
    pools with at most 16 objects, object-entry mutants and morphism-entry
    mutants, the latter also with the unit moved."""
    rng = random.Random(29)
    cases = [magma(n, rng, unital) for n, unital in product((2, 3, 4, 5), (True, False))
             for _ in range(5)]
    for ms in light_structures():
        if not ms.strict or ms.base.num_objects > 16:
            continue
        for rows in entry_mutants(ms.tensor_rows(), rng, 2):
            cases.append(replace(ms, tensor_objects=sum(rows, ())))
        for _, mutant in tensor_mutants(ms, rng, 1):
            cases += [mutant, replace(mutant, unit=rng.randrange(ms.base.num_objects))]
    return cases


def relabelled(items, seed, rename, keep):
    """A renamed copy, by TableRelabeler's method rename, of each item that
    keep accepts."""
    relabel = TableRelabeler(random.Random(seed))
    return [getattr(relabel, rename)(x) for x in items if keep(x)]


def braidings():
    """Center braidings of the center tests' ambients, bicharacter
    braidings of skeletal Z/n (lawful or not), the fiber braidings of the
    central setups, the braidings of the Müger centers of the lawful ones,
    and the identity braiding of a monoid with a non-invertible idempotent."""
    found = [drinfeld_center(ms).braiding for ms in monoidal_cases().values()]
    rng = random.Random(29)
    for n in (2, 3, 4):
        zn = cyclic(n)
        ms = make_skeletal_group_category(zn, zn, trivial_cochain(zn))
        found.append(make_bicharacter_braiding(
            ms, zn, [[x * y % n for y in range(n)] for x in range(n)]))
        found.append(make_bicharacter_braiding(
            ms, zn, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
    for setup in central_setups().values():
        fiber = central_module_check(setup).fiber
        if fiber is not None and fiber.braiding is not None:
            found.append(fiber.braiding)
    found += [mueger_center(b).braiding for b in list(found) if check_braiding(b).ok]
    found.append(identity_braiding(idempotent_monoid_monoidal()))
    return found


def cell_mutants(cells, base: FinCategory, rng: random.Random):
    """(kind, cells with one cell moved): to a morphism with other ends, to
    a parallel morphism without an inverse, or to the dangling id -1 or
    99."""
    out = []
    for kind in ("ends", "iso", "dangling"):
        i = rng.randrange(len(cells))
        ends = (base.source[cells[i]], base.target[cells[i]])
        if kind == "ends":
            pool = [f for f in range(base.num_morphisms)
                    if (base.source[f], base.target[f]) != ends]
        elif kind == "iso":
            pool = [f for f in base.hom(*ends) if not base.is_iso(f)]
        else:
            pool = [-1, 99]
        if pool:
            out.append((kind, cells[:i] + (rng.choice(pool),) + cells[i + 1:]))
    return out


def magma_structure(rows):
    """The strict structure on the discrete category whose object tensor
    has x⊗y at rows[x][y], with unit 0."""
    base = discrete_category(len(rows))
    return tabulate_monoidal(base, 0, lambda x, y: rows[x][y],
                             lambda f, g, s, t: base.identity[s])


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


def functor_cell_mutants():
    rng = random.Random(32)
    functors = [mf for _, mf in constructions() if mf.target.base.num_morphisms <= 64]
    functors.append(identity_mon_functor(idempotent_monoid_monoidal()))
    found = [(kind, replace(mf, mult=mult)) for mf in functors
             for kind, mult in cell_mutants(mf.mult, mf.target.base, rng)]
    kinds = Counter(kind for kind, _ in found)
    assert kinds["ends"] > 50 and kinds["dangling"] > 50 and kinds["iso"] >= 1, kinds
    return [mf for _, mf in found]


def braiding_cell_mutants(braids):
    rng = random.Random(30)
    found = [(kind, replace(b, beta=beta)) for b in braids for _ in range(4)
             for kind, beta in cell_mutants(b.beta, b.on.base, rng)]
    kinds = Counter(kind for kind, _ in found)
    assert kinds["ends"] > 100 and kinds["dangling"] > 100 and kinds["iso"] >= 4, kinds
    return [b for _, b in found]


@functools.cache
def pools(kind):
    """The pools of kind's comparison by name, built once per session:
    "monoidal" for check_monoidal, "agree" for the part of them that agree()
    reads, "mon_functor" for check_mon_functor and "braiding" for
    check_braiding."""
    return POOLS[kind]()


def monoidal_pools():
    magmas, strict = strict_mutants()
    light = light_structures()
    return {
        "corpus apexes": corpus_apexes(),
        "corpus End categories": corpus_end_categories(),
        "skeletal group categories": skeletal_categories(),
        "fixtures": fixture_monoidals(),
        "designed counterexamples": designed_counterexamples() + unitor_counterexamples()
        + [retract_magma()] + mixed_thin_bases(),
        "thin bases made non-thin": thin_bases_made_non_thin(),
        "reduced-scan mutants": reduced_scan_mutants(),
        "strict constructions": [x for _, ms, _, _ in strict_cases()
                                 for x in with_explicit_tables(ms)],
        "strict mutants": [x for ms in magmas + [m for _, m, _ in strict]
                           for x in with_explicit_tables(ms)],
        "mutated strict ends": [x for ms, _, _ in mutated_ends()
                                for x in with_explicit_tables(ms)],
        # each entry renamed in turn, repeated 27-object apexes included
        "associativity structures": light + relabelled(
            light, 28, "monoidal", lambda ms: ms.base.num_morphisms <= 64),
        "component-loop mutants": component_loop_mutants(),
    }


def agree_pools():
    """The pools on which agree() runs here, those whose tests read it
    from here; the tests of the designed and small pools run it
    themselves."""
    named = {name: pools("monoidal")[name] for name in (
        "corpus apexes", "corpus End categories", "reduced-scan mutants")}
    magmas, strict = strict_mutants()
    named["strict mutants"] = magmas + [m for _, m, _ in strict]
    return named


def functor_pools():
    magmas, strict = strict_mutants()
    functors = [mf for _, mf in constructions()]
    return {
        "constructions": functors,
        "relabelled constructions": relabelled(
            functors, 30, "mon_functor", lambda mf: mf.source.base.num_morphisms <= 64),
        "image-loop cases": image_cases(random.Random(31)),
        "gate mutants": [mf for kind in gate_mutants().values() for mf in kind],
        "multiplicativity-cell mutants": functor_cell_mutants(),
        "strict constructions": [x for _, _, fs, _ in strict_cases() for mf in fs
                                 for x in with_explicit_ends(mf)],
        "strict mutants": [x for ms in magmas for x in with_explicit_ends(identity_mon_functor(ms))]
        + [x for _, _, mf in strict for x in with_explicit_ends(mf)],
        "mutated strict ends": [x for _, fs, _ in mutated_ends() for mf in fs
                                for x in with_explicit_ends(mf)],
    }


def braiding_pools():
    braids = braidings()
    return {
        "braidings": braids + relabelled(
            braids, 29, "braiding", lambda b: b.on.base.num_morphisms <= 64),
        "component mutants": braiding_cell_mutants(braids),
        "strict constructions": [x for _, _, _, bs in strict_cases() for b in bs
                                 for x in with_explicit_on(b)],
        "mutated strict ends": [x for _, _, bs in mutated_ends() for b in bs
                                for x in with_explicit_on(b)],
    }


POOLS = {"monoidal": monoidal_pools, "agree": agree_pools,
         "mon_functor": functor_pools, "braiding": braiding_pools}


def union(named):
    """The structures of every pool, each once, in pool order."""
    return list(dict.fromkeys(s for pool in named.values() for s in pool))


def compare(check, reference, pool, key=lambda s: s):
    """check's outcomes on each structure of pool at every cap, asserted
    equal to the reference's, by structure; the reference runs once per
    key."""
    found, want = {}, {}
    for s in pool:
        k = key(s)
        if k not in want:
            want[k] = reference_outcomes(reference, s)
        found[s] = outcomes(check, s)
        assert found[s] == want[k], s
    return found


REFERENCES = {
    # the reference reads ms through its explicit-table form
    "monoidal": (check_monoidal, oracles.reference_check_monoidal, oracles.explicit_tables),
    "mon_functor": (check_mon_functor, oracles.exhaustive_check_mon_functor, lambda s: s),
    "braiding": (check_braiding, oracles.reference_check_braiding, lambda s: s),
}


@functools.cache
def checked(kind):
    """compare on the union of the pools of kind, once per session: the
    outcomes of each structure at every cap."""
    check, reference, key = REFERENCES[kind]
    return compare(check, reference, union(pools(kind)), key)


def pool_outcomes(kind, name):
    """The outcomes of each structure of the named pool of kind, each
    compared with its reference."""
    found = checked(kind)
    return {s: found[s] for s in pools(kind)[name]}


def pool_laws(found):
    return laws(r for reports in found.values() for r in reports)


@functools.cache
def agreed():
    """agree() on the union of its pools, once per session."""
    return {ms: agree(ms) for ms in union(pools("agree"))}


def agreed_on(name):
    """The reports of agree() on the named pool, in pool order."""
    return [agreed()[ms] for ms in pools("agree")[name]]


# The tests of the pools that earlier differential tests built stay in
# their modules under their names and read the comparisons above; the
# tests here cover the union, the other pools among it.

def test_check_monoidal_equals_its_reference():
    named = pools("monoidal")
    assert len(checked("monoidal")) == len(union(named))
    sizes = {name: len(pool) for name, pool in named.items()}
    assert sizes["corpus apexes"] == 23 and sizes["fixtures"] >= 4, sizes


def test_check_monoidal_agrees_with_the_exhaustive_scans():
    assert len(agreed()) == len(union(pools("agree")))


def test_check_mon_functor_equals_its_reference():
    assert len(checked("mon_functor")) == len(union(pools("mon_functor")))


def test_check_braiding_equals_its_reference():
    assert len(checked("braiding")) == len(union(pools("braiding")))


def test_each_law_reports_its_witnesses_in_ascending_order():
    # reporting's contract; the references run the library's bifunctor
    # scan, so this is what pins the order of its witnesses
    for kind in REFERENCES:
        for reports in checked(kind).values():
            for r in reports:
                if isinstance(r, tuple):
                    continue
                by_law = {}
                for v in r.violations:
                    by_law.setdefault(v.law, []).append(v.witness)
                assert all(w == sorted(w) for w in by_law.values()), r.lines()[:5]


# ---------------------------------------------------------------------------
# each patchable reduction made unsound: the comparison must see it
# ---------------------------------------------------------------------------

def differs(check, reference, pool):
    return any(outcomes(check, s) != reference_outcomes(reference, s) for s in pool)


def test_a_gate_that_calls_every_tensor_associative_is_caught(monkeypatch):
    pool = [ms for ms in union(pools("monoidal")) if ms.strict
            and oracles.scanned_first_nonassociative(ms.tensor_rows()) is not None]
    monkeypatch.setattr(monoidal, "_first_nonassociative", lambda rows: None)
    assert differs(check_monoidal, oracles.reference_check_monoidal, pool)


def test_a_skip_that_calls_every_hom_set_thin_is_caught(monkeypatch):
    monkeypatch.setattr(monoidal, "_hom_sizes",
                        lambda base: [1] * base.num_objects ** 2)
    smallest_first = sorted(union(pools("monoidal")), key=lambda ms: ms.base.num_morphisms)
    assert differs(check_monoidal, oracles.reference_check_monoidal, smallest_first)


def test_an_image_gate_that_always_skips_is_caught(monkeypatch):
    monkeypatch.setattr(monoidal, "_strict_on_image", lambda mf: True)
    assert differs(check_mon_functor, oracles.exhaustive_check_mon_functor,
                   pools("mon_functor")["image-loop cases"])
