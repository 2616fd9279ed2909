"""Renaming ids never changes a verdict: the span corpus under relabelled
module carriers, and the monoidal, braiding and monoidal-functor checks
under relabelled tables.

Every module carrier is renamed by a seeded relabel_category permutation,
one per module, so composable entries stay composable.  Corpus modules act
strictly, so each renamed module is rebuilt from its conjugated per-object
endofunctors, and each transport is conjugated along.  The span of every
renamed entry must have the apex size of the original, and check_monoidal
and check_mon_functor must give the same verdicts on its apex, legs and
action lift.

Seeded transport mutants, built directly as ModuleFunctorData, are renamed
the same way: a component set to another morphism id, and transport
families that pass the span gate but may break equivariance,
multiplicativity or the unit law.  check_module_functor must report the
same laws on a mutant and on its renamed copy, with each witness mapped
through the carrier permutations.

Whether a tensor is associative on objects is decided by Light's test
over a generating set that monoidal._first_nonassociative picks in id order,
so renaming changes the set; its verdict must not change, on every corpus
apex (the 27-object ones too), every End category, the Z/4 center and
seeded magmas, associative or not.

check_monoidal, check_braiding and check_mon_functor keep their verdicts
under renaming too, on the apexes, acting categories, legs and action lifts
of the corpus, on skeletal Z/3 with the carry cocycle, on braidings of
Drinfeld centers and of a bicharacter, and on seeded mutants of their
tables (a tensor entry, a coherence or braiding component, a
multiplicativity cell, the unit cell or a morphism image set to another
id).  The witnesses map through the permutations law by law, so a reduced
scan that skips instances by id rather than by structure shows here.

The three 27-object apexes (disc3-id, disc3-three-cycle and
transposition-equivariant) are left out to keep the suite fast:
test_reduced_scans already scans their apexes, and the span-corpus
benchmark workload relabels them on every seed.
"""
import functools
import random
from dataclasses import replace
from itertools import product

import pytest

from corpus import span_corpus
from oracles import explicit_tables, transport_candidates

from spanforge import monoidal
from spanforge.centers import drinfeld_center
from spanforge.fincat import (
    Functor,
    NatTrans,
    StructureError,
    compose_functors,
    relabel_category,
)
from spanforge.groups import cyclic
from spanforge.monoidal import (
    Braiding,
    MonFunctor,
    MonoidalStructure,
    check_braiding,
    check_mon_functor,
    check_monoidal,
    identity_mon_functor,
    make_bicharacter_braiding,
    make_discrete_group_category,
    make_skeletal_group_category,
    trivial_cochain,
)
from spanforge.reporting import DEFAULT_VIOLATION_CAP
from spanforge.spans import (
    ModuleFunctorData,
    build_span,
    check_module_functor,
    make_module,
    module_functor,
)

LARGE = ("disc3-id", "disc3-three-cycle", "transposition-equivariant")


class Relabeler:
    """Renames every module carrier once, by permutations drawn from rng."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.modules = {}

    def _perms(self, c):
        obj, mor = list(range(c.num_objects)), list(range(c.num_morphisms))
        self.rng.shuffle(obj)
        self.rng.shuffle(mor)
        return tuple(obj), tuple(mor)

    @staticmethod
    def _functor(f, source, target, sperm, tperm):
        obj_map = [0] * len(f.object_map)
        mor_map = [0] * len(f.morphism_map)
        for x, y in enumerate(f.object_map):
            obj_map[sperm[0][x]] = tperm[0][y]
        for g, h in enumerate(f.morphism_map):
            mor_map[sperm[1][g]] = tperm[1][h]
        return Functor(source, target, tuple(obj_map), tuple(mor_map))

    def module(self, md):
        if id(md) not in self.modules:
            perm = self._perms(md.carrier)
            carrier = relabel_category(md.carrier, *perm)
            functors = [self._functor(md.functor_at(c), carrier, carrier, perm, perm)
                        for c in range(md.acting.base.num_objects)]
            self.modules[id(md)] = (md, make_module(md.acting, carrier, functors),
                                    perm)
        return self.modules[id(md)][1:]

    def functor_data(self, fd):
        """fd renamed, transports conjugated along, with no check made."""
        dom, dperm = self.module(fd.dom)
        cod, cperm = self.module(fd.cod)
        f = self._functor(fd.f, dom.carrier, cod.carrier, dperm, cperm)
        xi = []
        for c, t in enumerate(fd.xi):
            comps = [0] * len(t.components)
            for x, m in enumerate(t.components):
                comps[dperm[0][x]] = cperm[1][m]
            xi.append(NatTrans(compose_functors(f, dom.functor_at(c)),
                               compose_functors(cod.functor_at(c), f), tuple(comps)))
        return ModuleFunctorData(dom, cod, f, tuple(xi))

    def module_functor(self, fd):
        renamed = self.functor_data(fd)
        return module_functor(renamed.dom, renamed.cod, renamed.f, list(renamed.xi))

    def witness(self, fd, law, witness):
        """A module_functor violation's witness on the renamed fd: its last
        id is a carrier object of fd.dom, or a carrier morphism for
        naturality; the other ids are acting ids, which are not renamed."""
        if law == "transport-shape":
            return witness
        obj, mor = self.module(fd.dom)[1]
        last = (mor if law == "transport-naturality" else obj)[witness[-1]]
        return witness[:-1] + (last,)


def profile(fd):
    """The apex size and the verdicts on the apex, legs and action lift."""
    cell = build_span(fd)
    base = cell.apex.base
    return ((base.num_objects, base.num_morphisms),
            check_monoidal(cell.apex).ok,
            tuple(check_mon_functor(mf).ok
                  for mf in (cell.leg_left, cell.leg_right, cell.action_lift)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_carriers_keep_span_sizes_and_verdicts(seed):
    relabel = Relabeler(random.Random(seed))
    checked = 0
    for name, fd in span_corpus():
        if name in LARGE:
            continue
        assert profile(relabel.module_functor(fd)) == profile(fd), name
        checked += 1
    assert checked == 20


def law_mutants(fd, rng):
    """fd with one transport component set to another morphism id, and fd
    with its transports redrawn among the natural isomorphisms of the
    right shape (oracles.transport_candidates)."""
    # imported here: test_library_errors reaches this module's Relabeler
    # through test_pasted_transports
    from test_library_errors import transport_mutant
    out = [transport_mutant(fd, rng)]
    candidates = transport_candidates(fd.f, fd.dom, fd.cod)
    if all(candidates):
        xi = tuple(rng.choice(ts) for ts in candidates)
        out.append(ModuleFunctorData(fd.dom, fd.cod, fd.f, xi))
    return [m for m in out if m is not None]


def law_multiset(report, mapped=lambda law, w: w):
    return sorted((v.law, mapped(v.law, v.witness)) for v in report.violations)


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_mutants_keep_laws_and_map_witnesses(seed):
    rng = random.Random(seed)
    relabel = Relabeler(random.Random(seed))
    laws, compared = set(), 0
    for name, fd in span_corpus():
        if name in LARGE:
            continue
        for _ in range(3):
            for m in law_mutants(fd, rng):
                before = check_module_functor(m)
                after = check_module_functor(relabel.functor_data(m))
                assert (after.ok, after.truncated, len(after.violations)) \
                    == (before.ok, before.truncated, len(before.violations)), name
                if len(before.violations) < DEFAULT_VIOLATION_CAP:
                    assert law_multiset(after) == law_multiset(
                        before, lambda law, w: relabel.witness(m, law, w)), name
                    compared += 1
                laws |= {v.law for v in before.violations}
    assert compared > 50
    assert {"transport-naturality", "transport-iso", "transport-unit"} <= laws, laws


# ---------------------------------------------------------------------------
# monoidal structures, braidings and monoidal functors
# ---------------------------------------------------------------------------

# the ids of each law's witness, in the checked structure (a monoidal
# functor's source): o an object, m a morphism, O an object pair x*n + y and
# M a morphism pair f*m + g; base- and underlying- laws are the category and
# functor laws
WITNESS_KINDS = {
    "composition-totality": "mm", "composition-domain": "mm",
    "composition-endpoints": "mmm", "left-identity": "m",
    "right-identity": "m", "associativity": "mmm",
    "functor-endpoints": "m", "functor-identity": "o",
    "functor-composition": "mm",
    "tensor-functor-endpoints": "M", "tensor-functor-identity": "O",
    "tensor-functor-composition": "MM",
    "associator-component": "ooo", "associator-iso": "ooo",
    "left-unitor-component": "o", "left-unitor-iso": "o",
    "right-unitor-component": "o", "right-unitor-iso": "o",
    "associator-naturality": "mmm", "left-unitor-naturality": "m",
    "right-unitor-naturality": "m", "pentagon": "oooo", "triangle": "oo",
    "braiding-component": "oo", "braiding-iso": "oo",
    "braiding-naturality": "mm", "hexagon-forward": "ooo",
    "hexagon-reverse": "ooo",
    "unit-cell": "", "unit-cell-iso": "", "mult-cell": "oo",
    "mult-cell-iso": "oo", "mult-naturality": "mm",
    "mult-associativity": "ooo", "left-unit-coherence": "o",
    "right-unit-coherence": "o",
}


class TableRelabeler:
    """Renames each base category once, by permutations drawn from rng, and
    conjugates every table over it."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.bases = {}

    def base(self, c):
        """The renamed category and its (objects, morphisms) permutation."""
        if id(c) not in self.bases:
            obj, mor = list(range(c.num_objects)), list(range(c.num_morphisms))
            self.rng.shuffle(obj)
            self.rng.shuffle(mor)
            perm = (tuple(obj), tuple(mor))
            self.bases[id(c)] = (c, relabel_category(c, *perm), perm)
        return self.bases[id(c)][1:]

    def monoidal(self, ms):
        """The renamed structure, strict when ms is: renaming carries
        identities to identities."""
        base, (obj, mor) = self.base(ms.base)
        n, m = base.num_objects, base.num_morphisms
        t_obj, t_mor = [0] * (n * n), [0] * (m * m)
        for x, y in product(range(n), repeat=2):
            t_obj[obj[x] * n + obj[y]] = obj[ms.tensor_obj(x, y)]
        for f, g in product(range(m), repeat=2):
            t_mor[mor[f] * m + mor[g]] = mor[ms.tensor_mor(f, g)]
        if ms.strict:
            return MonoidalStructure(base, tuple(t_obj), tuple(t_mor), obj[ms.unit],
                                     None, None, None)
        assoc, lam, rho = [0] * n ** 3, [0] * n, [0] * n
        for x, y, z in product(range(n), repeat=3):
            assoc[(obj[x] * n + obj[y]) * n + obj[z]] = mor[ms.alpha(x, y, z)]
        for x in range(n):
            lam[obj[x]] = mor[ms.unitor(x, True)]
            rho[obj[x]] = mor[ms.unitor(x, False)]
        return MonoidalStructure(base, tuple(t_obj), tuple(t_mor), obj[ms.unit],
                                 tuple(assoc), tuple(lam), tuple(rho))

    def braiding(self, b):
        _, (obj, mor) = self.base(b.on.base)
        n = len(obj)
        beta = [0] * (n * n)
        for x, y in product(range(n), repeat=2):
            beta[obj[x] * n + obj[y]] = mor[b.at(x, y)]
        return Braiding(self.monoidal(b.on), tuple(beta))

    def mon_functor(self, mf):
        source, target = self.monoidal(mf.source), self.monoidal(mf.target)
        sperm, tperm = self.base(mf.source.base)[1], self.base(mf.target.base)[1]
        n = source.base.num_objects
        mult = [0] * (n * n)
        for x, y in product(range(n), repeat=2):
            mult[sperm[0][x] * n + sperm[0][y]] = tperm[1][mf.gamma(x, y)]
        underlying = Relabeler._functor(mf.underlying, source.base, target.base,
                                        sperm, tperm)
        return MonFunctor(source, target, underlying, tuple(mult),
                          tperm[1][mf.unit_iso])

    def witness(self, c, law, witness):
        """A violation's witness on c's renamed copy."""
        (obj, mor), n, m = self.base(c)[1], c.num_objects, c.num_morphisms
        kinds = WITNESS_KINDS[law.removeprefix("base-").removeprefix("underlying-")]
        assert len(kinds) == len(witness), (law, witness)
        ids = {"o": lambda w: obj[w], "m": lambda w: mor[w],
               "O": lambda w: obj[w // n] * n + obj[w % n],
               "M": lambda w: mor[w // m] * m + mor[w % m]}
        return tuple(ids[k](w) for k, w in zip(kinds, witness))


@functools.cache
def table_carriers():
    """Corpus structures by kind: the apexes, legs and action lifts of the
    spans outside LARGE, the acting categories, skeletal Z/3 with the carry
    cocycle, and the braidings of centers and of a bicharacter."""
    monoidal, functors = [], []
    for name, fd in span_corpus():
        if name in LARGE:
            continue
        cell = build_span(fd)
        monoidal += [cell.apex, fd.dom.acting]
        functors += [cell.leg_left, cell.leg_right, cell.action_lift]
    z3 = cyclic(3)
    carry = tuple(tuple(tuple(a * ((b + c) // 3) % 3 for c in range(3))
                        for b in range(3)) for a in range(3))
    skeletal = make_skeletal_group_category(z3, z3, carry)
    monoidal.append(skeletal)
    functors.append(identity_mon_functor(skeletal))
    braidings = [drinfeld_center(make_discrete_group_category(cyclic(k))).braiding
                 for k in (2, 3)]
    braidings += [drinfeld_center(skeletal).braiding,
                 make_bicharacter_braiding(make_skeletal_group_category(
                     z3, z3, trivial_cochain(z3)), z3,
                     [[x * y % 3 for y in range(3)] for x in range(3)])]
    return {"monoidal": monoidal, "braiding": braidings, "mon_functor": functors}


def table_mutants(kind, s, rng):
    """s with one table entry set to another in-range id: a tensor entry,
    an associator or unitor component (a parallel morphism where there is
    one, so the coherence laws are scanned), a braiding component, or a
    multiplicativity cell, the unit cell or a morphism image."""
    def moved(table, size, base=None):
        table = list(table)
        i = rng.randrange(len(table))
        others = [v for v in range(size) if v != table[i]]
        parallel = [] if base is None else [
            v for v in others if (base.source[v], base.target[v])
            == (base.source[table[i]], base.target[table[i]])]
        table[i] = rng.choice(parallel or others)
        return tuple(table)

    if kind == "monoidal":
        s = explicit_tables(s)  # a strict structure stores no coherence entries
        n, m = s.base.num_objects, s.base.num_morphisms
        field = rng.choice(["tensor_objects", "tensor_morphisms", "associator",
                            "left_unitor", "right_unitor"])
        if field.startswith("tensor"):
            size, base = (n if field == "tensor_objects" else m), None
        else:
            size, base = m, s.base
        if size < 2:
            return None
        return replace(s, **{field: moved(getattr(s, field), size, base)})
    if kind == "braiding":
        m = s.on.base.num_morphisms
        return replace(s, beta=moved(s.beta, m)) if m > 1 else None
    m = s.target.base.num_morphisms
    if m < 2:
        return None
    field = rng.choice(["mult", "unit_iso", "morphism_map"])
    if field == "mult":
        return replace(s, mult=moved(s.mult, m))
    if field == "unit_iso":
        return replace(s, unit_iso=moved((s.unit_iso,), m)[0])
    return replace(s, underlying=replace(
        s.underlying, morphism_map=moved(s.underlying.morphism_map, m)))


# laws each kind's mutants must reach, so the reduced scans are compared
SCANNED_LAWS = {
    "monoidal": {"tensor-functor-composition", "associator-naturality",
                 "pentagon", "triangle"},
    "braiding": {"braiding-naturality", "hexagon-forward", "hexagon-reverse"},
    "mon_functor": {"mult-naturality", "mult-associativity",
                    "underlying-functor-composition"},
}
TABLE_CHECKS = {"monoidal": (check_monoidal, "monoidal", lambda s: s.base),
                "braiding": (check_braiding, "braiding", lambda s: s.on.base),
                "mon_functor": (check_mon_functor, "mon_functor",
                                lambda s: s.source.base)}


STRUCTURES = {"monoidal": lambda s: [s], "braiding": lambda s: [s.on],
              "mon_functor": lambda s: [s.source, s.target]}


def verdict(check, s):
    try:
        return check(s)
    except StructureError as exc:
        return type(exc)


@pytest.mark.parametrize("kind", sorted(TABLE_CHECKS))
def test_relabelled_tables_keep_verdicts_and_map_witnesses(kind):
    check, method, base_of = TABLE_CHECKS[kind]
    rng = random.Random(21)
    relabel = TableRelabeler(random.Random(21))
    rename = getattr(relabel, method)
    laws, compared, lawful, strict = set(), 0, 0, 0
    carriers = table_carriers()[kind]
    for s in carriers:
        for m in [s] + [table_mutants(kind, s, rng) for _ in range(4)]:
            if m is None:
                continue
            renamed = rename(m)
            stored = [ms.strict for ms in STRUCTURES[kind](m)]
            assert [ms.strict for ms in STRUCTURES[kind](renamed)] == stored
            strict += sum(stored)
            before, after = verdict(check, m), verdict(check, renamed)
            if isinstance(before, type) or isinstance(after, type):
                assert before is after, kind
                continue
            assert (after.ok, after.truncated, len(after.violations)) \
                == (before.ok, before.truncated, len(before.violations)), kind
            lawful += m is s and before.ok
            if len(before.violations) < DEFAULT_VIOLATION_CAP:
                assert law_multiset(after) == law_multiset(
                    before, lambda law, w: relabel.witness(base_of(m), law, w))
                compared += 1
            laws |= {v.law for v in before.violations}
    assert lawful == len(carriers) and compared > 3 * len(carriers), (lawful, compared)
    assert SCANNED_LAWS[kind] <= laws, laws
    assert strict, kind


def renamed_rows(rows, perm):
    """The tensor with x⊗y at rows[x][y], each object x renamed perm[x]."""
    n = len(rows)
    renamed = [[0] * n for _ in range(n)]
    for x, y in product(range(n), repeat=2):
        renamed[perm[x]][perm[y]] = perm[rows[x][y]]
    return [tuple(row) for row in renamed]


def test_the_associativity_verdict_survives_relabelling():
    rng = random.Random(28)
    tables = []
    for _, fd in span_corpus():
        tables.append(build_span(fd).apex.tensor_rows())
        tables += [md.end.monoidal.tensor_rows() for md in (fd.dom, fd.cod)]
    z4 = cyclic(4)
    tables.append(drinfeld_center(make_skeletal_group_category(
        z4, z4, trivial_cochain(z4))).monoidal.tensor_rows())
    for _ in range(200):
        n = rng.randrange(2, 7)
        rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            for x in range(n):
                rows[x][0] = rows[0][x] = x
        tables.append([tuple(row) for row in rows])
    verdicts = {True: 0, False: 0}
    for rows in tables:
        verdict = monoidal._first_nonassociative(rows) is None
        verdicts[verdict] += 1
        for _ in range(3):
            perm = list(range(len(rows)))
            rng.shuffle(perm)
            assert (monoidal._first_nonassociative(renamed_rows(rows, perm))
                    is None) == verdict, rows
    assert min(verdicts.values()) > 50, verdicts
