"""check_mon_functor skips the mult-associativity scan on strict monoidal
functors between strict structures.

Once the underlying functor, the unit cell and the multiplicativity cells
have passed, monoidal._strict_on_image decides whether every
mult-associativity instance composes id_A with itself on both sides (CWM
§XI.2, §VII.1): both ends strict; F(x⊗y) = Fx⊗Fy and F(I) = I on objects,
with identity cells there; id⊗id = id at the pairs the scan reads; id∘id =
id at the objects it reads; and the target's tensor associative on objects
over the image triples.  The scan is then skipped; otherwise it runs as
before.

oracles.exhaustive_check_mon_functor composes every instance.  The two must
give the same report (violations, order, truncation) at cap 32 and cap 1,
or raise the same error, on every corpus leg and action lift, every laxator
comparison, module action, 2-span and pairing leg and centre forgetful
functor, relabelled copies of them, and seeded mutants that each break one
condition of the gate.  The gate must fire on every corpus leg and laxator
comparison, so a silent fallback to the scan fails here, not only in the
benchmark.
"""
import functools
import random
from dataclasses import replace

import corpus
from oracles import exhaustive_check_mon_functor, explicit_tables
from test_reduced_scans import with_scalars
from test_relabel_invariance import LARGE, TableRelabeler
from test_strict_structures import CAPS, outcome, small, strict_cases
from spanforge import monoidal
from spanforge.fincat import FinCategory
from spanforge.groups import cyclic
from spanforge.laxators import laxator
from spanforge.monoidal import (
    check_mon_functor,
    identity_mon_functor,
    make_discrete_group_category,
    make_skeletal_group_category,
    tabulate_monoidal,
    trivial_cochain,
)
from spanforge.spans import trivial_module


@functools.cache
def corpus_legs():
    """The left leg, right leg and action lift of every corpus span, by the
    corpus name."""
    spans = [functors for kind, _, functors, _ in strict_cases() if kind == "span"]
    return [(f"{name}/{j}", mf) for (name, _), functors
            in zip(corpus.span_corpus(), spans, strict=True)
            for j, mf in enumerate(functors)]


@functools.cache
def comparisons():
    return [(name, laxator(fd, gd).comparison)
            for name, fd, gd in corpus.composable_pairs()]


@functools.cache
def constructions():
    """Every monoidal functor of test_strict_structures' constructions (the
    corpus legs and action lifts, End actions, 2-span and pairing legs, and
    the identities and forgetful functors of Drinfeld centers), the laxator
    comparisons and skeletal Z/3 with Z/3 scalars."""
    others = [(f"{kind}-{i}/{j}", mf)
              for i, (kind, _, functors, _) in enumerate(strict_cases())
              if kind != "span" for j, mf in enumerate(functors)]
    z3 = cyclic(3)
    skeletal = make_skeletal_group_category(z3, z3, trivial_cochain(z3))
    return corpus_legs() + others + comparisons() \
        + [("skeletal-z3", identity_mon_functor(skeletal))]


def assert_agree(mf):
    """The two checks on mf at both caps; returns the default-cap outcome."""
    got = [outcome(check_mon_functor, mf, cap) for cap in CAPS]
    assert got == [outcome(exhaustive_check_mon_functor, mf, cap) for cap in CAPS]
    return got[0]


def test_the_gate_fires_on_every_corpus_leg_and_comparison(monkeypatch):
    def scan(mf, rb):
        raise AssertionError("mult-associativity scanned")

    monkeypatch.setattr(monoidal, "_scan_mult_associativity", scan)
    checked = corpus_legs() + comparisons()
    assert len(checked) == 3 * 23 + 8
    for name, mf in checked:
        assert check_mon_functor(mf).ok, name


def test_reports_match_the_exhaustive_scan_on_constructions():
    for name, mf in constructions():
        assert monoidal._strict_on_image(mf), name
        assert assert_agree(mf).ok, name


def test_reports_match_the_exhaustive_scan_on_relabelled_copies():
    relabel = TableRelabeler(random.Random(25))
    renamed = 0
    for name, mf in constructions():
        if name.split("/")[0] in LARGE or not small(mf.source):
            continue
        copy = relabel.mon_functor(mf)
        assert monoidal._strict_on_image(copy), name
        assert assert_agree(copy).ok, name
        renamed += 1
    assert renamed > 40, renamed


# ---------------------------------------------------------------------------
# mutants that each break one condition of the gate
# ---------------------------------------------------------------------------

def non_strict_ends(mf):
    """mf with its source, then its target, stored with explicit identity
    tables."""
    return [replace(mf, source=explicit_tables(mf.source)),
            replace(mf, target=explicit_tables(mf.target))]


def non_identity_cells(mf, rng):
    """mf with one multiplicativity cell, or the unit cell, set to another
    automorphism of its ends, where there is one."""
    base = mf.target.base
    out = []
    cells = [(i, c) for i, c in enumerate(mf.mult)] + [(None, mf.unit_iso)]
    for i, c in cells:
        others = [h for h in base.hom(base.source[c], base.target[c])
                  if h != c and base.is_iso(h)]
        if not others:
            continue
        h = rng.choice(others)
        out.append(replace(mf, unit_iso=h) if i is None
                   else replace(mf, mult=mf.mult[:i] + (h,) + mf.mult[i + 1:]))
    return rng.sample(out, min(3, len(out)))


def identity_tensor_mutants(mf, rng):
    """mf with the target's id_a⊗id_b set to another endomorphism of a⊗b,
    at a pair (F(x⊗y), Fz) or (Fx, F(y⊗z)) that the scan reads."""
    tgt, fun = mf.target, mf.underlying
    base, n = tgt.base, mf.source.base.num_objects
    image = sorted(set(fun.object_map))
    tensors = sorted({fun.object_map[mf.source.tensor_obj(x, y)]
                      for x in range(n) for y in range(n)})
    pairs = [(a, b) for a in tensors for b in image] \
        + [(a, b) for a in image for b in tensors]
    m = base.num_morphisms
    out = []
    for a, b in rng.sample(pairs, min(4, len(pairs))):
        k = base.identity[a] * m + base.identity[b]
        ab = tgt.tensor_obj(a, b)
        others = [h for h in base.hom(ab, ab) if h != tgt.tensor_morphisms[k]]
        if others:
            t_mor = list(tgt.tensor_morphisms)
            t_mor[k] = rng.choice(others)
            out.append(replace(mf, target=replace(tgt, tensor_morphisms=tuple(t_mor))))
    return out


def indiscrete(n: int) -> FinCategory:
    """n objects with exactly one morphism i -> j, id i*n + j."""
    mors = [(i, j) for i in range(n) for j in range(n)]
    return FinCategory(n, tuple(i for i, _ in mors), tuple(j for _, j in mors),
                       tuple(i * n + i for i in range(n)),
                       tuple(tuple(f[0] * n + g[1] if f[1] == g[0] else -1
                                   for f in mors) for g in mors))


def tensor_preservation_mutants():
    """The identity of End(indiscrete(2)), whose four objects are all
    isomorphic, with one tensor entry x⊗y of its source moved to another
    object w, so that F(x⊗y) = w differs from Fx⊗Fy, and the cell there
    the isomorphism x⊗y -> w, which keeps the cell's ends, or id_w, which
    the mult-cell scan refuses and the gate's cell test alone would take."""
    ms = trivial_module(indiscrete(2)).end.monoidal
    mf = identity_mon_functor(ms)
    base, n = ms.base, ms.base.num_objects
    out = []
    for x, y in ((1, 2), (3, 3), (0, 1)):
        xy = ms.tensor_obj(x, y)
        w = (xy + 1) % n
        t_obj = list(ms.tensor_objects)
        t_obj[x * n + y] = w
        source = replace(ms, tensor_objects=tuple(t_obj))
        for cell in (base.hom(xy, w)[0], base.identity[w]):
            mult = list(mf.mult)
            mult[x * n + y] = cell
            out.append(replace(mf, source=source, mult=tuple(mult)))
    return out


def non_associative_targets():
    """The identity of discrete Z/4 with one tensor entry x⊗y, x and y not
    the unit, moved to another object: "strict", unital and not associative
    on objects, so the scan meets paths that do not compose and raises."""
    ms = make_discrete_group_category(cyclic(4))
    out = []
    for x, y, w in ((1, 1, 3), (2, 3, 0), (3, 2, 2)):
        t_obj = list(ms.tensor_objects)
        t_obj[x * 4 + y] = w
        mutant = replace(ms, tensor_objects=tuple(t_obj))
        out.append(identity_mon_functor(mutant))
    return out


def identity_composite_mutant():
    """The identity of one object with Z/2 scalars {id, u} on a malformed
    base where id∘id is undefined and u inverts id: the underlying check
    skips the source's id∘id, the cells are invertible, and the scan meets
    id∘id and raises."""
    ms = make_skeletal_group_category(cyclic(1), cyclic(2), trivial_cochain(cyclic(1)))
    base = replace(ms.base, comp=((-1, 0), (0, 0)))
    mutant = tabulate_monoidal(base, ms.unit, ms.tensor_obj,
                               lambda f, g, s, t: ms.tensor_mor(f, g))
    return identity_mon_functor(mutant)


def gate_mutants():
    """The mutants of each kind, by kind."""
    rng = random.Random(25)
    scalar_cases = [identity_mon_functor(with_scalars(mf.source))
                    for _, mf in constructions() if small(mf.source)
                    and mf.source.base.num_morphisms <= 8][:12]
    return {
        "non-strict end": [m for _, mf in constructions() if small(mf.source)
                           for m in non_strict_ends(mf)],
        "non-identity cell": [m for mf in scalar_cases + [c for _, c in constructions()]
                              for m in non_identity_cells(mf, rng)],
        "tensor not preserved": tensor_preservation_mutants(),
        "id⊗id": [m for mf in scalar_cases for m in identity_tensor_mutants(mf, rng)],
        "non-associative target": non_associative_targets(),
        "id∘id": [identity_composite_mutant()],
    }


def test_reports_match_the_exhaustive_scan_on_gate_mutants():
    raised = set()
    for kind, mutants in gate_mutants().items():
        assert len(mutants) >= {"id∘id": 1}.get(kind, 3), kind
        for mf in mutants:
            assert not monoidal._strict_on_image(mf), kind
            got = assert_agree(mf)
            if isinstance(got, tuple):
                # the scan meets a path that does not compose
                assert "not composable" in got[1], (kind, got)
                raised.add(kind)
    assert {"non-associative target", "id∘id"} <= raised, raised


def test_a_violation_before_the_gate_runs_the_scan():
    # F(id_1) set to the other scalar of object 1: the gate's tables hold,
    # and only the underlying check sees it, so the scan runs and finds the
    # triples whose path reads F(id_1)
    ms = with_scalars(make_discrete_group_category(cyclic(3)))
    mf = identity_mon_functor(ms)
    mor_map = list(mf.underlying.morphism_map)
    mor_map[ms.base.identity[1]] += 1
    bad = replace(mf, underlying=replace(mf.underlying, morphism_map=tuple(mor_map)))
    assert monoidal._strict_on_image(bad)
    assert_agree(bad)
    laws = {v.law for v in check_mon_functor(bad, 10 ** 9).violations}
    assert {"underlying-functor-identity", "mult-associativity"} <= laws, laws
