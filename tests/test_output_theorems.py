"""The CLI law-checks its inputs and takes its outputs as lawful by theorem.

Each subcommand that builds something checks the hypotheses of the theorem
that makes the result lawful, and not the result:

- center: the Drinfeld center is braided monoidal (EGNO §7.13);
- centralizer and intertwiner: centralizers of monoidal functors, the
  actions on an intertwiner, and full subcategories with their inclusions;
- fiber-product and comma: comma categories and their projections
  (CWM §II.6), over lawful categories, which are now input checks;
- end: End(C) is strict monoidal (CWM §VII.1);
- build-span, build-2span and laxator: the span theorem in build_span's
  docstring, and lifts along the outer legs, over modules whose acting
  structures and actions are now input checks.

This test runs every output check the CLI dropped, each on the result of
the builder the handler calls (recorded by wrapping the names cli.py
imported), and requires zero violations on every output built.  Its inputs
are every fixture under tests/data, every corpus entry, pair and module
transformation, the skeletal Z/3 and Z/4 cochains of every cohomology class
(the cli-docs benchmark's `center` documents are the trivial class; its
Z/5 and Z/6 cochains are left out, and test_half_braiding_search runs the
center search on them against its parent), and seeded lawful inputs.

On seeded mutants of fiber-product and comma inputs, lawful functor tables
over categories with one composition entry changed, the exit code must be
the one the parent handler gave: functor checks, then the builder, then the
output checks.  The exception is a lawful functor over an unlawful
category, which the input category checks now report, alone, with exit 1.
The parent exited 2 where the builder raised on it, and 0 where the flaw
did not reach the apex (a composite missing from the source of the identity
foot, paired with the inclusion of the discrete category); the two cases
are told apart, and CHANGES.md records both.

On seeded mutants of module functor inputs, whose modules' actions have one
cell changed, the exit code must also be the parent's, whose modules went
unchecked: build-span and build-2span reported a non-monoidal action only
through their output checks, and now report it through the module checks.
The exception is laxator, whose comparison reads neither action: the
parent exited 0 on a pair over a non-monoidal action, and the module
checks, alone, now report it with exit 1, as CHANGES.md records.
laxator-coherence, module-structures and normalize-check check the modules
they read too, and exit 1 on every such mutant at the default budget.

The library follows the same rule, at the end of this file.
central_module_check checks the candidates, the hypotheses of its theorem,
and not what it builds from them: push and pull are lifts of g along a
center's faithful forgetful functor, the fiber braiding is a pair of center
braidings, and the induced functor lies over the two actions along the
jointly faithful projections (CWM §II.6).  normalization_check no longer
checks that the diagonal is monoidal: it is strict monoidal by whiskering
and interchange (CWM §II.5).  oracles.checked_central_module_check and
oracles.retracted_normalization_check keep the dropped checks.  They run on
every setup of test_central, every central-check fixture and seeded
candidate mutants, and on every corpus module and seeded action mutants.
The dropped checks report nothing on a lawful candidate, and on a mutant
they report only what the candidate checks report too.  A candidate that
fails its check is reported alone, since the lifts need a lawful candidate:
the parent built them anyway and often raised, over a braided base and, on
4 seeded mutants, over a symmetric one.
"""
import pathlib
import random
from collections import Counter
from dataclasses import replace

import pytest

import corpus
import oracles
from test_central import central_setups, s3_twisted_setup
from test_cli import CENTRAL_S3, CENTRAL_Z1, CENTRAL_Z2
from test_gate_differential import gated_families, outcome
from test_module_laws import MODULES

from spanforge import cli
from spanforge.central import CentralCheckResult, central_module_check
from spanforge.docs import (
    Document,
    decode_braiding,
    decode_functor,
    decode_mon_functor,
    encode_category,
    encode_functor,
    encode_module,
    encode_module_functor,
    encode_module_nattrans,
    encode_mon_functor,
    encode_monoidal,
    encode_nat_trans,
    parse,
    serialize,
)
from spanforge.fincat import (
    DEFAULT_BUDGET,
    FinCategory,
    Functor,
    SpanforgeError,
    check_category,
    check_functor,
    check_nat_trans,
    discrete_category,
    full_subcategory,
    identity_functor,
    identity_nat_trans,
    terminal_category,
    walking_arrow,
)
from spanforge.groups import cyclic
from spanforge.limits import comma, fiber_product
from spanforge.monoidal import (
    check_braided_functor,
    check_braiding,
    check_mon_functor,
    check_mon_nattrans,
    check_monoidal,
    identity_mon_functor,
    make_skeletal_group_category,
)
from spanforge.laxators import laxator, normalization_check
from spanforge.reporting import DEFAULT_VIOLATION_CAP, Report
from spanforge.spans import (
    build_span,
    build_two_span,
    check_module_functor,
    check_module_nattrans,
)

DATA = pathlib.Path(__file__).parent / "data"


def _span_checks(cell, *_):
    return {"apex": check_monoidal(cell.apex),
            "left-leg": check_mon_functor(cell.leg_left),
            "right-leg": check_mon_functor(cell.leg_right),
            "action-lift": check_mon_functor(cell.action_lift),
            "filler": check_nat_trans(cell.filler)}


def _two_span_checks(cell, *_):
    (vert_f, vert_g), (fill_l, fill_r) = cell.vertical_legs, cell.vertical_fillers
    return {**_span_checks(cell),
            "vertical-left": check_mon_functor(vert_f),
            "vertical-right": check_mon_functor(vert_g),
            "vertical-filler-left": check_mon_nattrans(fill_l),
            "vertical-filler-right": check_mon_nattrans(fill_r)}


# the output checks the CLI ran before, by the builder whose result they
# read; each takes the result, then the builder's arguments.  The intertwiner
# actions and the braided intertwiner's inclusion are built here, as the
# library built them with every intertwiner before it stopped doing so.
DROPPED = {
    "drinfeld_center": lambda c, *_: {
        "center-monoidal": check_monoidal(c.monoidal),
        "center-braiding": check_braiding(c.braiding)},
    "monoidal_centralizer": lambda r, *_: {
        "centralizer-monoidal": check_monoidal(r.monoidal)},
    "braided_centralizer": lambda r, *_: {
        "centralizer-braiding": check_braiding(r.braiding)},
    "monoidal_intertwiner": lambda r, g, h, *_: {
        "actions": oracles.check_intertwiner_actions(
            oracles.intertwiner_actions(g, h, r))},
    "braided_intertwiner": lambda r, g, *_: {
        "inclusion": check_functor(full_subcategory(g.target.base, r[1])[1])},
    "fiber_product": lambda r, *_: {"apex": check_category(r.apex),
                                    "pr1": check_functor(r.pr1),
                                    "pr2": check_functor(r.pr2),
                                    "filler": check_nat_trans(r.filler)},
    "comma": lambda r, *_: {"apex": check_category(r.apex),
                            "filler": check_nat_trans(r.filler)},
    "end_monoidal": lambda r, *_: {"end-monoidal": check_monoidal(r.monoidal)},
    "build_span": _span_checks,
    "build_two_span": _two_span_checks,
    "laxator": lambda r, *_: {"comparison": check_mon_functor(r.comparison)},
}


class Recorder:
    """Runs CLI calls and the dropped checks on everything each one built."""

    def __init__(self, monkeypatch, capsys):
        self.capsys = capsys
        self.built: list = []
        self.reached: dict = {name: 0 for name in DROPPED}
        for name in DROPPED:
            monkeypatch.setattr(cli, name, self._wrap(name, getattr(cli, name)))

    def _wrap(self, name, real):
        def record(*args, **kwargs):
            result = real(*args, **kwargs)
            self.built.append((name, result, args))
            return result
        return record

    def call(self, *argv):
        """The exit code and stdout of the call, after asserting that
        every output it built passes the dropped checks."""
        self.built.clear()
        code = cli.main([str(a) for a in argv])
        out = self.capsys.readouterr().out
        for name, result, args in self.built:
            self.reached[name] += 1
            for subject, report in DROPPED[name](result, *args).items():
                assert report.ok, (argv, name, subject, report.violations[:3])
        return code, out


def write(tmp_path, name, kind, payload):
    path = tmp_path / name
    path.write_text(serialize(Document(kind, payload)), encoding="utf-8")
    return path


@pytest.fixture
def rec(monkeypatch, capsys):
    return Recorder(monkeypatch, capsys)


def fixtures(kind):
    out = []
    for path in sorted(DATA.glob("*.json")):
        try:
            doc = parse(path.read_text(encoding="utf-8"))
        except SpanforgeError:
            continue
        if doc.kind == kind:
            out.append(path)
    return out


def braidings_on(ms, braidings):
    return [path for path, b in braidings if b.on == ms]


def test_every_fixture_output_passes_the_dropped_checks(rec):
    for path in fixtures("monoidal"):
        rec.call("center", path)
    for path in fixtures("category"):
        rec.call("end", path)
    functors = fixtures("functor")
    for left in functors:
        for right in functors:
            for flags in ([], ["--orientation", "reverse"]):
                rec.call(*flags, "comma", left, right)
            rec.call("fiber-product", left, right)
    mon_functors = fixtures("mon_functor")
    braidings = [(p, decode_braiding(parse(p.read_text()).payload))
                 for p in fixtures("braiding")]
    for g_path in mon_functors:
        rec.call("centralizer", "z1", g_path)
        g = decode_mon_functor(parse(g_path.read_text()).payload)
        ends = [(bs, bt) for bs in braidings_on(g.source, braidings)
                for bt in braidings_on(g.target, braidings)]
        for b_src, b_tgt in ends:
            rec.call("centralizer", "z2", g_path, b_src, b_tgt)
        for h_path in mon_functors:
            rec.call("intertwiner", "z1", g_path, h_path)
            for b_src, b_tgt in ends:
                rec.call("intertwiner", "z2", g_path, h_path, b_src, b_tgt)
    module_functors = fixtures("module_functor")
    for left in module_functors:
        rec.call("build-span", left)
        for right in module_functors:
            rec.call("laxator", left, right)
    for path in fixtures("module_nattrans"):
        rec.call("build-2span", path)
    assert all(rec.reached.values()), rec.reached


def test_every_corpus_output_passes_the_dropped_checks(rec, tmp_path):
    for name, fd in corpus.span_corpus():
        path = write(tmp_path, f"{name}.json", "module_functor",
                     encode_module_functor(fd))
        assert rec.call("build-span", path)[0] == 0, name
    for name, ad in corpus.nattrans_corpus():
        path = write(tmp_path, f"{name}.json", "module_nattrans",
                     encode_module_nattrans(ad))
        assert rec.call("build-2span", path)[0] == 0, name
    for name, fd, gd in corpus.composable_pairs():
        left, right = (write(tmp_path, f"{name}-{i}.json", "module_functor",
                             encode_module_functor(d))
                       for i, d in enumerate((fd, gd)))
        assert rec.call("laxator", left, right)[0] == 0, name
    assert rec.reached["build_span"] == len(corpus.span_corpus())


def carry_cochain(rng, n, k, perturb):
    """k times the carry cocycle of Z/n plus the coboundary of a random
    2-cochain, as the cli-docs benchmark draws them, with one entry moved
    when perturb is set."""
    beta = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    omega = [[[(k * a * ((b + c) // n) + beta[b][c] - beta[(a + b) % n][c]
                + beta[a][(b + c) % n] - beta[a][b]) % n
               for c in range(n)] for b in range(n)] for a in range(n)]
    if perturb:
        a, b, c = (rng.randrange(n) for _ in range(3))
        omega[a][b][c] = (omega[a][b][c] + rng.randrange(1, n)) % n
    return tuple(tuple(tuple(row) for row in plane) for plane in omega)


def test_center_inputs_of_every_class_pass_the_dropped_checks(rec, tmp_path):
    rng = random.Random(21)
    codes = []
    for n in (3, 4):
        zn = cyclic(n)
        for k in range(n):
            for perturb in (False, True):
                ms = make_skeletal_group_category(
                    zn, zn, carry_cochain(rng, n, k, perturb))
                path = write(tmp_path, f"z{n}-{k}-{perturb}.json",
                             "monoidal", encode_monoidal(ms))
                codes.append(rec.call("center", path)[0])
                if n == 3 and not perturb:
                    ident = write(tmp_path, f"id{k}.json", "mon_functor",
                                  encode_mon_functor(identity_mon_functor(ms)))
                    rec.call("centralizer", "z1", ident)
                    rec.call("intertwiner", "z1", ident, ident)
    # a perturbed entry need not break the cocycle condition
    assert codes.count(0) >= 7 and 1 in codes
    assert rec.reached["drinfeld_center"] == codes.count(0)
    assert rec.reached["monoidal_intertwiner"] == 3


def small_categories():
    return [terminal_category(), walking_arrow(), discrete_category(2),
            corpus.bz2(), corpus.idempotent_monoid()]


def test_seeded_lawful_inputs_pass_the_dropped_checks(rec, tmp_path):
    rng = random.Random(21)
    cats = small_categories()
    for i, c in enumerate(cats):
        rec.call("end", write(tmp_path, f"cat{i}.json", "category",
                              encode_category(c)))
    cospans = []
    for target in cats[1:]:
        feet = [f for source in cats
                for f in oracles.brute_force_functors(source, target)]
        cospans += [rng.sample(feet, 2) for _ in range(4)]
    for i, (f, g) in enumerate(cospans):
        left, right = (write(tmp_path, f"cospan{i}-{j}.json", "functor",
                             encode_functor(h)) for j, h in enumerate((f, g)))
        assert rec.call("fiber-product", left, right)[0] == 0
        assert rec.call("comma", left, right)[0] == 0
        assert rec.call("--orientation", "reverse", "comma", left, right)[0] == 0
    lawful = 0
    for dom, cod in ((corpus.m_swap_action(), corpus.m_swap_action()),
                     (corpus.m_arrow(), corpus.m_bz2()),
                     (corpus.m_trivial_z2_on_bz2(), corpus.m_trivial_z2_on_bz2())):
        families = gated_families(dom, cod)
        for j, fd in enumerate(rng.sample(families, min(6, len(families)))):
            path = write(tmp_path, f"family{lawful}-{j}.json",
                         "module_functor", encode_module_functor(fd))
            code = rec.call("build-span", path)[0]
            assert code == (0 if check_module_functor(fd).ok else 1)
            lawful += code == 0
    assert lawful >= 6


def category_mutants(c, rng, count):
    """c with one defined composite set to another morphism id, or dropped."""
    entries = [(g, f) for g in range(c.num_morphisms)
               for f in range(c.num_morphisms) if c.comp[g][f] != -1]
    out = []
    for _ in range(count):
        g, f = rng.choice(entries)
        rows = [list(row) for row in c.comp]
        rows[g][f] = rng.choice([h for h in range(-1, c.num_morphisms)
                                 if h != rows[g][f]])
        out.append(FinCategory(c.num_objects, c.source, c.target, c.identity,
                               tuple(tuple(row) for row in rows)))
    return out


def parent_code(build, left, right):
    """The parent handler's exit code: the functor checks, then the builder,
    then the output checks."""
    try:
        f, g = (decode_functor(parse(p.read_text()).payload) for p in (left, right))
        ok = check_functor(f).ok
        if not check_functor(g).ok or not ok:
            return 1
        name = "fiber_product" if build is fiber_product else "comma"
        reports = DROPPED[name](build(f, g))
    except SpanforgeError:
        return 2
    return 0 if all(r.ok for r in reports.values()) else 1


CATEGORY_SUBJECTS = {"input-left-source", "input-right-source", "input-target"}


def rebase(f: Functor, source: FinCategory, target: FinCategory) -> Functor:
    return Functor(source, target, f.object_map, f.morphism_map)


def cospan_seeds():
    """Lawful cospans whose feet share a source or not."""
    arrow, bz2, idem = walking_arrow(), corpus.bz2(), corpus.idempotent_monoid()
    return [(identity_functor(arrow), identity_functor(arrow)),
            (corpus.arrow_to_bz2(), identity_functor(bz2)),
            (identity_functor(idem), identity_functor(idem)),
            (corpus.arrow_inclusion(), identity_functor(arrow))]


def test_seeded_cospan_mutants_keep_the_parents_exit_code(rec, tmp_path):
    rng = random.Random(21)
    builds = {("fiber-product",): fiber_product, ("comma",): comma,
              ("--orientation", "reverse", "comma"):
                  lambda f, g: comma(f, g, orientation="reverse")}
    tally = {"equal": 0, 0: 0, 2: 0}
    for i, (f, g) in enumerate(cospan_seeds()):
        for side in ("left", "right", "target"):
            base = {"left": f.source, "right": g.source, "target": f.target}[side]
            for k, mutant in enumerate(category_mutants(base, rng, 6)):
                feet = [rebase(f, mutant if side == "left" else f.source,
                               mutant if side == "target" else f.target),
                        rebase(g, mutant if side == "right" else g.source,
                               mutant if side == "target" else g.target)]
                if side in ("left", "right") and f.source == g.source:
                    feet = [rebase(h, mutant, h.target) for h in feet]
                paths = [write(tmp_path, f"m{i}-{side}-{k}-{j}.json",
                               "functor", encode_functor(h))
                         for j, h in enumerate(feet)]
                for argv, build in builds.items():
                    code, out = rec.call("--report", "structured", *argv, *paths)
                    parent = parent_code(build, *paths)
                    if code == parent:
                        tally["equal"] += 1
                        continue
                    subjects = {v["subject"] for v in parse(out).payload["violations"]}
                    where = (argv, side, k, parent, code, subjects)
                    # an unlawful category under lawful functors, which only
                    # the input category checks report
                    assert code == 1 and subjects \
                        and subjects <= CATEGORY_SUBJECTS, where
                    if parent == 2:
                        # the exception the change records: the builder
                        # raised on the category
                        tally[2] += 1
                    else:
                        # beyond it: the flaw missed everything the parent
                        # checked, the apex included
                        assert parent == 0, where
                        tally[0] += 1
    assert tally["equal"] > 140 and tally[2] > 20, tally


def action_mutants(md, rng, count):
    """md with one cell of its action, the image of an acting morphism, a
    multiplication cell or the unit cell, set to another transformation
    between the same endofunctors, which decode_module reads unchecked."""
    transformations, action = md.end.fc.transformations, md.action
    cells = []
    for kind, table in (("mor", action.underlying.morphism_map),
                        ("mult", action.mult), ("unit", (action.unit_iso,))):
        for i, t in enumerate(table):
            ends = (transformations[t].source, transformations[t].target)
            others = [k for k, u in enumerate(transformations)
                      if k != t and (u.source, u.target) == ends]
            if others:
                cells.append((kind, i, others))
    out = []
    for _ in range(count if cells else 0):
        kind, i, others = rng.choice(cells)
        tid = rng.choice(others)
        if kind == "mor":
            mor_map = list(action.underlying.morphism_map)
            mor_map[i] = tid
            mutant = replace(action, underlying=replace(
                action.underlying, morphism_map=tuple(mor_map)))
        elif kind == "mult":
            mult = list(action.mult)
            mult[i] = tid
            mutant = replace(action, mult=tuple(mult))
        else:
            mutant = replace(action, unit_iso=tid)
        out.append(replace(md, action=mutant))
    return out


def with_module(fd, old, new):
    """fd with the module old, at either end, replaced by new."""
    return replace(fd, dom=new if fd.dom == old else fd.dom,
                   cod=new if fd.cod == old else fd.cod)


PARENT_MODULE_ROUTES = {
    "build-span": (lambda fd: [fd], build_span, "build_span"),
    "build-2span": (lambda ad: [ad.dom, ad.cod], build_two_span, "build_two_span"),
    "laxator": (lambda pair: list(pair), lambda pair: laxator(*pair), "laxator"),
}


def parent_module_code(command, data):
    """The parent handler's exit code: the module functor checks (and the
    module transformation check), then the builder, then the output
    checks; nothing checked the modules themselves."""
    functors, build, name = PARENT_MODULE_ROUTES[command]
    try:
        reports = [check_module_functor(fd) for fd in functors(data)]
        if command == "build-2span":
            reports.append(check_module_nattrans(data))
        if not all(r.ok for r in reports):
            return 1
        reports = DROPPED[name](build(data))
    except SpanforgeError:
        return 2
    return 0 if all(r.ok for r in reports.values()) else 1


def test_seeded_action_mutants_keep_the_parents_exit_code(rec, tmp_path):
    # a module whose action is not a monoidal functor, under module functors
    # whose transports pass: at the parent only the output checks (the
    # action lift lies over the two actions) reported it; the module input
    # checks must report it with the same exit code
    rng = random.Random(21)
    cases = []
    for name, fd in corpus.span_corpus():
        for md in {fd.dom: None, fd.cod: None}:
            for m in action_mutants(md, rng, 2):
                mutant = with_module(fd, md, m)
                cases.append(("build-span", mutant, "module_functor",
                              encode_module_functor))
                if fd.dom == fd.cod:
                    # an endo module functor composes with itself
                    cases.append(("laxator", (mutant, mutant), None, None))
    for name, ad in corpus.nattrans_corpus():
        for md in {ad.dom.dom: None, ad.dom.cod: None}:
            for m in action_mutants(md, rng, 2):
                mutant = replace(ad, dom=with_module(ad.dom, md, m),
                                 cod=with_module(ad.cod, md, m))
                cases.append(("build-2span", mutant, "module_nattrans",
                              encode_module_nattrans))
    for name, fd, gd in corpus.composable_pairs():
        for md in {fd.dom: None, fd.cod: None, gd.cod: None}:
            for m in action_mutants(md, rng, 2):
                cases.append(("laxator", (with_module(fd, md, m),
                                          with_module(gd, md, m)), None, None))
    tally = {}
    for i, (command, data, kind, encode) in enumerate(cases):
        if command == "laxator":
            paths = [write(tmp_path, f"a{i}-{j}.json", "module_functor",
                           encode_module_functor(d)) for j, d in enumerate(data)]
        else:
            paths = [write(tmp_path, f"a{i}.json", kind, encode(data))]
        code, out = rec.call("--report", "structured", command, *paths)
        parent = parent_module_code(command, data)
        subjects = {v["subject"] for v in parse(out).payload["violations"]}
        modules_only = bool(subjects) and all(
            s.endswith(("-acting", "-action")) for s in subjects)
        if code == parent:
            # with the module checks the whole report, only the parent's
            # output checks saw the action
            key = (command, "modules-only" if modules_only else "other")
        else:
            # the laxator comparison reads neither action, so the parent
            # passed a pair over a non-monoidal action: the exit-code change
            # recorded for laxator
            assert (command, parent, code) == ("laxator", 0, 1) \
                and modules_only, (i, parent, code, subjects)
            key = (command, "0 to 1")
        tally[key] = tally.get(key, 0) + 1
    assert tally.get(("build-span", "modules-only"), 0) >= 8, tally
    assert tally.get(("build-2span", "modules-only"), 0) >= 4, tally
    assert tally.get(("laxator", "0 to 1"), 0) >= 8, tally


def test_seeded_action_mutants_fail_every_module_reading_command(rec, tmp_path):
    # laxator-coherence, module-structures and normalize-check law-check the
    # acting structure and the action of every module they read, so a
    # non-monoidal action exits 1 at the default budget; without those
    # checks laxator-coherence and module-structures exited 0, or 2 where
    # the budget refused the construction, as CHANGES.md records
    rng = random.Random(22)
    action_subjects = {"laxator-coherence": "input-first-source-action",
                       "module-structures": "input-dom-action",
                       "normalize-check": "input"}
    calls = 0
    for name, fd in corpus.span_corpus():
        if fd.dom != fd.cod:
            continue
        for m in action_mutants(fd.dom, rng, 2):
            if check_mon_functor(m.action).ok:
                continue
            i = calls
            functor = write(tmp_path, f"f{i}.json", "module_functor",
                            encode_module_functor(with_module(fd, fd.dom, m)))
            module = write(tmp_path, f"m{i}.json", "module", encode_module(m))
            ident = write(tmp_path, f"i{i}.json", "functor",
                          encode_functor(identity_functor(m.carrier)))
            for argv in (("laxator-coherence", functor, functor, functor),
                         ("module-structures", module, module, ident),
                         ("normalize-check", module)):
                code, out = rec.call("--report", "structured", *argv)
                subjects = {v["subject"] for v in parse(out).payload["violations"]}
                assert code == 1 and action_subjects[argv[0]] in subjects, (name, argv)
                calls += 1
    assert calls >= 24, calls


# ---------------------------------------------------------------------------
# the library: central_module_check and normalization_check
# ---------------------------------------------------------------------------

BIG = 10 ** 9
# the lift misses stay under the induced- prefix; every other law under
# these prefixes came from a check central_module_check dropped
LIFT_MISSES = {"induced-object", "induced-morphism", "induced-mult",
               "induced-unit"}


def dropped_central_law(law):
    return law.startswith(("push-", "pull-", "fiber-braiding-",
                           "fiber-symmetry", "induced-")) \
        and law not in LIFT_MISSES


def fixture_setups(monkeypatch, capsys, tmp_path):
    """The setup of every central-check call on the fixtures, each psi
    alone and with the candidate repeated as the second one, phi its
    identity."""
    seen = []
    real = cli.central_module_check

    def record(setup, *args):
        seen.append(setup)
        return real(setup, *args)

    monkeypatch.setattr(cli, "central_module_check", record)
    calls = [("z1", CENTRAL_Z1[:4], ("toric_z2_psi.json", "toric_z2_psi_bad.json")),
             ("z1", CENTRAL_S3[:4], CENTRAL_S3[4:]),
             ("z2", CENTRAL_Z2[:6], ("disc_z2_psi.json", "disc_z2_psi_bad.json"))]
    for variant, files, psis in calls:
        files = [DATA / name for name in files]
        g = decode_mon_functor(parse(files[-1].read_text()).payload)
        phi = write(tmp_path, "phi.json", "nat_trans",
                    encode_nat_trans(identity_nat_trans(g.underlying)))
        for psi in (DATA / name for name in psis):
            for second in ([], [files[-1], psi, phi]):
                cli.main(["central-check", variant, *map(str, files), str(psi),
                          *map(str, second)])
    capsys.readouterr()
    assert len(seen) == 10
    return [(f"fixture-{i}", setup) for i, setup in enumerate(seen)]


def candidates(setup):
    return [(prefix, c) for prefix, c in (("candidate-", setup.g),
                                          ("candidate-h-", setup.h))
            if c is not None]


def test_central_check_agrees_with_the_parent_route(monkeypatch, capsys,
                                                    tmp_path):
    inputs = [*central_setups().items(), ("s3-twisted", s3_twisted_setup()),
              *fixture_setups(monkeypatch, capsys, tmp_path)]
    lawful = 0
    for name, setup in inputs:
        parent = oracles.checked_central_module_check(setup, cap=BIG)
        assert not any(dropped_central_law(v.law)
                       for v in parent.report.violations), name
        if not all(check_mon_functor(c).ok for _, c in candidates(setup)):
            continue
        lawful += 1
        for cap in (DEFAULT_VIOLATION_CAP, 1):
            assert central_module_check(setup, cap=cap) \
                == oracles.checked_central_module_check(setup, cap=cap), (name, cap)
    # the twisted S3 candidate, from the library and from the fixtures
    assert lawful == len(inputs) - 3


def mutant_cells(mf, carriers):
    """Each multiplicativity cell, morphism entry and the unit cell of mf,
    with the other morphisms of its hom-set, tagged inside when it sits at
    a carrier of the center's image."""
    target, source = mf.target.base, mf.source.base
    n = source.num_objects
    cells = [("unit", 0, True, mf.unit_iso)]
    cells += [("mult", i, i // n in carriers or i % n in carriers, c)
              for i, c in enumerate(mf.mult)]
    cells += [("mor", f, source.source[f] in carriers, c)
              for f, c in enumerate(mf.underlying.morphism_map)]
    return [(kind, i, inside, others) for kind, i, inside, c in cells
            if (others := [d for d in target.hom(target.source[c], target.target[c])
                           if d != c])]


def mutate(mf, kind, i, value):
    if kind == "unit":
        return replace(mf, unit_iso=value)
    if kind == "mult":
        return replace(mf, mult=mf.mult[:i] + (value,) + mf.mult[i + 1:])
    mor_map = mf.underlying.morphism_map
    return replace(mf, underlying=replace(
        mf.underlying, morphism_map=mor_map[:i] + (value,) + mor_map[i + 1:]))


def candidate_mutants(setup, rng, count):
    """setup with one cell of g, or of h, set to another morphism with the
    same ends: count cells inside the image of the center's forgetful
    functor and count outside it, where there are any."""
    carriers = {o.carrier for o in setup.left.center.objects_data}
    out = []
    for field_name, mf in (("g", setup.g), ("h", setup.h)):
        if mf is None:
            continue
        cells = mutant_cells(mf, carriers)
        for inside in (True, False):
            pool = [c for c in cells if c[2] is inside]
            for kind, i, _, others in rng.sample(pool, min(count, len(pool))):
                out.append(((field_name, kind, i, inside), replace(
                    setup, **{field_name: mutate(mf, kind, i, rng.choice(others))})))
    return out


def own_violations(m, braided):
    """What the candidate checks of m report, check_braided_functor over a
    symmetric base and check_mon_functor over a braided one."""
    def check(c):
        if braided:
            return check_braided_functor(c, m.left.carrier, m.right.carrier, BIG)
        return check_mon_functor(c, BIG)
    return [replace(v, law=prefix + v.law) for prefix, c in candidates(m)
            for v in check(c).violations]


def test_candidate_mutants_report_the_candidate_and_the_rest_as_before():
    rng = random.Random(24)
    named = central_setups()
    s3 = s3_twisted_setup()
    s3_ident = replace(s3, g=identity_mon_functor(s3.g.source))
    # the parent checked the candidates over a symmetric base already
    cases = [(True, named["trivial-base"]), (True, named["grading"]),
             (True, named["coupled"]), (True, s3_ident),
             (False, named["discrete-z2"]), (False, named["z3-pairing"])]
    tally = Counter()
    for new_checks, setup in cases:
        for (field_name, _, _, inside), m in candidate_mutants(setup, rng, 6):
            new = outcome(lambda: central_module_check(m, cap=BIG))
            # nothing is built from a failing candidate, so nothing raises
            assert not isinstance(new, tuple), new
            own = own_violations(m, not new_checks)
            if own:
                # only one candidate is mutated, so the other reports nothing
                subject = "central_module_check" if new_checks else "central_braided_check"
                report = Report(subject, tuple(own))
                if new_checks or field_name == "g":
                    assert new == CentralCheckResult(report, None, None)
                else:
                    # over a symmetric base g passed, so its fiber and
                    # induced functor are built, but nothing from h
                    assert new.report == report
                    assert (new.phi_fiber, new.common_carriers,
                            new.phi_matches_common) == (None, None, None)
                tally["alone", new_checks, inside] += 1
                if not new_checks:
                    # the parent built the lifts from 4 failing
                    # symmetric-base candidates and raised
                    tally["raised before"] += isinstance(outcome(
                        lambda: oracles.checked_central_module_check(m, cap=BIG)), tuple)
                continue
            old = outcome(lambda: oracles.checked_central_module_check(m, cap=BIG))
            assert not isinstance(old, tuple)
            kept = [v for v in old.report.violations if not dropped_central_law(v.law)]
            assert list(new.report.violations) == kept
            assert not new.report.truncated
            if len(kept) < len(old.report.violations):
                # a dropped check fails only where a candidate is unlawful
                assert not all(check_mon_functor(c).ok for _, c in candidates(m))
            tally["lawful"] += 1
    assert tally["alone", True, True] + tally["alone", True, False] >= 30, tally
    assert tally["alone", False, True] >= 10 and tally["alone", False, False] >= 10, tally
    assert tally["raised before"] == 4 and tally["lawful"] >= 4, tally


def test_normalization_agrees_with_the_parent_route_on_action_mutants():
    # retracted_normalization_check keeps the diagonal's monoidal check, so
    # equal results show that it reports nothing, whatever the action
    # (only m_bz2, m_idem and m_trivial_z2_on_bz2 have an action cell with
    # another transformation between the same endofunctors)
    rng = random.Random(24)
    mutants = 0
    for name in MODULES:
        md = getattr(corpus, name)()
        cases = (md, *action_mutants(md, rng, 6))
        for m in cases:
            got = outcome(lambda: normalization_check(m))
            assert got == outcome(lambda: oracles.retracted_normalization_check(
                m, DEFAULT_BUDGET)), name
        mutants += len(cases) - 1
    assert mutants == 18, mutants
