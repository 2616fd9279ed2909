"""The benchmark's workloads: seeded inputs, job lists and output checks.

A workload is a list of job groups.  A group is a short chain of jobs that
share state (a span is built, then its checks run on it); a job is one
user-visible call, timed on its own.  Each job carries a check that decides
from the benchmark's own knowledge whether the output is right: pinned
sizes and verdicts of the corpus entries, a coboundary computed here for
every cochain, and an expected exit code for every CLI call.

The seed only shapes the inputs: the order of the groups, the relabelling
of corpus carriers, and the cochains of the CLI documents.  See NOTES.md
for why each workload was chosen.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

WORKLOADS = ("span-corpus", "laxator-pastings", "cli-docs")

# corpus module functors with their span apex size (objects, morphisms);
# relabelling carriers leaves these sizes unchanged
SPAN_ENTRIES = {
    "terminal-id": (1, 1),
    "arrow-id": (3, 6),
    "arrow-const0": (6, 18),
    "arrow-const1": (6, 18),
    "disc2-id": (4, 4),
    "disc2-swap": (4, 4),
    "disc2-into-arrow": (3, 3),
    "arrow-to-terminal": (3, 6),
    "point-into-arrow": (2, 3),
    "point-into-bz2": (4, 8),
    "bz2-id": (4, 16),
    "bz2-collapse": (8, 32),
    "arrow-into-bz2": (12, 48),
    "swap-equivariant-id": (4, 4),
    "swap-equivariant-swap": (4, 4),
    "z2-trivial-bz2-id": (4, 16),
    "z2-trivial-bz2-twisted": (4, 16),
    "disc3-id": (27, 27),
    "disc3-three-cycle": (27, 27),
    "transposition-equivariant": (27, 27),
    "klein-id": (4, 4),
    "idem-id": (2, 6),
    "idem-collapse": (4, 12),
}

# the 27-object apexes cost about 2 s each through the CLI; span-corpus
# already measures them, so cli-docs leaves them out
CLI_SPAN_SKIP = ("disc3-id", "disc3-three-cycle", "transposition-equivariant")

# composable pairs with the object count of their pairing apex
PAIRS = {
    "arrow-id-id": 3,
    "disc2-arrow-bz2": 12,
    "swap-swap": 4,
    "point-arrow-terminal": 2,
    "idem-id-collapse": 4,
    "disc2-arrow-terminal": 3,
    "disc2-id-swap": 4,
    "klein-id-id": 4,
}
TRIPLES = ("arrow-triple-id", "swap-triple", "idem-triple",
           "disc2-arrow-terminal-triple", "disc2-swap-triple", "klein-triple",
           "point-arrow-terminal-point", "point-const-arrow")
QUADRUPLES = ("arrow-quad-id", "swap-quad", "disc2-arrow-terminal-quad",
              "idem-quad", "point-consts-quad")

# skeletal Z/n documents for `validate`: per order n, this many lawful and
# this many perturbed cochains.  The eight Z/6 calls cost about the same, so
# p90 of cli-docs falls inside their cluster instead of between two jobs.
VALIDATE_DOCS = {3: 2, 4: 2, 5: 2, 6: 4}
CENTER_ORDERS = (3, 4)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What a job's check decided about one output."""

    ok: bool
    violations: int = 0
    fingerprint: str | None = None  # must repeat on every pass
    note: str = ""


@dataclass
class Job:
    name: str
    call: Callable[[dict], object]           # the timed call
    check: Callable[[object], Outcome]       # untimed verification


@dataclass
class Workload:
    groups: list[list[Job]]
    cwd: str | None = None  # directory the jobs run in
    cleanup: Callable[[], None] = field(default=lambda: None)

    @property
    def job_count(self) -> int:
        return sum(len(g) for g in self.groups)


class Api:
    """The spanforge modules and the test corpus, imported afresh."""

    MODULES = ("spanforge", "spanforge.fincat", "spanforge.spans",
               "spanforge.monoidal", "spanforge.laxators", "spanforge.docs",
               "spanforge.cli", "corpus")

    def __init__(self):
        for name in list(sys.modules):
            if name in self.MODULES or name.startswith("spanforge."):
                del sys.modules[name]
        for name in self.MODULES:
            setattr(self, name.rsplit(".", 1)[-1], importlib.import_module(name))


def seeded(seed: int, purpose: str) -> random.Random:
    """An independent random stream per purpose, fixed by the seed."""
    return random.Random(f"{seed}:{purpose}")


# ---------------------------------------------------------------------------
# relabelling corpus carriers
# ---------------------------------------------------------------------------

class Relabeler:
    """Renames the ids of every module carrier by a seeded permutation.

    One permutation per module object, so composable corpus entries stay
    composable.  Corpus modules act strictly, so a relabelled module is
    rebuilt from the conjugated per-object endofunctors.
    """

    def __init__(self, api: Api, rng: random.Random):
        self.api = api
        self.rng = rng
        self._modules: dict[int, tuple] = {}

    def _perms(self, c) -> tuple[tuple[int, ...], tuple[int, ...]]:
        obj = list(range(c.num_objects))
        mor = list(range(c.num_morphisms))
        self.rng.shuffle(obj)
        self.rng.shuffle(mor)
        return tuple(obj), tuple(mor)

    def _functor(self, f, source, target, sperm, tperm):
        obj_map = [0] * len(f.object_map)
        mor_map = [0] * len(f.morphism_map)
        for x, y in enumerate(f.object_map):
            obj_map[sperm[0][x]] = tperm[0][y]
        for g, h in enumerate(f.morphism_map):
            mor_map[sperm[1][g]] = tperm[1][h]
        return self.api.fincat.Functor(source, target, tuple(obj_map),
                                       tuple(mor_map))

    def module(self, md):
        """The relabelled module and the permutations of its carrier."""
        key = id(md)
        if key not in self._modules:
            fincat = self.api.fincat
            perm = self._perms(md.carrier)
            carrier = fincat.relabel_category(md.carrier, *perm)
            functors = [self._functor(md.functor_at(c), carrier, carrier,
                                      perm, perm)
                        for c in range(md.acting.base.num_objects)]
            renamed = self.api.spans.make_module(md.acting, carrier, functors)
            self._modules[key] = (md, renamed, perm)  # keep md alive for id
        return self._modules[key][1:]

    def module_functor(self, fd):
        fincat = self.api.fincat
        dom, dperm = self.module(fd.dom)
        cod, cperm = self.module(fd.cod)
        f = self._functor(fd.f, dom.carrier, cod.carrier, dperm, cperm)
        xi = []
        for c, t in enumerate(fd.xi):
            comps = [0] * len(t.components)
            for x, m in enumerate(t.components):
                comps[dperm[0][x]] = cperm[1][m]
            xi.append(fincat.NatTrans(
                fincat.compose_functors(f, dom.functor_at(c)),
                fincat.compose_functors(cod.functor_at(c), f), tuple(comps)))
        return self.api.spans.module_functor(dom, cod, f, xi)


def _corpus_entries(api: Api, relabel: Relabeler) -> dict:
    named = dict(api.corpus.span_corpus())
    missing = [n for n in SPAN_ENTRIES if n not in named]
    if missing:
        raise LookupError(f"corpus entries missing: {missing}")
    return {name: relabel.module_functor(named[name]) for name in SPAN_ENTRIES}


def _report_outcome(report) -> Outcome:
    return Outcome(report.ok, len(report.violations), None,
                   "" if report.ok else report.violations[0].render())


# ---------------------------------------------------------------------------
# span-corpus
# ---------------------------------------------------------------------------

def span_corpus(api: Api, seed: int, work_root: Path) -> Workload:
    entries = _corpus_entries(api, Relabeler(api, seeded(seed, "relabel")))
    spans, monoidal = api.spans, api.monoidal
    groups = []
    for name, fd in entries.items():
        expected = SPAN_ENTRIES[name]

        def build(ctx, fd=fd):
            ctx["cell"] = spans.build_span(fd, verify=True)
            return ctx["cell"]

        def sized(cell, expected=expected):
            got = (cell.apex.base.num_objects, cell.apex.base.num_morphisms)
            return Outcome(got == expected, 0, None,
                           f"apex size {got}, expected {expected}")

        group = [Job(f"{name}/build_span", build, sized),
                 Job(f"{name}/check_monoidal",
                     lambda ctx: monoidal.check_monoidal(ctx["cell"].apex),
                     _report_outcome)]
        for leg in ("leg_left", "leg_right", "action_lift"):
            group.append(Job(
                f"{name}/check_mon_functor:{leg}",
                lambda ctx, leg=leg: monoidal.check_mon_functor(
                    getattr(ctx["cell"], leg)),
                _report_outcome))
        groups.append(group)
    seeded(seed, "order").shuffle(groups)
    return Workload(groups)


# ---------------------------------------------------------------------------
# laxator-pastings
# ---------------------------------------------------------------------------

def laxator_pastings(api: Api, seed: int, work_root: Path) -> Workload:
    corpus, lax, monoidal = api.corpus, api.laxators, api.monoidal
    relabel = Relabeler(api, seeded(seed, "relabel"))
    groups = []

    pairs = {name: (f, g) for name, f, g in corpus.composable_pairs()}
    for name, apex_objects in PAIRS.items():
        fd, gd = (relabel.module_functor(x) for x in pairs[name])

        def run_laxator(ctx, fd=fd, gd=gd):
            ctx["result"] = lax.laxator(fd, gd)
            return ctx["result"]

        def profiled(result, apex_objects=apex_objects):
            got = result.pairing.apex.base.num_objects
            return Outcome(got == apex_objects, 0, None,
                           f"pairing apex has {got} objects, "
                           f"expected {apex_objects}")

        groups.append([
            Job(f"{name}/laxator", run_laxator, profiled),
            Job(f"{name}/check_mon_functor",
                lambda ctx: monoidal.check_mon_functor(ctx["result"].comparison),
                _report_outcome)])

    triples = {name: rest for name, *rest in corpus.composable_triples()}
    for name in TRIPLES:
        fds = [relabel.module_functor(x) for x in triples[name]]

        def coherent(result):
            ok = result.cell_report.ok and result.cell_is_identity
            return Outcome(ok, len(result.cell_report.violations), None,
                           "coherence cell is not an identity")

        groups.append([Job(f"{name}/laxator_coherence",
                           lambda ctx, fds=fds: lax.laxator_coherence(*fds),
                           coherent)])

    quads = {name: rest for name, *rest in corpus.composable_quadruples()}
    for name in QUADRUPLES:
        fds = [relabel.module_functor(x) for x in quads[name]]
        groups.append([Job(f"{name}/quadruple_pasting_check",
                           lambda ctx, fds=fds: lax.quadruple_pasting_check(*fds),
                           _report_outcome)])

    # once per distinct module of the span corpus, as the test suite does
    named = dict(corpus.span_corpus())
    seen = []
    for name in SPAN_ENTRIES:
        for md in (named[name].dom, named[name].cod):
            if any(md == other for other in seen):
                continue
            seen.append(md)
            renamed, _ = relabel.module(md)
            groups.append([Job(
                f"{name}/normalization_check:{len(seen)}",
                lambda ctx, md=renamed: lax.normalization_check(md),
                lambda result: _report_outcome(result.report))])
    seeded(seed, "order").shuffle(groups)
    return Workload(groups)


# ---------------------------------------------------------------------------
# cli-docs
# ---------------------------------------------------------------------------

def coboundary_support(omega, n: int) -> list[tuple[int, int, int, int]]:
    """(w, x, y, z) where d(omega) is non-zero, for omega: (Z/n)^3 -> Z/n
    written additively with the trivial action, in ascending order."""
    out = []
    for w, x, y, z in product(range(n), repeat=4):
        d = (omega[x][y][z] - omega[(w + x) % n][y][z]
             + omega[w][(x + y) % n][z] - omega[w][x][(y + z) % n]
             + omega[w][x][y]) % n
        if d:
            out.append((w, x, y, z))
    return out


def draw_cocycle(rng: random.Random, n: int, k: int):
    """k times the standard carry cocycle of Z/n plus the coboundary of a
    random 2-cochain; cohomologous draws give equivalent categories."""
    beta = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]

    def entry(a, b, c):
        carry = k * a * ((b + c) // n)
        d_beta = (beta[b][c] - beta[(a + b) % n][c]
                  + beta[a][(b + c) % n] - beta[a][b])
        return (carry + d_beta) % n

    return [[[entry(a, b, c) for c in range(n)] for b in range(n)]
            for a in range(n)]


def _frozen(omega):
    return tuple(tuple(tuple(row) for row in plane) for plane in omega)


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _cli_call(api: Api, argv: list[str]):
    def call(ctx):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def _cli_check(expected_code: int, extra=None):
    def check(result) -> Outcome:
        code, stdout, stderr = result
        fingerprint = _digest(str(code), stdout, stderr)
        if code != expected_code:
            return Outcome(False, 0, fingerprint,
                           f"exit {code}, expected {expected_code}: "
                           f"{stderr.strip()[:200]}")
        if code == 2:
            ok = stdout == "" and stderr.startswith("error:")
            return Outcome(ok, 0, fingerprint, "exit 2 without an error line")
        payload = json.loads(stdout)["payload"]
        violations = payload["violations"]
        if (code == 0) != (payload["ok"] and not violations):
            return Outcome(False, len(violations), fingerprint,
                           "report verdict disagrees with the exit code")
        if extra is not None:
            note = extra(payload)
            if note:
                return Outcome(False, len(violations), fingerprint, note)
        return Outcome(True, len(violations), fingerprint)
    return check


def _pentagon_witnesses_match(expected: list):
    """Pentagon witnesses must be the first of the coboundary's support."""
    def extra(payload):
        found = [tuple(v["witness"]) for v in payload["violations"]
                 if v["law"] == "pentagon"]
        if found != expected[:len(found)]:
            return "pentagon witnesses are not where d(omega) is non-zero"
        capped = len(payload["violations"]) >= 32
        if not capped and len(found) != len(expected):
            return (f"{len(found)} pentagon witnesses, d(omega) is non-zero "
                    f"at {len(expected)} quadruples")
        return None
    return extra


def _summary_equals(**want):
    def extra(payload):
        got = {k: payload["summary"].get(k) for k in want}
        return None if got == want else f"summary {got}, expected {want}"
    return extra


def cli_docs(api: Api, seed: int, work_root: Path) -> Workload:
    docs, monoidal, sf = api.docs, api.monoidal, api.spanforge
    work = tempfile.mkdtemp(prefix="cli-docs-", dir=work_root)
    data = Path(api.corpus.__file__).resolve().parent / "data"

    def write(name: str, kind: str, payload) -> str:
        text = docs.serialize(docs.Document(kind, payload))
        with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return name

    # the acceptance suite's exit-code contract, one call per subcommand and
    # exit code; the module imports only spanforge and modules under tests/
    from test_acceptance import EXIT_MATRIX

    jobs: list[Job] = []
    for command, cases in EXIT_MATRIX:
        for code, argv in sorted(cases.items()):
            for arg in argv:
                if arg.endswith(".json"):
                    shutil.copyfile(data / arg, os.path.join(work, arg))
            full = ["--report", "structured", *argv]
            jobs.append(Job(f"matrix/{command}/{code}", _cli_call(api, full),
                            _cli_check(code)))

    rng = seeded(seed, "cochains")
    for n, each in VALIDATE_DOCS.items():
        zn = sf.cyclic(n)
        for i in range(2 * each):
            omega = draw_cocycle(rng, n, rng.randrange(n))
            if i >= each:
                a, b, c = (rng.randrange(n) for _ in range(3))
                omega[a][b][c] = (omega[a][b][c] + rng.randrange(1, n)) % n
            support = coboundary_support(omega, n)
            ms = monoidal.make_skeletal_group_category(zn, zn, _frozen(omega))
            name = write(f"z{n}_{i}.json", "monoidal",
                         docs.encode_monoidal(ms))
            jobs.append(Job(f"validate/z{n}/{i}",
                            _cli_call(api, ["--report", "structured",
                                            "validate", name]),
                            _cli_check(1 if support else 0,
                                       _pentagon_witnesses_match(support))))

    for n in CENTER_ORDERS:
        zn = sf.cyclic(n)
        # the trivial class: Z(Vec_{Z/n}) with Z/n scalars has n*n objects
        omega = draw_cocycle(rng, n, 0)
        if coboundary_support(omega, n):
            raise AssertionError("drawn center cochain is not a cocycle")
        ms = monoidal.make_skeletal_group_category(zn, zn, _frozen(omega))
        name = write(f"center_z{n}.json", "monoidal", docs.encode_monoidal(ms))
        jobs.append(Job(f"center/z{n}",
                        _cli_call(api, ["--report", "structured", "center",
                                        name]),
                        _cli_check(0, _summary_equals(object_count=n * n))))

    entries = _corpus_entries(api, Relabeler(api, seeded(seed, "relabel")))
    for name, fd in entries.items():
        if name in CLI_SPAN_SKIP:
            continue
        objects, morphisms = SPAN_ENTRIES[name]
        doc = write(f"span_{name}.json", "module_functor",
                    docs.encode_module_functor(fd))
        jobs.append(Job(f"build-span/{name}",
                        _cli_call(api, ["--report", "structured",
                                        "build-span", doc]),
                        _cli_check(0, _summary_equals(
                            apex_objects=objects, apex_morphisms=morphisms))))

    groups = [[job] for job in jobs]
    seeded(seed, "order").shuffle(groups)
    return Workload(groups, cwd=work,
                    cleanup=lambda: shutil.rmtree(work, ignore_errors=True))


BUILDERS = {"span-corpus": span_corpus, "laxator-pastings": laxator_pastings,
            "cli-docs": cli_docs}
