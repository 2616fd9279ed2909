"""Subcommand driver over the document format.

Exit codes: 0 when every requested check passes, 1 when a checker found a
verified violation (the report carries the witnesses), 2 on schema, budget,
or structural errors.  Reports are deterministic; the structured report is
itself a document of kind "report".
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

from .central import CentralFunctorSetup, _central_module, central_module_check
from .centers import (
    braided_centralizer,
    braided_intertwiner,
    check_intertwiner_actions,
    drinfeld_center,
    monoidal_centralizer,
    monoidal_intertwiner,
    mueger_center,
)
from .docs import (
    Document,
    SchemaError,
    decode_braiding,
    decode_category,
    decode_functor,
    decode_mon_functor,
    decode_module,
    decode_module_functor,
    decode_module_nattrans,
    decode_monoidal,
    decode_nat_trans,
    encode_braiding,
    encode_category,
    encode_monoidal,
    encode_span,
    parse,
    serialize,
)
from .fincat import (
    Budget,
    NatTrans,
    SpanforgeError,
    StructureError,
    check_category,
    check_functor,
    check_nat_trans,
    compose_functors,
)
from .laxators import laxator, laxator_coherence, normalization_check
from .limits import comma, fiber_product
from .monoidal import (
    MonNatTrans,
    check_braided_functor,
    check_braiding,
    check_mon_functor,
    check_mon_nattrans,
    check_monoidal,
    is_symmetric,
)
from .reporting import Report, Violation
from .spans import (
    build_span,
    build_two_span,
    check_module_functor,
    check_module_nattrans,
    end_monoidal,
    module_structures_on,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2

def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise StructureError(f"cannot read {path}: {exc}")


def _load(path: str, kind: str) -> Document:
    doc = parse(_read(path))
    if doc.kind != kind:
        raise SchemaError("$.kind", f"{path}: expected kind {kind!r}, "
                          f"found {doc.kind!r}")
    return doc


def _budget(args) -> Budget:
    cap = args.cap
    if cap is None:
        env = os.environ.get("SPANFORGE_CAP")
        try:
            cap = int(env) if env else None
        except ValueError:
            raise StructureError(
                f"SPANFORGE_CAP must be an integer, got {env!r}") from None
    if cap is None:
        return Budget()
    if cap <= 0:
        raise StructureError("--cap must be positive")
    return Budget(max_objects=cap, max_morphisms=10 * cap)


class Outcome:
    """Accumulates named reports, summary entries, and artifact documents."""

    def __init__(self, command: str):
        self.command = command
        self.reports: list[tuple[str, Report]] = []
        self.summary: dict = {}
        self.artifacts: dict = {}

    def check(self, subject: str, report: Report) -> bool:
        self.reports.append((subject, report))
        return report.ok

    @property
    def ok(self) -> bool:
        return all(report.ok for _, report in self.reports)

    def violation_entries(self) -> list[dict]:
        out = []
        for subject, report in self.reports:
            for v in report.violations:
                out.append({"subject": subject, "law": v.law,
                            "witness": list(v.witness), "detail": v.detail})
        return out

    def payload(self) -> dict:
        return {"command": self.command, "ok": self.ok,
                "summary": self.summary,
                "violations": self.violation_entries(),
                "artifacts": self.artifacts}

    def human_lines(self) -> list[str]:
        lines = [f"{self.command}: {'ok' if self.ok else 'violations found'}"]
        for key in sorted(self.summary):
            lines.append(f"  {key} = {self.summary[key]}")
        for entry in self.violation_entries():
            witness = ", ".join(str(w) for w in entry["witness"])
            lines.append(f"  {entry['subject']}: {entry['law']} at "
                         f"({witness}): {entry['detail']}")
        return lines


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _ends_lawful(out: Outcome, subject: str, mf) -> bool:
    """Law-check the source and target of a mon_functor input, each as its
    own subject; the functor checks read both as lawful, so a missing
    composite in either would otherwise pass unseen."""
    ok = out.check(f"{subject}-source", check_monoidal(mf.source))
    return out.check(f"{subject}-target", check_monoidal(mf.target)) and ok


def _braiding_lawful(out: Outcome, subject: str, b) -> bool:
    """Law-check a braiding input and, first, the monoidal structure under
    it, as the subjects subject-monoidal and subject."""
    return out.check(f"{subject}-monoidal", check_monoidal(b.on)) \
        and out.check(subject, check_braiding(b))


def _braidings_lawful(out: Outcome, mf, b_src, b_tgt) -> bool:
    """Law-check the braidings on the two ends of a mon_functor input, as
    the subjects braiding-source and braiding-target; _ends_lawful has
    already checked the monoidal structures under them."""
    if b_src.on != mf.source or b_tgt.on != mf.target:
        raise StructureError("braidings do not match the functor's structures")
    ok = out.check("braiding-source", check_braiding(b_src))
    return out.check("braiding-target", check_braiding(b_tgt)) and ok


def _cmd_validate(args, budget, out: Outcome) -> None:
    checked = []
    for path in args.files:
        doc = parse(_read(path))
        subject = f"{path}:{doc.kind}"
        if doc.kind == "category":
            out.check(subject, check_category(decode_category(doc.payload)))
        elif doc.kind == "functor":
            out.check(subject, check_functor(decode_functor(doc.payload)))
        elif doc.kind == "nat_trans":
            out.check(subject, check_nat_trans(decode_nat_trans(doc.payload)))
        elif doc.kind == "monoidal":
            out.check(subject, check_monoidal(decode_monoidal(doc.payload)))
        elif doc.kind == "braiding":
            _braiding_lawful(out, subject, decode_braiding(doc.payload))
        elif doc.kind == "mon_functor":
            mf = decode_mon_functor(doc.payload)
            if _ends_lawful(out, subject, mf):
                out.check(subject, check_mon_functor(mf))
        elif doc.kind == "module":
            md = decode_module(doc.payload, budget)
            out.check(subject, check_mon_functor(md.action))
        elif doc.kind == "module_functor":
            fd = decode_module_functor(doc.payload, budget)
            out.check(subject, check_module_functor(fd))
        elif doc.kind == "module_nattrans":
            ad = decode_module_nattrans(doc.payload, budget)
            out.check(subject, check_module_functor(ad.dom))
            out.check(subject, check_module_functor(ad.cod))
            out.check(subject, check_module_nattrans(ad))
        else:
            # span and report documents are schema-validated by parse
            pass
        checked.append(doc.kind)
    out.summary["validated"] = len(checked)
    out.summary["kinds"] = sorted(set(checked))


def _cmd_center(args, budget, out: Outcome) -> None:
    doc = _load(args.file, "monoidal")
    ms = decode_monoidal(doc.payload)
    if not out.check("input", check_monoidal(ms)):
        return
    center = drinfeld_center(ms, budget)
    out.summary["object_count"] = center.as_category.num_objects
    out.summary["morphism_count"] = center.as_category.num_morphisms
    out.check("center-monoidal", check_monoidal(center.monoidal))
    out.check("center-braiding", check_braiding(center.braiding))
    out.summary["symmetric"] = is_symmetric(center.braiding)
    out.artifacts["center"] = encode_braiding(center.braiding)


def _cmd_mueger(args, budget, out: Outcome) -> None:
    doc = _load(args.file, "braiding")
    b = decode_braiding(doc.payload)
    if not _braiding_lawful(out, "input", b):
        return
    center = mueger_center(b)
    out.summary["object_count"] = center.as_category.num_objects
    out.summary["transparent_objects"] = [o.carrier for o in center.objects_data]
    symmetric = is_symmetric(center.braiding)
    out.summary["symmetric"] = symmetric
    if not symmetric:
        out.check("center-symmetry", Report(
            "mueger", (Violation("symmetry", (),
                                 "a double braiding is not the identity"),)))
    out.artifacts["center"] = encode_braiding(center.braiding)


def _cmd_centralizer(args, budget, out: Outcome) -> None:
    g = decode_mon_functor(_load(args.files[0], "mon_functor").payload)
    if args.variant == "z1":
        if len(args.files) != 1:
            raise StructureError("centralizer z1 takes one mon_functor document")
        if not _ends_lawful(out, "input", g) \
                or not out.check("input", check_mon_functor(g)):
            return
        result = monoidal_centralizer(g, budget)
        out.check("centralizer-monoidal", check_monoidal(result.monoidal))
        out.artifacts["centralizer"] = encode_monoidal(result.monoidal)
    else:
        if len(args.files) != 3:
            raise StructureError(
                "centralizer z2 takes mon_functor, source braiding, target braiding")
        b_src = decode_braiding(_load(args.files[1], "braiding").payload)
        b_tgt = decode_braiding(_load(args.files[2], "braiding").payload)
        if not _ends_lawful(out, "input", g) \
                or not _braidings_lawful(out, g, b_src, b_tgt) \
                or not out.check("input", check_braided_functor(g, b_src, b_tgt)):
            return
        result = braided_centralizer(g, b_src, b_tgt)
        out.check("centralizer-braiding", check_braiding(result.braiding))
        out.summary["transparent_objects"] = [o.carrier for o in result.objects_data]
        out.artifacts["centralizer"] = encode_braiding(result.braiding)
    out.summary["object_count"] = result.as_category.num_objects
    out.summary["morphism_count"] = result.as_category.num_morphisms


def _cmd_intertwiner(args, budget, out: Outcome) -> None:
    g = decode_mon_functor(_load(args.files[0], "mon_functor").payload)
    h = decode_mon_functor(_load(args.files[1], "mon_functor").payload)
    if args.variant == "z1":
        if len(args.files) != 2:
            raise StructureError("intertwiner z1 takes two mon_functor documents")
        if not _ends_lawful(out, "input-g", g) or not _ends_lawful(out, "input-h", h):
            return
        ok = out.check("input-g", check_mon_functor(g))
        ok = out.check("input-h", check_mon_functor(h)) and ok
        if not ok:
            return
        result = monoidal_intertwiner(g, h, budget)
        out.check("actions", check_intertwiner_actions(result))
        intertwiner = result.intertwiner
        out.summary["object_count"] = intertwiner.as_category.num_objects
        out.summary["morphism_count"] = intertwiner.as_category.num_morphisms
        out.summary["lax_objects"] = sum(
            1 for o in intertwiner.objects_data
            if not all(g.target.base.is_iso(c) for c in o.components))
        out.artifacts["intertwiner"] = encode_category(intertwiner.as_category)
    else:
        if len(args.files) != 4:
            raise StructureError("intertwiner z2 takes two mon_functor and "
                                 "two braiding documents")
        b_src = decode_braiding(_load(args.files[2], "braiding").payload)
        b_tgt = decode_braiding(_load(args.files[3], "braiding").payload)
        if not _ends_lawful(out, "input-g", g) or not _ends_lawful(out, "input-h", h) \
                or not _braidings_lawful(out, g, b_src, b_tgt):
            return
        ok = out.check("input-g", check_braided_functor(g, b_src, b_tgt))
        ok = out.check("input-h", check_braided_functor(h, b_src, b_tgt)) and ok
        if not ok:
            return
        sub, inclusion, carriers = braided_intertwiner(g, h, b_src, b_tgt)
        out.check("inclusion", check_functor(inclusion))
        out.summary["object_count"] = sub.num_objects
        out.summary["carriers"] = list(carriers)
        out.artifacts["intertwiner"] = encode_category(sub)


def _cmd_fiber_product(args, budget, out: Outcome) -> None:
    f = decode_functor(_load(args.left, "functor").payload)
    g = decode_functor(_load(args.right, "functor").payload)
    ok = out.check("input-left", check_functor(f))
    ok = out.check("input-right", check_functor(g)) and ok
    if not ok:
        return
    result = fiber_product(f, g, budget)
    out.check("apex", check_category(result.apex))
    out.check("pr1", check_functor(result.pr1))
    out.check("pr2", check_functor(result.pr2))
    out.check("filler", check_nat_trans(result.filler))
    out.summary["object_count"] = result.apex.num_objects
    out.summary["morphism_count"] = result.apex.num_morphisms
    out.artifacts["apex"] = encode_category(result.apex)


def _cmd_comma(args, budget, out: Outcome) -> None:
    f = decode_functor(_load(args.left, "functor").payload)
    g = decode_functor(_load(args.right, "functor").payload)
    ok = out.check("input-left", check_functor(f))
    ok = out.check("input-right", check_functor(g)) and ok
    if not ok:
        return
    result = comma(f, g, budget, orientation=args.orientation)
    out.check("apex", check_category(result.apex))
    out.check("filler", check_nat_trans(result.filler))
    out.summary["object_count"] = result.apex.num_objects
    out.summary["morphism_count"] = result.apex.num_morphisms
    out.summary["orientation"] = result.orientation
    out.artifacts["apex"] = encode_category(result.apex)


def _cmd_end(args, budget, out: Outcome) -> None:
    c = decode_category(_load(args.file, "category").payload)
    if not out.check("input", check_category(c)):
        return
    end = end_monoidal(c, budget)
    out.check("end-monoidal", check_monoidal(end.monoidal))
    out.summary["object_count"] = end.monoidal.base.num_objects
    out.summary["morphism_count"] = end.monoidal.base.num_morphisms
    out.artifacts["end"] = encode_monoidal(end.monoidal)


def _span_checks(out: Outcome, cell) -> None:
    out.check("apex", check_monoidal(cell.apex))
    out.check("left-leg", check_mon_functor(cell.leg_left))
    out.check("right-leg", check_mon_functor(cell.leg_right))
    out.check("action-lift", check_mon_functor(cell.action_lift))
    out.check("filler", check_nat_trans(cell.filler))


def _cmd_build_span(args, budget, out: Outcome) -> None:
    fd = decode_module_functor(_load(args.file, "module_functor").payload,
                               budget)
    if not out.check("input", check_module_functor(fd)):
        return
    cell = build_span(fd, budget)
    _span_checks(out, cell)
    out.summary["apex_objects"] = cell.apex.base.num_objects
    out.summary["apex_morphisms"] = cell.apex.base.num_morphisms
    out.artifacts["span"] = encode_span(cell)


def _cmd_build_two_span(args, budget, out: Outcome) -> None:
    ad = decode_module_nattrans(_load(args.file, "module_nattrans").payload,
                                budget)
    ok = out.check("input-dom", check_module_functor(ad.dom))
    ok = out.check("input-cod", check_module_functor(ad.cod)) and ok
    ok = out.check("input", check_module_nattrans(ad)) and ok
    if not ok:
        return
    cell = build_two_span(ad, budget)
    _span_checks(out, cell)
    vert_f, vert_g = cell.vertical_legs
    out.check("vertical-left", check_mon_functor(vert_f))
    out.check("vertical-right", check_mon_functor(vert_g))
    fill_l, fill_r = cell.vertical_fillers
    out.check("vertical-filler-left", check_mon_nattrans(fill_l))
    out.check("vertical-filler-right", check_mon_nattrans(fill_r))
    out.summary["apex_objects"] = cell.apex.base.num_objects
    out.summary["apex_morphisms"] = cell.apex.base.num_morphisms
    out.artifacts["span"] = encode_span(cell)


def _cmd_laxator(args, budget, out: Outcome) -> None:
    fd = decode_module_functor(_load(args.left, "module_functor").payload,
                               budget)
    gd = decode_module_functor(_load(args.right, "module_functor").payload,
                               budget)
    ok = out.check("input-left", check_module_functor(fd))
    ok = out.check("input-right", check_module_functor(gd)) and ok
    if not ok:
        return
    result = laxator(fd, gd, budget)
    out.check("comparison", check_mon_functor(result.comparison))
    out.summary["pairing_objects"] = result.pairing.apex.base.num_objects
    out.summary["composite_objects"] = result.span_composite.apex.base.num_objects
    out.summary["essentially_surjective"] = result.essentially_surjective
    out.summary["full"] = result.full
    out.summary["faithful"] = result.faithful
    out.summary["table_isomorphism"] = result.table_isomorphism
    if result.missed_object is not None:
        out.summary["missed_object"] = result.missed_object
    out.artifacts["composite_span"] = encode_span(result.span_composite)


def _cmd_laxator_coherence(args, budget, out: Outcome) -> None:
    fd = decode_module_functor(_load(args.first, "module_functor").payload,
                               budget)
    gd = decode_module_functor(_load(args.second, "module_functor").payload,
                               budget)
    hd = decode_module_functor(_load(args.third, "module_functor").payload,
                               budget)
    ok = True
    for name, data in (("input-first", fd), ("input-second", gd),
                       ("input-third", hd)):
        ok = out.check(name, check_module_functor(data)) and ok
    if not ok:
        return
    result = laxator_coherence(fd, gd, hd, budget)
    out.check("coherence", result.cell_report)
    out.summary["cell_is_identity"] = result.cell_is_identity


def _cmd_module_structures(args, budget, out: Outcome) -> None:
    dom = decode_module(_load(args.dom, "module").payload, budget)
    cod = decode_module(_load(args.cod, "module").payload, budget)
    fun = decode_functor(_load(args.functor, "functor").payload)
    if fun.source != dom.carrier or fun.target != cod.carrier:
        raise StructureError(
            "functor document does not match the module carriers")
    if not out.check("input", check_functor(fun)):
        return
    found = module_structures_on(fun, dom, cod, budget)
    out.summary["structure_count"] = len(found)
    out.artifacts["transports"] = [[list(t.components) for t in fd.xi]
                                   for fd in found]


def _cmd_central_check(args, budget, out: Outcome) -> None:
    """z1 reads the base braiding, two actions, the candidate and psi, and z2
    two carrier braidings after the base; the carrier's type then picks the
    center, Drinfeld for z1's monoidal carriers and Müger for z2's."""
    files, braided = args.files, args.variant == "z2"
    if len(files) not in ((7, 10) if braided else (5, 8)):
        raise StructureError(
            f"central-check {args.variant} takes base braiding, "
            + ("two carrier braidings, " if braided else "")
            + "two actions, the candidate, psi, and optionally a second "
            "candidate with psi and phi")
    k = 3 if braided else 1
    base, *carriers = (decode_braiding(_load(f, "braiding").payload)
                       for f in files[:k])
    action_a, action_b, g = (decode_mon_functor(_load(f, "mon_functor").payload)
                             for f in files[k:k + 3])
    psi_g = decode_nat_trans(_load(files[k + 3], "nat_trans").payload)
    ok = True
    for subject, b in zip(("base", "carrier-left", "carrier-right"),
                          (base, *carriers)):
        ok = _braiding_lawful(out, subject, b) and ok
    if not braided:
        ok = _ends_lawful(out, "candidate", g) and ok
        carriers = [g.source, g.target]
    if not ok:
        return
    modules = []
    for subject, carrier, action in zip(("action-left", "action-right"),
                                        carriers, (action_a, action_b)):
        module, report = _central_module(base, carrier, action, budget, subject)
        modules.append(module if out.check(subject, report) else None)
    if None in modules:
        return
    setup = _central_setup(*modules, g, psi_g, files[k + 4:])
    result = central_module_check(setup, budget)
    out.check("central", result.report)
    if result.fiber is not None:
        out.summary["fiber_objects"] = result.fiber.apex.base.num_objects
    out.summary["induced_exists"] = result.induced is not None
    if result.common_carriers is not None:
        out.summary["common_carriers"] = list(result.common_carriers)
        out.summary["phi_matches_common"] = result.phi_matches_common


def _central_setup(left, right, g, psi_g: NatTrans, second: list[str]):
    """The setup for candidate g with comparison psi_g, and the second
    candidate h with psi_h and phi when second names their three documents.
    A comparison psi for a candidate c must run from c∘U_left∘F_left to
    U_right∘F_right, where U is the center's forgetful functor and F the
    action; phi must run from g to h."""
    h = psi_h = phi = None
    if second:
        h = decode_mon_functor(_load(second[0], "mon_functor").payload)
        psi_h = decode_nat_trans(_load(second[1], "nat_trans").payload)
        phi = decode_nat_trans(_load(second[2], "nat_trans").payload)
    after_left = compose_functors(left.center.forgetful, left.action.underlying)
    after_right = compose_functors(right.center.forgetful, right.action.underlying)
    for name, psi, cand in (("psi", psi_g, g), ("psi_h", psi_h, h)):
        if psi is not None and (
                psi.source != compose_functors(cand.underlying, after_left)
                or psi.target != after_right):
            raise StructureError(f"{name} does not run from the candidate "
                                 "after the left action to the right action")
    if phi is not None:
        if phi.source != g.underlying or phi.target != h.underlying:
            raise StructureError("phi does not run from the first candidate "
                                 "to the second")
        phi = MonNatTrans(g, h, phi)
    return CentralFunctorSetup(left, right, g, tuple(psi_g.components), h,
                      None if psi_h is None else tuple(psi_h.components), phi)


def _cmd_normalize_check(args, budget, out: Outcome) -> None:
    md = decode_module(_load(args.file, "module").payload, budget)
    if not out.check("input", check_mon_functor(md.action)):
        return
    result = normalization_check(md, budget)
    out.check("normalization", result.report)
    out.summary["bijective_on_objects"] = result.bijective_on_objects
    out.summary["apex_objects"] = result.apex_objects
    out.summary["end_objects"] = result.end_objects


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber root-level values
    default = (lambda v: argparse.SUPPRESS if suppress else v)
    parser.add_argument("--cap", type=int, default=default(None),
                        help="enumeration budget: objects (morphisms get 10x); "
                             "defaults to SPANFORGE_CAP or 10000")
    parser.add_argument("--report", choices=("human", "structured"),
                        default=default("human"))
    parser.add_argument("--out", default=default(None),
                        help="write the structured report to this path "
                             "('-' for stdout)")
    parser.add_argument("--orientation", choices=("forward", "reverse"),
                        default=default("forward"))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the
    process: parse_args reads it without changing it, so repeated main calls
    share one tree, and importing the module builds none."""
    parser = argparse.ArgumentParser(
        prog="spanforge",
        description="exact constructions and coherence checks for finite "
                    "monoidal categories")
    _add_common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("validate")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("center")
    p.add_argument("file")
    p = sub.add_parser("mueger")
    p.add_argument("file")
    p = sub.add_parser("centralizer")
    p.add_argument("variant", choices=("z1", "z2"))
    p.add_argument("files", nargs="+")
    p = sub.add_parser("intertwiner")
    p.add_argument("variant", choices=("z1", "z2"))
    p.add_argument("files", nargs="+")
    p = sub.add_parser("fiber-product")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("comma")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("end")
    p.add_argument("file")
    p = sub.add_parser("build-span")
    p.add_argument("file")
    p = sub.add_parser("build-2span")
    p.add_argument("file")
    p = sub.add_parser("laxator")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("laxator-coherence")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("third")
    p = sub.add_parser("module-structures")
    p.add_argument("dom")
    p.add_argument("cod")
    p.add_argument("functor")
    p = sub.add_parser("central-check")
    p.add_argument("variant", choices=("z1", "z2"))
    p.add_argument("files", nargs="+")
    p = sub.add_parser("normalize-check")
    p.add_argument("file")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "center": _cmd_center,
    "mueger": _cmd_mueger,
    "centralizer": _cmd_centralizer,
    "intertwiner": _cmd_intertwiner,
    "fiber-product": _cmd_fiber_product,
    "comma": _cmd_comma,
    "end": _cmd_end,
    "build-span": _cmd_build_span,
    "build-2span": _cmd_build_two_span,
    "laxator": _cmd_laxator,
    "laxator-coherence": _cmd_laxator_coherence,
    "module-structures": _cmd_module_structures,
    "central-check": _cmd_central_check,
    "normalize-check": _cmd_normalize_check,
}


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spanforge-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = Outcome(args.command)
    try:
        budget = _budget(args)
        _HANDLERS[args.command](args, budget, out)
    except SpanforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.report == "structured" or args.out is not None:
        structured = serialize(Document("report", out.payload()))
    # the file is written before anything is printed, so a failed write
    # leaves stdout empty
    if args.out not in (None, "-"):
        try:
            _write_atomic(args.out, structured)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_ERROR
    if args.report == "structured":
        sys.stdout.write(structured)
    else:
        print("\n".join(out.human_lines()))
    if args.out == "-" and args.report != "structured":
        sys.stdout.write(structured)
    return EXIT_OK if out.ok else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
