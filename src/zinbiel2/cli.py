"""Command-line interface: load JSON inputs, run checks and constructions,
emit deterministic reports.

Exit codes: 0 all checks clean / construction succeeded; 1 violations found
(report still emitted); 2 input or schema error, including --cap below 1, a
negative --budget, a negative --vdims entry or a --d of the wrong shape; 3
budget exceeded (with --budget 0, by any search space); 4 internal error (a
defect, not a verdict).  Each command accepts only the flags it reads,
except that classify, which runs in one process, accepts --jobs N and
ignores it.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from contextvars import ContextVar
from functools import cache

from .classify import DEFAULT_ENUM_BUDGET, check_rs_conditions, check_rs_direct
from .classify import census as run_census
from .core import DEFAULT_VIOLATION_CAP, check_crossed_module, check_zinbiel
from .errors import (BudgetExceeded, InfeasibleSearch, PreconditionError,
                     SchemaError, Zinbiel2Error)
from .fields import field_from_name
from .io import (datum_to_json, load_document, matched_pair_to_json,
                 pretty_dumps, report_to_json, two_algebra_to_json)
from .linalg import LinMap
from .special import check_crossed_system, check_ideal_extension, check_matched_pair, factorize
from .unified import (build_unified_product, check_datum_conditions,
                      check_datum_direct, check_trivial_z1_conditions,
                      extract_datum, verify_psi)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _field(name, args):
    """The field a --field flag names; SchemaError for a bad name."""
    try:
        return field_from_name(name, allow_small_char=args.allow_small_char)
    except ValueError as exc:
        raise SchemaError(str(exc), "--field", None) from None


def _load(args, kind):
    """The value of the given kind in args.input, over the --field override if set."""
    override = None if args.field is None else _field(args.field, args)
    _, val, _ = load_document(args.input, expect_kind=kind, field_override=override,
                              allow_small_char=args.allow_small_char)
    return val


def _render_report(rep, fmt, out):
    if fmt == "json":
        out.write(pretty_dumps(report_to_json(rep)))
        return
    status = "ok" if rep.ok else f"{len(rep.violations)} violation(s)"
    out.write(f"result: {status}\n")
    if not rep.conforming_field:
        out.write("note: non-conforming characteristic (GF(2)/GF(3) override)\n")
    for v in rep.violations:
        witness = ",".join(str(i + 1) for i in v.witness)
        lhs = "(" + ", ".join(map(str, v.lhs)) + ")"
        rhs = "(" + ", ".join(map(str, v.rhs)) + ")"
        out.write(f"  ({v.cond}) at ({witness}): lhs {lhs} != rhs {rhs}\n")
    if rep.truncated:
        out.write("  ... report truncated at the violation cap\n")
    for fl in rep.flags:
        marker = " [disagrees here]" if fl.as_printed_disagrees else ""
        out.write(f"  flag ({fl.cond}): {fl.note}{marker}\n")


def _verdict(args, *reports):
    """Exit 1 on a violation in any report, or under --typo-strict on a flag
    that disagrees as printed; else 0."""
    flagged = any(fl.as_printed_disagrees for rep in reports for fl in rep.flags)
    if not all(rep.ok for rep in reports) or (args.typo_strict and flagged):
        return EXIT_VIOLATIONS
    return EXIT_OK


def _finish_report(rep, args, out):
    _render_report(rep, args.format, out)
    return _verdict(args, rep)


def cmd_check_zinbiel(args, out):
    val = _load(args, "zinbiel_algebra")
    return _finish_report(check_zinbiel(val, cap=args.cap), args, out)


def cmd_check_2alg(args, out):
    val = _load(args, "zinbiel_2_algebra")
    return _finish_report(check_crossed_module(val, cap=args.cap), args, out)


def cmd_check_datum(args, out):
    datum = _load(args, "extending_datum")
    direct = check_datum_direct(datum, cap=args.cap)
    conds = check_datum_conditions(datum, cap=args.cap, check_z=False,
                                   strict_printed=args.typo_strict)
    if args.format == "json":
        out.write(pretty_dumps({"direct": report_to_json(direct),
                                "conditions": report_to_json(conds),
                                "agreement": direct.ok == conds.ok}))
    else:
        out.write("== direct (build then verify axioms) ==\n")
        _render_report(direct, args.format, out)
        out.write("== condition list Z1..Z120 ==\n")
        _render_report(conds, args.format, out)
        out.write(f"agreement: {direct.ok == conds.ok}\n")
    return _verdict(args, direct, conds)


def cmd_build_product(args, out):
    datum = _load(args, "extending_datum")
    product = build_unified_product(datum)
    out.write(pretty_dumps(two_algebra_to_json(product)))
    return EXIT_OK


def cmd_extract_datum(args, out):
    split = _load(args, "complement_split")
    datum = extract_datum(split, cap=args.cap)
    psi_rep = verify_psi(split, datum, cap=args.cap)
    if args.format == "json":
        out.write(pretty_dumps({"datum": datum_to_json(datum),
                                "psi": report_to_json(psi_rep)}))
    else:
        out.write(pretty_dumps(datum_to_json(datum)))
        _render_report(psi_rep, args.format, out)
    return EXIT_OK if psi_rep.ok else EXIT_VIOLATIONS


def cmd_check_crossed(args, out):
    cs = _load(args, "crossed_system")
    rep = check_crossed_system(cs, cap=args.cap, strict_printed=args.typo_strict)
    return _finish_report(rep, args, out)


def cmd_check_matched(args, out):
    mp = _load(args, "matched_pair")
    rep = check_matched_pair(mp, cap=args.cap, strict_printed=args.typo_strict)
    return _finish_report(rep, args, out)


def cmd_check_trivial(args, out):
    datum = _load(args, "extending_datum")
    rep = check_trivial_z1_conditions(datum, cap=args.cap,
                                      strict_printed=args.typo_strict)
    return _finish_report(rep, args, out)


def cmd_factorize(args, out):
    split = _load(args, "complement_split")
    iota_v1 = LinMap.from_columns(split.field, split.vbasis1, split.e.z1.dim)
    iota_v0 = LinMap.from_columns(split.field, split.vbasis0, split.e.z0.dim)
    mp = factorize(split.e, (split.iota1, split.iota0), (iota_v1, iota_v0))
    out.write(pretty_dumps(matched_pair_to_json(mp)))
    return EXIT_OK


def cmd_check_ideal(args, out):
    split = _load(args, "complement_split")
    from .io import crossed_system_to_json
    cs = check_ideal_extension(split, cap=args.cap)
    out.write(pretty_dumps(crossed_system_to_json(cs)))
    return EXIT_OK


def cmd_check_morphism(args, out):
    datum, datum_p, rs = _load(args, "rs_morphism")
    hrep = check_rs_conditions(rs, datum, datum_p, cap=args.cap,
                               strict_printed=args.typo_strict)
    drep = check_rs_direct(rs, datum, datum_p, cap=args.cap)
    iso = rs.is_isomorphism_shape() and drep.ok
    if args.format == "json":
        out.write(pretty_dumps({"criterion": report_to_json(hrep),
                                "direct": report_to_json(drep),
                                "agreement": hrep.ok == drep.ok,
                                "is_isomorphism": iso}))
    else:
        out.write("== criterion H1..H20 ==\n")
        _render_report(hrep, args.format, out)
        out.write("== direct morphism check ==\n")
        _render_report(drep, args.format, out)
        out.write(f"agreement: {hrep.ok == drep.ok}\n")
        out.write(f"is_isomorphism: {iso}\n")
    return _verdict(args, hrep, drep)


def cmd_classify(args, out):
    field = _field(args.field_req, args)
    _, z, _ = load_document(args.z, expect_kind="zinbiel_2_algebra",
                            field_override=field,
                            allow_small_char=args.allow_small_char)
    try:
        n1, n0 = (int(x) for x in args.vdims.split(","))
    except ValueError:
        raise SchemaError(f"expected n1,n0, got {args.vdims}", "--vdims", None) from None
    if n1 < 0 or n0 < 0:
        raise SchemaError(f"entries must be nonnegative, got {args.vdims}", "--vdims", None)
    if args.d is not None:
        _, dmap, _ = load_document(args.d, expect_kind="linmap", field_override=field)
        if (dmap.rows, dmap.cols) != (n0, n1):
            raise SchemaError(f"--d must be {n0}x{n1} for --vdims {args.vdims}, "
                              f"got {dmap.rows}x{dmap.cols}", "$", args.d)
    else:
        dmap = LinMap.zero(field, n0, n1)
    out.write(pretty_dumps(run_census(field, z, (n1, n0), dmap, budget=args.budget)))
    return EXIT_OK


_REPORT_FLAGS = ("--cap", "--format", "--typo-strict")

# name: (handler, help, the report flags the handler reads)
_COMMANDS = {
    "check-zinbiel": (cmd_check_zinbiel, "verify the defining identity of an algebra",
                      _REPORT_FLAGS),
    "check-2alg": (cmd_check_2alg, "verify all 2-algebra axioms", _REPORT_FLAGS),
    "check-datum": (cmd_check_datum, "run the condition list and the direct oracle on a datum",
                    _REPORT_FLAGS),
    "check-trivial-z1": (cmd_check_trivial, "run the reduced ZZ list (dim Z1 = 0)",
                         _REPORT_FLAGS),
    "build-product": (cmd_build_product, "assemble the product 2-algebra of a datum", ()),
    "extract-datum": (cmd_extract_datum, "read a datum off an ambient algebra along a split",
                      ("--cap", "--format")),
    "check-crossed": (cmd_check_crossed, "run the CZ list on a crossed system", _REPORT_FLAGS),
    "check-matched": (cmd_check_matched, "run the BZ list on a matched pair", _REPORT_FLAGS),
    "check-ideal": (cmd_check_ideal, "verify the ideal condition and extract a crossed system",
                    ("--cap",)),
    "factorize": (cmd_factorize, "factor an algebra through two embedded subalgebras", ()),
    "check-morphism": (cmd_check_morphism, "run the H list and direct check on a block map",
                       _REPORT_FLAGS),
    "classify": (cmd_classify, "enumerate valid data over GF(p) and compute both quotients",
                 ()),
}


def positive_int(text):
    """argparse type of --cap: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text):
    """argparse type of --budget: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    out = ContextVar("out", default=None)    # main's out stream, where --help writes

    def print_help(self, file=None):
        super().print_help(file or self.out.get())


def build_parser():
    parser = _Parser(
        prog="zinbiel2",
        description="Exact checks, products, and classification for Zinbiel 2-algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if name == "classify":
            p.add_argument("--field", dest="field_req", required=True,
                           help="q or gf<p> (classification requires gf<p>)")
            p.add_argument("--z", required=True, help="zinbiel_2_algebra JSON file")
            p.add_argument("--vdims", required=True, help="complement dims n1,n0")
            p.add_argument("--d", default=None, help="optional linmap JSON for d")
            p.add_argument("--budget", type=nonnegative_int, default=DEFAULT_ENUM_BUDGET,
                           help="bound on the number of coefficient assignments an "
                                "enumeration may span; checked before the search")
            p.add_argument("--jobs", type=int, default=1,
                           help="accepted and ignored: classify runs in one process")
        else:
            p.add_argument("input", help="input JSON file")
            p.add_argument("--field", default=None, help="override field: q or gf<p>")
        if "--cap" in flags:
            p.add_argument("--cap", type=positive_int, default=DEFAULT_VIOLATION_CAP,
                           help="violation cap per report")
        if "--format" in flags:
            p.add_argument("--format", choices=("json", "text"), default="json")
        if "--typo-strict" in flags:
            p.add_argument("--typo-strict", action="store_true",
                           help="escalate typo-suspect disagreements to exit 1")
        p.add_argument("--allow-small-char", action="store_true",
                       help="permit GF(2)/GF(3); reports are marked non-conforming")
    return parser


# main's parser, built on its first call and reused: parse_args leaves it as it was
_parser = cache(build_parser)


def main(argv=None, out=None):
    out = out or sys.stdout
    token = _Parser.out.set(out)    # --help goes to out; usage errors to stderr
    try:
        args = _parser().parse_args(argv)
    finally:
        _Parser.out.reset(token)
    try:
        return args.fn(args, out)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceeded, InfeasibleSearch) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            _render_report(exc.report, getattr(args, "format", "json"), out)
        return EXIT_VIOLATIONS
    except Zinbiel2Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
