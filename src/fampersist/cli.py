"""Command-line interface.

Subcommands: module, cerf, kde, regress, stability, verify.  Exit codes:
0 success, 1 verification failure, 2 I/O or parse error, 3 precondition
failure.  All JSON and CSV output is deterministic (sorted keys, canonical
rationals), so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from .cerf import CerfError, trace_cerf
from .family import (KERNELS, KernelSpec, PLFamily, cylinder_family,
                     hat_family, kde_family, nw_regression_family,
                     wrinkled_cylinder_family, zigzag_family)
from .homology import FieldSpec
from .io import (IOFormatError, dump_json, family_to_json_dict, load_family,
                 load_samples, write_text)
from .module3 import ModuleError, ThinRefusal, betti_report, build_module, \
    thin_decompose
from .rational import parse_rational
from .stability import check_interleaving_necessary, sup_distance
from .svg import render_cerf_svg
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3


def _example_size(name: str, arg: str, default: int) -> int:
    if not arg:
        return default
    try:
        return int(arg)
    except ValueError:
        raise IOFormatError(
            f"example {name!r}: size {arg!r} is not an integer") from None


def _example_family(name: str) -> PLFamily:
    base, _, arg = name.partition(":")
    if base == "hat" and not arg:
        return hat_family(4)
    if base == "wrinkled-cylinder" and not arg:
        return wrinkled_cylinder_family()
    if base == "zigzag":
        return zigzag_family(_example_size(name, arg, 3))
    if base == "cylinder":
        return cylinder_family(_example_size(name, arg, 8))
    raise IOFormatError(
        f"unknown example {name!r}; available: hat, zigzag:n, cylinder:k, "
        "wrinkled-cylinder")


def _resolve_family(args) -> PLFamily:
    if getattr(args, "example", None):
        return _example_family(args.example)
    if getattr(args, "family", None):
        return load_family(args.family)
    raise IOFormatError("need --family <path> or --example <name>")


def _fieldspec(args) -> FieldSpec:
    return FieldSpec(args.field)


def _emit(text: str, args) -> None:
    if args.out:
        write_text(text, args.out)
    else:
        sys.stdout.write(text)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise IOFormatError(str(exc)) from None


def _parse_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise IOFormatError(f"expected a,b,c; got {text!r}")
    return tuple(_rational(p) for p in parts)


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise IOFormatError(f"expected low:high; got {text!r}")
    return tuple(_rational(p) for p in parts)


# ----- commands -------------------------------------------------------------


def cmd_module(args) -> int:
    fam = _resolve_family(args)
    prism = fam.to_prism()
    if args.emit_family:
        _emit(dump_json(family_to_json_dict(fam)), args)
        return EXIT_OK
    fieldspec = _fieldspec(args)
    if args.max_degree is not None:
        if args.format == "csv":
            raise ModuleError("csv output needs a single --degree")
        report = betti_report(prism, args.max_degree, fieldspec)
        _emit(dump_json(report.to_json_dict()), args)
        return EXIT_OK
    mod = build_module(prism, args.degree, fieldspec)
    if args.format == "csv":
        _emit(mod.to_csv(), args)
    else:
        _emit(dump_json(mod.to_json_dict()), args)
    return EXIT_OK


def cmd_cerf(args) -> int:
    fam = _resolve_family(args)
    strip = _parse_triple(args.strip) if args.strip else None
    if strip is not None and strip[0] > strip[1]:
        raise CerfError("need a <= b")
    diagram = trace_cerf(fam.to_prism(), _fieldspec(args))
    if args.format == "json":
        _emit(dump_json(diagram.to_json_dict()), args)
    else:
        _emit(render_cerf_svg(diagram, strip=strip), args)
    return EXIT_OK


def _density_command(args, regression: bool) -> int:
    columns = 2 if regression else 1
    rows = load_samples(args.data, columns)
    kernel = KernelSpec(kind=args.kernel)
    bandwidths = _parse_range(args.bandwidth)
    box = _parse_range(args.box) if args.box else None
    if regression:
        fam = nw_regression_family(rows, kernel, bandwidths, domain_box=box,
                                   t_res=args.tres, x_res=args.xres)
    else:
        fam = kde_family([r[0] for r in rows], kernel, bandwidths,
                         domain_box=box, t_res=args.tres, x_res=args.xres)
    mod = build_module(fam.to_prism(), 0, _fieldspec(args))
    if args.format == "csv":
        _emit(mod.to_csv(), args)
        return EXIT_OK
    data = mod.to_json_dict()
    if args.summands:
        try:
            data["summands"] = [
                sorted([list(pt) for pt in s.support])
                for s in thin_decompose(mod)]
        except ThinRefusal as exc:
            data["summands"] = None
            data["summands_refusal"] = str(exc)
    _emit(dump_json(data), args)
    return EXIT_OK


def cmd_kde(args) -> int:
    return _density_command(args, regression=False)


def cmd_regress(args) -> int:
    return _density_command(args, regression=True)


def cmd_stability(args) -> int:
    fam = _resolve_family(args)
    if args.family2:
        other = load_family(args.family2)
    elif args.example2:
        other = _example_family(args.example2)
    else:
        raise IOFormatError("need --family2 <path> or --example2 <name>")
    fieldspec = _fieldspec(args)
    if args.epsilon == "auto":
        epsilon = sup_distance(fam, other)
    else:
        epsilon = _rational(args.epsilon)
    mf = build_module(fam.to_prism(), args.degree, fieldspec)
    mg = build_module(other.to_prism(), args.degree, fieldspec)
    report = check_interleaving_necessary(mf, mg, epsilon)
    _emit(dump_json(report.to_json_dict()), args)
    return EXIT_OK if report.overall else EXIT_VERIFY


def cmd_verify(args) -> int:
    results = run_suite(_fieldspec(args), tamper=args.tamper)
    overall = all(r.passed for r in results)
    if args.format == "json":
        _emit(dump_json({
            "checks": [{"name": r.name, "pass": r.passed, "detail": r.detail}
                       for r in results],
            "overall": overall,
        }), args)
    else:
        lines = [r.line() for r in results]
        lines.append("overall: " + ("pass" if overall else "fail"))
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if overall else EXIT_VERIFY


# ----- parser ---------------------------------------------------------------


def _add_common(sub, formats=("json", "csv")):
    sub.add_argument("--field", type=int, default=2,
                     help="coefficient field characteristic (prime)")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", help="output path (default: stdout)")


def _add_family_source(sub):
    sub.add_argument("--family", help="family description JSON file")
    sub.add_argument("--example",
                     help="built-in family: hat, zigzag:n, cylinder:k, "
                          "wrinkled-cylinder")


@cache  # built on the first main call, not at import, and reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fampersist",
        description="Persistence modules and Cerf diagrams of "
                    "one-parameter families of PL functions.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("module", help="compute a module over the grid")
    _add_family_source(p)
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=None,
                   help="report all degrees up to this one")
    p.add_argument("--emit-family", action="store_true",
                   help="re-emit the parsed family as canonical JSON")
    _add_common(p)
    p.set_defaults(func=cmd_module)

    p = subs.add_parser("cerf", help="trace the critical-value diagram")
    _add_family_source(p)
    p.add_argument("--strip", help="overlay the segment a,b,c")
    _add_common(p, formats=("svg", "json"))
    p.set_defaults(func=cmd_cerf)

    for name, fn, help_text in (
            ("kde", cmd_kde, "density estimate family from 1-column CSV"),
            ("regress", cmd_regress,
             "kernel regression family from 2-column CSV")):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--data", required=True, help="CSV sample file")
        p.add_argument("--kernel", default="gaussian", choices=KERNELS)
        p.add_argument("--bandwidth", required=True,
                       help="bandwidth range amin:amax")
        p.add_argument("--box", help="domain interval xmin:xmax")
        p.add_argument("--tres", type=int, default=8)
        p.add_argument("--xres", type=int, default=32)
        p.add_argument("--summands", action="store_true",
                       help="include thin summand supports when available")
        _add_common(p)
        p.set_defaults(func=fn)

    p = subs.add_parser("stability", help="rank checks for a perturbation")
    _add_family_source(p)
    p.add_argument("--family2", help="second family JSON file")
    p.add_argument("--example2", help="second built-in family")
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--epsilon", default="auto",
                   help="interleaving shift, a rational or 'auto'")
    _add_common(p, formats=("json",))
    p.set_defaults(func=cmd_stability)

    p = subs.add_parser("verify", help="run the bundled example suite")
    p.add_argument("--tamper", action="store_true",
                   help=argparse.SUPPRESS)
    _add_common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IOFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
