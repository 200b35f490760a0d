"""Command-line front end.

Commands: eval, classify, levelset, construct, measure, seed-examples.
Outputs are deterministic for identical inputs (fixed iteration orders, all
reals printed as 17-digit decimals); the only run-dependent content is the
isolated metadata.generated_at field.  Exit codes: 0 success, 2 on domain or
input errors (argparse's own among them, each in one line) and on an
unusable output path, 3 when a tolerance is unattainable (precision
exhausted, or a declared zero tail too large to certify).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys

from .classify import MAX_DEPTH, classify
from .companion import construct_companion
from .errors import (DomainError, OnecompError, PrecisionExhausted,
                     TailBoundInsufficient)
from .families import SEEDED_FAMILY_BUILDERS
from .geometry import BoundaryArc
from .inner import dump_zeros_csv
from .levelset import MAX_DEPTH as LEVEL_SET_MAX_DEPTH, level_set_components
from .serialize import _num, dumps, inner_from_json, inner_to_json, measure_from_json

def _metadata(args) -> dict:
    return {"generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "threads": args.threads}


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError("%s: malformed JSON at line %d column %d: %s"
                          % (path, exc.lineno, exc.colno, exc.msg)) from exc
    except OSError as exc:
        raise DomainError("%s: %s" % (path, exc)) from exc


def _load_inner(path: str):
    return inner_from_json(_load_json(path), base_dir=os.path.dirname(path) or ".")


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _emit(args, name: str, doc: dict) -> int:
    """Add metadata, write the report as ``name`` under --out, print it."""
    doc["metadata"] = _metadata(args)
    text = dumps(doc)
    if args.out:
        _write(args.out, name, text)
    sys.stdout.write(text)
    return 0


def _parse_point(spec: str) -> complex:
    parts = spec.split(",")
    if len(parts) != 2:
        raise DomainError("point must be 're,im', got %r" % (spec,))
    return complex(_num(parts[0], "point re"), _num(parts[1], "point im"))


def _positive(value, option: str) -> float:
    x = _num(value, option)
    if not x > 0.0:
        raise DomainError("%s: expected a positive number, got %r" % (option, value))
    return x


def _integer(value, option: str, least: int | None = None) -> int:
    x = _num(value, option)
    if x != int(x):
        raise DomainError("%s: expected an integer, got %r" % (option, value))
    if least is not None and x < least:
        raise DomainError("%s: must be at least %d, got %r" % (option, least, value))
    return int(x)


def _depth(value, least: int, cap: int, level: str) -> int:
    depth = _integer(value, "--depth", least=least)
    if depth > cap:
        raise PrecisionExhausted("--depth: %d is past %d, the deepest %s "
                                 "double precision resolves" % (depth, cap, level))
    return depth


def cmd_eval(args) -> int:
    tol = _positive(args.tol, "--tol")
    theta = _load_inner(args.inner)
    z = _parse_point(args.at)
    value = theta.evaluate(z, tol)
    lm = theta.log_modulus(z, tol)
    mb = theta.modulus_bounds(z, tol)
    return _emit(args, "eval.json", {"value": value,
                                     "log_modulus": {"lo": lm.lo, "hi": lm.hi},
                                     "modulus": {"lo": mb.lo, "hi": mb.hi}})


def cmd_classify(args) -> int:
    tol = _positive(args.tol, "--tol")
    depth = _depth(args.depth, 2, MAX_DEPTH, "scan level")
    theta = _load_inner(args.inner)
    return _emit(args, "report.json", classify(theta, depth, tol).to_json_dict())


def cmd_levelset(args) -> int:
    if args.pgm and not args.out:
        raise DomainError("--pgm needs --out: the raster is written only "
                          "as levelset.pgm under --out")
    epsilon = _num(args.epsilon, "--epsilon")
    depth = _depth(args.depth, 3, LEVEL_SET_MAX_DEPTH, "quadtree level")
    theta = _load_inner(args.inner)
    analysis = level_set_components(theta, epsilon, depth)
    doc = {"epsilon": analysis.epsilon, "depth": analysis.depth,
           "component_count": analysis.component_count,
           "previous_depth_count": analysis.previous_depth_count,
           "stabilized": analysis.stabilized,
           "marked_cells": len(analysis.labels)}
    if args.out:
        _write(args.out, "levelset.csv", analysis.to_csv())
        if args.pgm:
            with open(os.path.join(args.out, "levelset.pgm"), "wb") as fh:
                fh.write(analysis.to_pgm())
    return _emit(args, "levelset.json", doc)


def cmd_construct(args) -> int:
    # the separation check needs two placed zeros
    horizon = _integer(args.horizon, "--horizon", least=2)
    depth = _depth(args.depth, 2, MAX_DEPTH, "scan level")
    theta = _load_inner(args.inner)
    result = construct_companion(theta, horizon=horizon, depth=depth)
    doc = {
        "zeros_csv": dump_zeros_csv(result.zeros.zeros),
        "separation_delta": result.separation_delta,
        "box_constant": result.box_constant,
        "max_step_error": result.max_step_error,
        "tail_blaschke_estimate": result.tail_blaschke_estimate,
        "report_b": result.report_b.to_json_dict(),
        "report_btheta": result.report_btheta.to_json_dict(),
        "spot_check": {"points_checked": result.spot_check.points_checked,
                       "points_above_threshold": len(result.spot_check.violations),
                       "violations": [{"re": v.real, "im": v.imag}
                                      for v in result.spot_check.violations]},
        "verified": result.verified,
        "construction": result.metadata,
    }
    if args.out:
        _write(args.out, "gamma.csv", result.gamma.to_polyline_csv())
    return _emit(args, "companion.json", doc)


def cmd_measure(args) -> int:
    tol = _positive(args.tol, "--tol")
    sigma = measure_from_json(_load_json(args.measure))
    doc = {"total_mass": sigma.total_mass()}
    if args.arc:
        parts = args.arc.split(",")
        if len(parts) != 2:
            raise DomainError("--arc must be 'center,half_width'")
        arc = BoundaryArc(_num(parts[0], "arc center"), _num(parts[1], "arc half_width"))
        doc["arc_mass"] = sigma.mass_of_arc(arc, tol=tol)
    if args.at:
        z = _parse_point(args.at)
        doc["poisson"] = sigma.poisson_integral(z, tol)
        h = sigma.herglotz_integral(z, tol)
        doc["herglotz"] = h
    return _emit(args, "measure.json", doc)


def cmd_seed_examples(args) -> int:
    out = args.out or "."
    for name, builder in SEEDED_FAMILY_BUILDERS.items():
        _write(out, "%s.json" % name, dumps(inner_to_json(builder())))
    sys.stdout.write("seeded %d example inputs into %s\n"
                     % (len(SEEDED_FAMILY_BUILDERS), out))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept for the process: each
    parse_args call fills a fresh namespace from the options' defaults, so
    no value carries over from one main() call to the next."""
    parser = argparse.ArgumentParser(
        prog="onecomp",
        description="construct, evaluate, and classify inner functions on "
                    "the unit disc")
    parser.add_argument("--threads", default="1",
                        help="cap on internal workers (outputs never depend on it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an inner function at a point")
    p.add_argument("--inner", required=True)
    p.add_argument("--at", required=True, help="interior point as 're,im'")
    p.add_argument("--tol", default="1e-9")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="run the one-component criterion scan")
    p.add_argument("--inner", required=True)
    p.add_argument("--depth", default="14")
    p.add_argument("--tol", default="1e-3")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("levelset", help="count components of {|Theta| < eps}")
    p.add_argument("--inner", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--depth", default="10")
    p.add_argument("--pgm", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("construct", help="build the companion Blaschke product")
    p.add_argument("--inner", required=True)
    p.add_argument("--horizon", default="2000")
    p.add_argument("--depth", default="14")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("measure", help="query a singular measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--arc", default=None, help="'center,half_width' in radians")
    p.add_argument("--at", default=None, help="interior point as 're,im'")
    p.add_argument("--tol", default="1e-9",
                   help="certified accuracy; on a Cantor measure the default "
                        "can be out of reach at an interior point (exit 3), "
                        "where 1e-6 answers")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("seed-examples",
                       help="write the example families as input files")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_seed_examples)
    for p in (parser, *sub.choices.values()):
        p.error = _reject
    return parser


def _reject(message: str):
    """argparse's error hook: main reports the message in one line, exit 2."""
    raise DomainError(message)


def _attach_point_values(argv: list[str]) -> list[str]:
    """``--at -0.5,0.5`` as ``--at=-0.5,0.5``: argparse takes a separate
    value that starts with '-' and is not a plain number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--at", "--arc") and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_point_values(
            sys.argv[1:] if argv is None else list(argv)))
        args.threads = _integer(args.threads, "--threads", least=1)
        return args.func(args)
    except (PrecisionExhausted, TailBoundInsufficient) as exc:
        sys.stderr.write("precision exhausted: %s\n" % (exc,))
        return 3
    except (OnecompError, OSError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
