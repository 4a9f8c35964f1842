"""Command-line interface.

Subcommands load posets/complexes/diagrams from JSON files, run the
constructions, reductions and homology, export DOT figures, and drive the
theorem-check suite.  Exit codes: 0 on success, 1 if any check was
Refuted, 2 on malformed input or usage errors, 3 on an internal error (a
bug in the library; the traceback goes to stderr).  FINHTOP_BUDGET
overrides the default search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import io
from .diagram import hocolim, mapping_cylinder, restrict
from .errors import FinhtopError
from .homology import homology_profile, poset_homology
from .poset import FinitePoset
from .reduction import DEFAULT_BUDGET, core, is_contractible
from .simplicial import barycentric, face_poset, face_poset_op, order_complex
from .verify import suite


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _print_profile(profile, fmt: str) -> None:
    if fmt == "json":
        _emit(io.dumps(io.profile_to_obj(profile)))
    else:
        _emit(profile.describe())


def _print_poset(p: FinitePoset, fmt: str) -> None:
    if fmt == "json":
        _emit(io.dumps(io.poset_to_obj(p)))
    else:
        _emit(f"{len(p.elements)} elements, {len(p.covers)} covers")
        _emit("elements: " + " ".join(p.elements))
        for (a, b) in sorted(p.covers):
            _emit(f"  {a} < {b}")


def _cmd_poset(args) -> int:
    p = io.poset_from_obj(_load(args.file))
    if args.action == "core":
        c, seq = core(p)
        if args.format == "json":
            _emit(io.dumps({"core": io.poset_to_obj(c), "sequence": seq.to_obj()}))
        else:
            _emit(f"core has {len(c)} elements after {len(seq)} beat removals")
            _print_poset(c, "text")
    elif args.action == "contractible":
        value = is_contractible(p)
        _emit(io.dumps({"contractible": value}) if args.format == "json" else str(value).lower())
    elif args.action == "ordercomplex":
        k = order_complex(p)
        if args.format == "json":
            _emit(io.dumps(io.complex_to_obj(k)))
        else:
            _emit(f"{len(k.vertices)} vertices, {len(k.facets)} facets")
            for f in k.facets:
                _emit("  " + " ".join(f))
    elif args.action == "homology":
        _print_profile(poset_homology(p), args.format)
    elif args.action == "export-dot":
        _emit(io.to_dot(p))
    return 0


def _cmd_complex(args) -> int:
    k = io.complex_from_obj(_load(args.file))
    if args.action == "faceposet":
        _print_poset(face_poset_op(k) if args.op else face_poset(k), args.format)
    elif args.action == "sd":
        sd = barycentric(k)
        if args.format == "json":
            _emit(io.dumps(io.complex_to_obj(sd)))
        else:
            _emit(f"{len(sd.vertices)} vertices, {len(sd.facets)} facets")
    elif args.action == "homology":
        _print_profile(homology_profile(k), args.format)
    return 0


def _cmd_diagram(args) -> int:
    if args.action == "cylinder":
        f = io.map_from_obj(_load(args.file))
        _print_poset(mapping_cylinder(f), args.format)
        return 0
    obj = _load(args.file)
    if args.action == "hocolim":
        io.require_fiber_kind(obj, "poset")
        _print_poset(hocolim(io.diagram_from_obj(obj)), args.format)
    elif args.action == "restrict":
        kept = args.keep.split(",") if args.keep else []
        r = restrict(io.diagram_from_obj(obj), kept)
        if args.format == "json":
            _emit(io.dumps(io.diagram_to_obj(r)))
        else:
            _emit(f"restricted to {len(r.index)} index elements")
    return 0


def _cmd_check(args) -> int:
    if args.theorem == "all":
        reports = suite.run_all(args.seed, args.budget)
    elif args.input:
        t = suite.THEOREMS[args.theorem]
        reports = [t.check(t.read_input(_load(args.input), vars(args)), args.budget)]
    else:
        n = args.random if args.random is not None else 10
        reports = suite.run_family(args.theorem, n, args.seed, args.budget)
    if args.format == "json":
        _emit(io.dumps([r.to_obj() for r in reports]))
    else:
        for r in reports:
            _emit(r.describe())
        verdicts = [r.conclusion_status for r in reports]
        _emit(
            f"{len(reports)} checks: {verdicts.count('Verified')} verified, "
            f"{verdicts.count('Skipped')} skipped, {verdicts.count('Refuted')} refuted"
        )
    return 1 if any(not r.ok() for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finhtop",
        description="Finite posets as finite spaces: hocolims, reductions, homology, theorem checks.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poset = sub.add_parser("poset", help="operations on a poset file")
    p_poset.add_argument(
        "action", choices=("core", "contractible", "ordercomplex", "homology", "export-dot")
    )
    p_poset.add_argument("file")
    p_poset.set_defaults(fn=_cmd_poset)

    p_complex = sub.add_parser("complex", help="operations on a complex file")
    p_complex.add_argument("action", choices=("faceposet", "sd", "homology"))
    p_complex.add_argument("file")
    p_complex.add_argument("--op", action="store_true", help="use the opposite order")
    p_complex.set_defaults(fn=_cmd_complex)

    p_diagram = sub.add_parser("diagram", help="operations on a diagram file")
    p_diagram.add_argument("action", choices=("hocolim", "cylinder", "restrict"))
    p_diagram.add_argument("file")
    p_diagram.add_argument("--keep", help="comma-separated index elements for restrict")
    p_diagram.set_defaults(fn=_cmd_diagram)

    p_check = sub.add_parser("check", help="run theorem checkers")
    p_check.add_argument("theorem", choices=(*suite.THEOREMS, "all"))
    p_check.add_argument("--input", help="JSON instance file")
    p_check.add_argument("--random", type=int, help="number of random instances")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--budget", type=int, default=None)
    p_check.add_argument("--point", help="index point for ubp/dbp/dbpgen/up-wp")
    p_check.add_argument("--dominator", help="dominating index point for dbp/dbpgen")
    p_check.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is None:
        args.budget = int(os.environ.get("FINHTOP_BUDGET", DEFAULT_BUDGET))
    try:
        return args.fn(args)
    except (FinhtopError, OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
