"""Command-line front end: series tables, classification, graphs, verification.

Subcommands: branching, fermionic, js list, js chi, crystal graph, core,
verify.  JSON is the canonical machine format; CSV is available for series
tables, DOT for crystal graphs.  Output is byte-stable for fixed inputs.

Each `main` call builds its parser afresh, so the handlers it binds are
the module's current globals.  The parser registers every subcommand
with its help line, but adds arguments only to the one the command line
names, found from the `_COMMANDS` table; the others are never parsed, so
help, choice lists and errors read as if every argument were added.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .branching import METHODS, branching_series
from .cores import is_rectangle_le_n, n_core, n_weight
from .crystal import build_component
from .jantzen_seitz import chi_by_branching, chi_direct, js_set
from .partitions import format_partition, parse_partition
from .qseries import lattice_points, lattice_sum
from .verify import SUITES, _first_d, run_suites
from .weights import format_weight, weight_of


# Least accepted value of each integer flag, keyed by argparse dest.
_MINIMUMS = {"n": 2, "order": 0, "max_size": 0, "weight": 0}


def _add_common(parser: argparse.ArgumentParser, handler, formats=("json", "csv", "text")):
    """Bind the subcommand's handler and the output formats it writes."""
    parser.add_argument("--format", choices=formats, default="json")
    parser.set_defaults(handler=handler)


def _add_branching(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=METHODS + ("all",), default="all")
    _add_common(p, _run_branching)


def _add_fermionic(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_common(p, _run_fermionic)


def _add_js(p: argparse.ArgumentParser):
    js_sub = p.add_subparsers(dest="js_command", required=True)

    q = js_sub.add_parser("list", help="members with a given core and weight")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--core", required=True, help='partition text, "-" for empty')
    q.add_argument("--weight", type=int, required=True)
    _add_common(q, _run_js_list, formats=("json", "text"))

    q = js_sub.add_parser("chi", help="member-count generating series")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--core", required=True)
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--method", choices=("direct", "branching", "both"), default="both")
    _add_common(q, _run_js_chi)


def _add_crystal(p: argparse.ArgumentParser):
    crystal_sub = p.add_subparsers(dest="crystal_command", required=True)
    q = crystal_sub.add_parser("graph", help="build and export the component")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--max-size", type=int, required=True)
    _add_common(q, _run_crystal_graph, formats=("json", "dot", "text"))


def _add_core(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("partition", help='partition text, e.g. "5,5,4,1,1"; "-" for empty')
    _add_common(p, _run_core, formats=("json", "text"))


def _add_verify(p: argparse.ArgumentParser):
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--max-size", type=int, default=10)
    p.add_argument("--order", type=int, default=6)
    _add_common(p, _run_verify, formats=("json", "text"))


# Each subcommand: its name, its help line, and the global name of the
# function that adds its arguments (looked up when the parser is built).
_COMMANDS = (
    ("branching", "branching series for a (j, k) class", "_add_branching"),
    ("fermionic", "lattice-sum series for a class L(s)+L(t)", "_add_fermionic"),
    ("js", "restriction-irreducible partitions", "_add_js"),
    ("crystal", "crystal graph of the component of the empty partition", "_add_crystal"),
    ("core", "n-core, n-weight, and rectangle data", "_add_core"),
    ("verify", "run cross-verification suites", "_add_verify"),
)


def _build_parser(command) -> argparse.ArgumentParser:
    """The parser with every subcommand registered and arguments added only to `command`."""
    parser = argparse.ArgumentParser(
        prog="slnbranch",
        description="Level-1 affine sl(n) branching functions and partition classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, adder in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name == command:
            globals()[adder](p)
    return parser


def _series_csv(rows: dict[str, tuple[int, ...]], order: int) -> str:
    header = "method," + ",".join(f"c{d}" for d in range(order + 1))
    lines = [header]
    for method, coeffs in rows.items():
        lines.append(method + "," + ",".join(str(c) for c in coeffs))
    return "\n".join(lines)


def _emit(text: str):
    sys.stdout.write(text + "\n")


def _emit_json(value):
    """Write `value` as compact JSON, the one form of every command's JSON output."""
    _emit(json.dumps(value, separators=(",", ":")))


def _emit_rows(args, payload: dict, rows: dict[str, tuple[int, ...]]) -> int:
    """Write method rows in args.format; exit code 0 when every row agrees, else 1.

    `payload` is the JSON head; a single row adds `coeffs` and `method`,
    several add `methods` and the verdict, and on disagreement `first_d`,
    the first power of q at which the rows part (a text line in text).
    """
    agree = len(set(rows.values())) == 1
    if args.format == "json":
        if len(rows) == 1:
            ((method, coeffs),) = rows.items()
            payload.update({"coeffs": list(coeffs), "method": method})
        else:
            payload["methods"] = {m: list(c) for m, c in rows.items()}
            payload["verdict"] = "AGREE" if agree else "DISAGREE"
            if not agree:
                payload["first_d"] = _first_d(rows)
        _emit_json(payload)
    elif args.format == "csv":
        _emit(_series_csv(rows, args.order))
    else:
        for method, coeffs in rows.items():
            _emit(f"{method:9s} " + " ".join(str(c) for c in coeffs))
        if len(rows) > 1:
            _emit("verdict: " + ("AGREE" if agree else "DISAGREE"))
            if not agree:
                _emit(f"first_d: {_first_d(rows)}")
    return 0 if agree else 1


def _run_branching(args) -> int:
    methods = list(METHODS) if args.method == "all" else [args.method]
    rows = {m: branching_series(args.n, args.j, args.k, args.order, m) for m in methods}
    payload = {"n": args.n, "j": args.j % args.n, "k": args.k % args.n, "order": args.order}
    return _emit_rows(args, payload, rows)


def _run_fermionic(args) -> int:
    points = list(lattice_points(args.n, args.s, args.t, args.order))
    series = lattice_sum(points, args.order)
    if args.format == "json":
        payload = {
            "n": args.n,
            "s": args.s,
            "t": args.t,
            "order": args.order,
            "coeffs": list(series),
            "lattice_points": len(points),
        }
        _emit_json(payload)
    elif args.format == "csv":
        _emit(_series_csv({"fermionic": series}, args.order))
    else:
        _emit("fermionic " + " ".join(str(c) for c in series))
        _emit(f"lattice points: {len(points)}")
    return 0


def _run_js_list(args) -> int:
    members = js_set(args.n, parse_partition(args.core), args.weight)
    if args.format == "json":
        _emit_json([list(p) for p in members])
    else:
        for p in members:
            _emit(format_partition(p))
    return 0


def _run_js_chi(args) -> int:
    mu = parse_partition(args.core)
    rows: dict[str, tuple[int, ...]] = {}
    if args.method in ("direct", "both"):
        rows["direct"] = chi_direct(args.n, mu, args.order)
    if args.method in ("branching", "both"):
        rows["branching"] = chi_by_branching(args.n, mu, args.order)
    payload = {"n": args.n, "core": list(mu), "order": args.order}
    return _emit_rows(args, payload, rows)


def _run_crystal_graph(args) -> int:
    graph = build_component(args.n, args.max_size)
    if args.format == "dot":
        sys.stdout.write(graph.to_dot())
    elif args.format == "json":
        _emit_json(graph.to_json_dict())
    else:
        for v in graph.vertices:
            star = "*" if graph.js[v] else ""
            eps = ",".join(str(e) for e in graph.eps[v])
            wt = format_weight(weight_of(v, args.n))
            _emit(f"{format_partition(v)}{star}  eps=({eps})  wt={wt}")
        for src, i, dst in graph.edges:
            _emit(f"{format_partition(src)} -{i}-> {format_partition(dst)}")
    return 0


def _run_core(args) -> int:
    p = parse_partition(args.partition)
    core = n_core(p, args.n)
    rect = is_rectangle_le_n(core, args.n)
    payload = {
        "core": list(core),
        "weight": n_weight(p, args.n),
        "rectangle": list(rect) if rect is not None else None,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        _emit(f"core: {format_partition(core)}")
        _emit(f"weight: {payload['weight']}")
        _emit(f"rectangle: {payload['rectangle']}")
    return 0


def _run_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.n, args.max_size, args.order)
    if args.format == "json":
        _emit_json([r.to_dict() for r in reports])
    else:
        for r in reports:
            _emit(r.summary())
            for failure in r.failures:
                _emit(f"  FAIL {failure}")
    return 0 if all(r.ok for r in reports) else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser has no option that takes a value, so the first
    # token that is not an option names the subcommand.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = _build_parser(command).parse_args(argv)
    for dest, least in _MINIMUMS.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 2
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early (`| head`).  Point stdout at the null device,
        # so the flush at interpreter exit cannot raise, and exit as a
        # process killed by SIGPIPE would: 128 + 13.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
