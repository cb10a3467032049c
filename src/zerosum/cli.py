"""Command line front end.

Subcommands: ``compute`` one constant with a formula cross-check, ``enumerate``
the extremal census one below it, ``verify`` a structure description against
the census, ``table`` a family of groups row by row.

Every search runs sequentially under a node budget (``--node-budget``):
one budget covers the whole of ``compute``, ``enumerate`` or ``verify``,
and ``table`` gives each row a budget of its own.

Exit codes: 0 success or agreement, 2 a formula or census disagreement,
3 node budget exceeded, 64 bad command line (including unknown flags) or
search input the engine refuses, 65 hypothesis mismatch.
Default output is byte-identical across runs; the engine's reports carry
no timing.  ``--perf`` adds the wall time in ms of the call behind each
answer (``compute_constant``, ``enumerate_extremal`` or
``verify_characterization``): a JSON ``wall_time_ms`` field, an ``ms`` column
on every CSV row (a listing with no rows gets one row that holds only the
time) and a last text line ``ms: ...``.  ``table`` times each row's
``compute_constant`` instead: the field and a last text column on each row
that finished, and the CSV column, empty on a ``BUDGET`` row.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .engine import ConstantKind, SearchBudgetExceeded, SearchInputError, compute_constant
from .formulas import FormulaValue, formula_for
from .groups import GroupCeilingError, GroupSpec, parse_group
from .inverse import HypothesisError, TheoremId, enumerate_extremal, verify_characterization
from .sequences import WeightSet

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_HYPOTHESIS = 65

_FAMILIES = ("2,2n", "n")


class UsageError(ValueError):
    """Bad flag value; the message names the offending flag."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_run_flags(p):
    p.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p.add_argument("--node-budget", type=int, help="abort a search past this many nodes (in table, per row)")
    p.add_argument("--perf", action="store_true", help="include wall time in reports")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zerosum", description="weighted zero-sum constants of finite abelian groups")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("compute", help="compute one constant and cross-check any formula")
    pc.add_argument("--group", required=True, help="invariant factor chain, e.g. 2,6")
    pc.add_argument("--kind", required=True, choices=[k.value for k in ConstantKind])
    pc.add_argument("--weights", help="pm, classic, or a comma list of residues")
    _add_run_flags(pc)

    pe = sub.add_parser("enumerate", help="list the squarefree sequences one below the constant")
    pe.add_argument("--group", required=True)
    pe.add_argument("--weights", required=True)
    _add_run_flags(pe)

    pv = sub.add_parser("verify", help="compare a structure description with the census")
    pv.add_argument("--group", required=True)
    pv.add_argument("--theorem", required=True, choices=[t.value for t in TheoremId])
    pv.add_argument("--weights", help="only needed when the description fixes none")
    _add_run_flags(pv)

    pt = sub.add_parser("table", help="one row per group of a family")
    pt.add_argument("--family", required=True, choices=_FAMILIES,
                    help='"2,2n" for C2 x C2n or "n" for cyclic')
    pt.add_argument("--range", required=True, metavar="LO:HI", help="inclusive n range")
    pt.add_argument("--kind", required=True, choices=[k.value for k in ConstantKind])
    pt.add_argument("--weights", help="resolved against each row's exponent")
    _add_run_flags(pt)
    return parser


# -- argument resolution -----------------------------------------------------------


def _group_arg(text: str) -> GroupSpec:
    try:
        return parse_group(text)
    except ValueError as exc:
        raise UsageError(f"--group: {exc}") from exc


def _weights_arg(text: str, group: GroupSpec) -> WeightSet:
    try:
        return WeightSet.parse(text, group.exponent)
    except ValueError as exc:
        raise UsageError(f"--weights: {exc}") from exc


def _kind_weights(kind: ConstantKind, text: str | None, group: GroupSpec) -> WeightSet | None:
    """The weight set ``--weights`` gives ``kind`` on ``group``: none for the
    critical number, which refuses the flag; every other kind requires it."""
    if kind is ConstantKind.CRITICAL:
        if text is not None:
            raise UsageError("--weights: the critical number takes no weight set")
        return None
    if text is None:
        raise UsageError(f"--weights is required for kind {kind.value}")
    return _weights_arg(text, group)


def _range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError(f"--range: expected LO:HI, got {text!r}")
    try:
        bounds = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"--range: {exc}") from exc
    if bounds[0] > bounds[1] or bounds[0] < 1:
        raise UsageError(f"--range: bad bounds {text!r}")
    return bounds


def _timed(call, *args, **kwargs):
    """The result of one call and its wall time in ms."""
    t0 = time.perf_counter()
    result = call(*args, **kwargs)
    return result, round((time.perf_counter() - t0) * 1000.0, 3)


def _verdict(fv: FormulaValue, value: int) -> str | None:
    if not fv.applicable:
        return None
    return "AGREE" if fv.matches(value) else "DISAGREE"


def _formula_cell(fv: FormulaValue) -> str:
    if not fv.applicable:
        return "n/a"
    if fv.is_point:
        return str(fv.value)
    return f"{fv.lo}..{fv.hi}"


def _emit(args, obj: dict, header: list, rows: list, lines: list, ms: float | None = None) -> None:
    """Write one result as ``--output`` asks: the JSON object, the CSV header
    and rows, or the text lines, with ``ms`` added under ``--perf`` as the
    module docstring states (``table`` passes none: its rows hold their own)."""
    timed = args.perf and ms is not None
    if args.output == "json":
        if timed:
            obj["wall_time_ms"] = ms
        print(json.dumps(obj, sort_keys=True))
    elif args.output == "csv":
        if timed:
            header = [*header, "ms"]
            rows = [[*row, ms] for row in rows] or [[""] * (len(header) - 1) + [ms]]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print(*lines, *([f"ms: {ms}"] if timed else []), sep="\n")


# -- subcommands -------------------------------------------------------------------


def cmd_compute(args) -> int:
    group = _group_arg(args.group)
    kind = ConstantKind(args.kind)
    weights = _kind_weights(kind, args.weights, group)
    report, ms = _timed(compute_constant, kind, group, weights, node_budget=args.node_budget)
    fv = formula_for(kind, group, weights)
    verdict = _verdict(fv, report.value)
    obj = report.to_dict() | {"formula": fv.to_dict(), "verdict": verdict}

    row = [kind.value, group.spec_string, weights.label() if weights else "", report.value,
           obj["witness"], report.nodes_visited, _formula_cell(fv), fv.tag or "", verdict or ""]
    lines = [f"kind: {kind.value}", f"group: {group.spec_string}"]
    if weights is not None:
        lines.append(f"weights: {weights.label()} = {{{','.join(map(str, weights.classes))}}}")
    lines += [f"value: {report.value}", f"witness: {obj['witness']}", f"nodes: {report.nodes_visited}"]
    if fv.applicable:
        lines += [f"formula: {_formula_cell(fv)} [{fv.tag}]", f"verdict: {verdict}"]
    else:
        lines.append(f"formula: n/a ({fv.reason})")
    header = ["kind", "group", "weights", "value", "witness", "nodes", "formula", "tag", "verdict"]
    _emit(args, obj, header, [row], lines, ms)
    return EXIT_DISAGREE if verdict == "DISAGREE" else EXIT_OK


def cmd_enumerate(args) -> int:
    group = _group_arg(args.group)
    weights = _weights_arg(args.weights, group)
    census, ms = _timed(enumerate_extremal, group, weights, node_budget=args.node_budget)
    obj = census.to_dict()
    members = obj["members"]
    lines = [f"group: {group.spec_string}", f"weights: {weights.label()}",
             f"value: {census.value}", f"count: {len(members)}", *members]
    _emit(args, obj, ["sequence"], [[m] for m in members], lines, ms)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        group = parse_group(args.group)
    except ValueError as exc:
        # a group outside the stated hypotheses, even unparseable, is a mismatch
        raise HypothesisError(f"--group: {exc}") from exc
    weights = _weights_arg(args.weights, group) if args.weights is not None else None
    report, ms = _timed(verify_characterization, TheoremId(args.theorem), group, weights,
                        node_budget=args.node_budget)
    obj = report.to_dict()
    only = [("census", m) for m in obj["only_in_census"]] + [("predicate", m) for m in obj["only_in_predicate"]]
    lines = [f"theorem: {report.theorem.value}", f"group: {group.spec_string}",
             f"value: {report.value}", f"census: {report.census_size}",
             f"predicate: {report.predicate_size}", f"verdict: {'AGREE' if report.agree else 'DISAGREE'}",
             *(f"only in {side}: {m}" for side, m in only)]
    _emit(args, obj, ["side", "sequence"], only, lines, ms)
    return EXIT_OK if report.agree else EXIT_DISAGREE


def _family_groups(family: str, lo: int, hi: int) -> list[GroupSpec]:
    if family == "n" and lo < 2:
        raise UsageError("--range: cyclic family starts at n = 2")
    try:
        return [parse_group(f"2,{2 * n}" if family == "2,2n" else str(n)) for n in range(lo, hi + 1)]
    except GroupCeilingError as exc:
        raise UsageError(f"--range: {exc}") from exc


def cmd_table(args) -> int:
    lo, hi = _range_arg(args.range)
    kind = ConstantKind(args.kind)
    header = ["group", "weights", "value", "formula", "tag", "verdict", "nodes"]
    if args.perf:
        header.append("ms")
    obj_rows, rows = [], []
    lines = [f"{'group':<10} {'value':>6} {'formula':>9} {'tag':<28} {'verdict':<9} {'nodes':>10}"]
    exit_code = EXIT_OK
    for group in _family_groups(args.family, lo, hi):
        weights = _kind_weights(kind, args.weights, group)
        fv = formula_for(kind, group, weights)
        try:
            report, ms = _timed(compute_constant, kind, group, weights, node_budget=args.node_budget)
            value, nodes = report.value, report.nodes_visited
            verdict = _verdict(fv, value)
            if verdict == "DISAGREE":
                exit_code = EXIT_DISAGREE
        except SearchBudgetExceeded as exc:
            value, nodes, ms, verdict = None, exc.nodes, None, None
        cell = "BUDGET" if value is None else value
        obj_rows.append({"group": group.spec_string, "weights": list(weights.classes) if weights else None,
                         "value": value, "budget_exceeded": value is None, "formula": fv.to_dict(),
                         "verdict": verdict, "nodes_visited": nodes})
        rows.append([group.spec_string, weights.label() if weights else "", cell,
                     _formula_cell(fv), fv.tag or "", verdict or "", nodes])
        lines.append(f"{group.spec_string:<10} {cell:>6} {_formula_cell(fv):>9} "
                     f"{fv.tag or '':<28} {verdict or '':<9} {nodes:>10}")
        if args.perf:
            rows[-1].append("" if ms is None else ms)
            if ms is not None:
                obj_rows[-1]["wall_time_ms"] = ms
                lines[-1] += f" {ms:>10}"
    _emit(args, {"schema": 1, "type": "table", "kind": kind.value, "rows": obj_rows}, header, rows, lines)
    return exit_code


_COMMANDS = {
    "compute": cmd_compute,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "table": cmd_table,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, SearchInputError) as exc:
        print(f"zerosum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"zerosum: hypothesis mismatch: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SearchBudgetExceeded as exc:
        print(f"zerosum: node budget exceeded after {exc.nodes} nodes ({exc.phase})", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
