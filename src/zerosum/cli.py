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
Default output is byte-identical across runs; timing appears only with
--perf.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

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


def _engine_opts(args) -> dict:
    return {} if args.node_budget is None else {"node_budget": args.node_budget}


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


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _dump_csv(header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# -- subcommands -------------------------------------------------------------------


def cmd_compute(args) -> int:
    group = _group_arg(args.group)
    kind = ConstantKind(args.kind)
    if kind is ConstantKind.CRITICAL:
        if args.weights is not None:
            raise UsageError("--weights: the critical number takes no weight set")
        weights = None
    else:
        if args.weights is None:
            raise UsageError(f"--weights is required for kind {kind.value}")
        weights = _weights_arg(args.weights, group)
    report = compute_constant(kind, group, weights, **_engine_opts(args))
    fv = formula_for(kind, group, weights)
    verdict = _verdict(fv, report.value)

    if args.output == "json":
        out = report.to_dict(include_perf=args.perf)
        out["formula"] = fv.to_dict()
        out["verdict"] = verdict
        _dump_json(out)
    elif args.output == "csv":
        header = ["kind", "group", "weights", "value", "witness", "nodes",
                  "formula", "tag", "verdict"]
        row = [kind.value, group.spec_string,
               weights.label() if weights else "", report.value,
               report.witness.literal(), report.nodes_visited,
               _formula_cell(fv), fv.tag or "", verdict or ""]
        if args.perf:
            header.append("ms")
            row.append(round(report.wall_time_ms, 3))
        _dump_csv(header, [row])
    else:
        print(f"kind: {kind.value}")
        print(f"group: {group.spec_string}")
        if weights is not None:
            print(f"weights: {weights.label()} = {{{','.join(map(str, weights.classes))}}}")
        print(f"value: {report.value}")
        print(f"witness: {report.witness.literal()}")
        print(f"nodes: {report.nodes_visited}")
        if fv.applicable:
            print(f"formula: {_formula_cell(fv)} [{fv.tag}]")
            print(f"verdict: {verdict}")
        else:
            print(f"formula: n/a ({fv.reason})")
        if args.perf:
            print(f"ms: {round(report.wall_time_ms, 3)}")
    return EXIT_DISAGREE if verdict == "DISAGREE" else EXIT_OK


def cmd_enumerate(args) -> int:
    group = _group_arg(args.group)
    weights = _weights_arg(args.weights, group)
    census = enumerate_extremal(group, weights, **_engine_opts(args))
    if args.output == "json":
        _dump_json(census.to_dict())
    elif args.output == "csv":
        _dump_csv(["sequence"], [[m.literal()] for m in census.members])
    else:
        print(f"group: {group.spec_string}")
        print(f"weights: {weights.label()}")
        print(f"value: {census.value}")
        print(f"count: {len(census.members)}")
        for m in census.members:
            print(m.literal())
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        group = parse_group(args.group)
    except ValueError as exc:
        # a group outside the stated hypotheses, even unparseable, is a mismatch
        raise HypothesisError(f"--group: {exc}") from exc
    weights = _weights_arg(args.weights, group) if args.weights is not None else None
    report = verify_characterization(TheoremId(args.theorem), group, weights,
                                     **_engine_opts(args))
    if args.output == "json":
        _dump_json(report.to_dict())
    elif args.output == "csv":
        rows = [["census", m] for m in report.to_dict()["only_in_census"]]
        rows += [["predicate", m] for m in report.to_dict()["only_in_predicate"]]
        _dump_csv(["side", "sequence"], rows)
    else:
        print(f"theorem: {report.theorem.value}")
        print(f"group: {group.spec_string}")
        print(f"value: {report.value}")
        print(f"census: {report.census_size}")
        print(f"predicate: {report.predicate_size}")
        print(f"verdict: {'AGREE' if report.agree else 'DISAGREE'}")
        for m in report.only_in_census:
            print(f"only in census: {m.literal()}")
        for m in report.only_in_predicate:
            print(f"only in predicate: {m.literal()}")
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
    if kind is ConstantKind.CRITICAL and args.weights is not None:
        raise UsageError("--weights: the critical number takes no weight set")
    if kind is not ConstantKind.CRITICAL and args.weights is None:
        raise UsageError(f"--weights is required for kind {kind.value}")
    opts = _engine_opts(args)

    rows = []
    exit_code = EXIT_OK
    for group in _family_groups(args.family, lo, hi):
        weights = _weights_arg(args.weights, group) if args.weights is not None else None
        fv = formula_for(kind, group, weights)
        try:
            report = compute_constant(kind, group, weights, **opts)
            value, nodes, ms = report.value, report.nodes_visited, report.wall_time_ms
            verdict = _verdict(fv, value)
            if verdict == "DISAGREE":
                exit_code = EXIT_DISAGREE
        except SearchBudgetExceeded as exc:
            value, nodes, ms, verdict = None, exc.nodes, None, None
        rows.append((group, weights, value, fv, verdict, nodes, ms))

    if args.output == "json":
        out_rows = []
        for group, weights, value, fv, verdict, nodes, ms in rows:
            row = {
                "group": group.spec_string,
                "weights": list(weights.classes) if weights else None,
                "value": value,
                "budget_exceeded": value is None,
                "formula": fv.to_dict(),
                "verdict": verdict,
                "nodes_visited": nodes,
            }
            if args.perf and ms is not None:
                row["wall_time_ms"] = round(ms, 3)
            out_rows.append(row)
        _dump_json({"schema": 1, "type": "table", "kind": kind.value, "rows": out_rows})
    elif args.output == "csv":
        header = ["group", "weights", "value", "formula", "tag", "verdict", "nodes"]
        if args.perf:
            header.append("ms")
        out_rows = []
        for group, weights, value, fv, verdict, nodes, ms in rows:
            row = [group.spec_string, weights.label() if weights else "",
                   "BUDGET" if value is None else value,
                   _formula_cell(fv), fv.tag or "", verdict or "", nodes]
            if args.perf:
                row.append("" if ms is None else round(ms, 3))
            out_rows.append(row)
        _dump_csv(header, out_rows)
    else:
        print(f"{'group':<10} {'value':>6} {'formula':>9} {'tag':<28} {'verdict':<9} {'nodes':>10}")
        for group, weights, value, fv, verdict, nodes, ms in rows:
            cell = "BUDGET" if value is None else str(value)
            line = (f"{group.spec_string:<10} {cell:>6} {_formula_cell(fv):>9} "
                    f"{fv.tag or '':<28} {verdict or '':<9} {nodes:>10}")
            if args.perf and ms is not None:
                line += f" {round(ms, 3):>10}"
            print(line)
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
        print(f"zerosum: node budget exceeded after {exc.nodes} nodes", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
