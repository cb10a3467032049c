"""Self-test of the benchmark.  Run from the root of the checkout:

    python3 perfbench/selftest.py

It checks that
- the pinned answers agree with ``zerosum.formulas.formula_for`` and with
  the values and census sizes pinned in ``tests/test_acceptance.py``;
- ``BENCHMARK.json`` names the workloads and per-layer metrics the code has;
- a tampered value, witness or census digest counts as a failed command;
- two seeds give correct answers and the same ``engine.nodes``,
  ``inverse.candidates`` and ``groups.bases_calls`` on every workload;
- ``run.py`` exits non-zero, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and the benchmark's own files.

It takes a few minutes: the seed check makes two traced runs per workload.
"""

from __future__ import annotations

import ast
import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run
from report import run_once
from spans import UNITS
from workloads import WORKLOADS, command_key

EXACT_COUNTS = ("engine.nodes", "inverse.candidates", "groups.bases_calls")


def acceptance_pins(path: Path):
    """Criterion 1 and 2 value lists and the criterion 8 census sizes."""
    tree = ast.parse(path.read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def value_list(name):
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Compare) and isinstance(node.comparators[0], ast.List):
                return ast.literal_eval(node.comparators[0])
        raise LookupError(f"no value list in {name}")

    sizes = {}
    for node in ast.walk(funcs["test_criterion_08_characterizations"]):
        if isinstance(node, ast.Assign) and node.targets[0].id == "instances":
            for theorem, spec, size in (e.elts for e in node.value.elts):
                sizes[(theorem.attr, spec.value)] = size.value
    return value_list("test_criterion_01_squarefree_pm_values"), \
        value_list("test_criterion_02_squarefree_classic_values"), sizes


def check_pins(root: Path, pins: dict) -> None:
    from zerosum.cli import build_parser
    from zerosum.engine import ConstantKind
    from zerosum.formulas import formula_for
    from zerosum.groups import parse_group
    from zerosum.inverse import TheoremId
    from zerosum.sequences import WeightSet

    pm_values, classic_values, sizes = acceptance_pins(root / "tests" / "test_acceptance.py")
    table_values = {"pm": pm_values, "classic": classic_values}

    def formula_ok(kind, group, weights, value, formula, verdict):
        fv = formula_for(kind, group, weights)
        assert fv.to_dict() == formula, (group, formula)
        if fv.applicable:
            assert fv.matches(value) and verdict == "AGREE", (group, value, fv)

    def theorem_of(spec, weights):
        n = parse_group(spec).shape_2x2n()
        if weights == "pm":
            return TheoremId.PM_GENERAL
        return TheoremId.UNWEIGHTED_EVEN if n % 2 == 0 else TheoremId.UNWEIGHTED_ODD

    for workload in WORKLOADS.values():
        for argv in workload.commands:
            pin = pins[command_key(argv)]
            args = build_parser().parse_args(argv)
            if args.command == "compute":
                group = parse_group(args.group)
                weights = WeightSet.parse(args.weights, group.exponent) if args.weights else None
                formula_ok(ConstantKind(args.kind), group, weights, pin["value"], pin["formula"], pin["verdict"])
            elif args.command == "table":
                assert [r["value"] for r in pin["rows"]] == table_values[args.weights]
                for row in pin["rows"]:
                    group = parse_group(row["group"])
                    weights = WeightSet.parse(args.weights, group.exponent)
                    formula_ok(ConstantKind(args.kind), group, weights, row["value"], row["formula"], row["verdict"])
            elif args.command == "enumerate":
                if parse_group(args.group).shape_2x2n():
                    key = (theorem_of(args.group, args.weights).name, args.group)
                    assert pin["count"] == sizes[key], (argv, pin["count"])
            else:
                assert pin["agree"] and pin["census_size"] == pin["predicate_size"]
                assert pin["census_size"] == sizes[(TheoremId(args.theorem).name, args.group)], argv


def check_benchmark_json(root: Path) -> None:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == UNITS
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]


def check_tampering(root: Path, pins: dict) -> None:
    """Each tampered pin makes its command fail; the untouched pins pass."""
    cli, _ = run.import_cli(root, WORKLOADS["search"])
    compute = ["compute", "--group", "4,8", "--kind", "critical", "--output", "json"]
    census = ["enumerate", "--group", "3,6", "--weights", "classic", "--output", "json"]
    tampers = [
        (compute, "value", pins[command_key(compute)]["value"] + 1),
        (compute, "witness", "(1,0)"),
        (census, "members_sha256", "0" * 64),
    ]
    rng = random.Random(0)
    _, failed = run.run_pass(cli.main, [compute, census], pins, rng)
    assert failed == 0, "untampered pins must pass"
    for argv, field, value in tampers:
        bad = copy.deepcopy(pins)
        bad[command_key(argv)][field] = value
        _, failed = run.run_pass(cli.main, [argv], bad, rng)
        assert failed == 1, f"tampered {field} did not fail"
        print(f"tampered {field}: failed_ratio 1.0", flush=True)


def check_seeds(root: Path) -> None:
    for workload in WORKLOADS:
        a, b = (run_once(root, workload, seed, 1, trace=1) for seed in (1, 2))
        for r in (a, b):
            assert r["correct"] and r["failed"] == 0, (workload, r)
        counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in (a, b)]
        assert counts[0] == counts[1], (workload, counts)
        print(f"{workload}: seeds 1 and 2 agree on {counts[0]}", flush=True)


def check_bare_directory(root: Path) -> None:
    bare = root / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"bare directory: exit {proc.returncode}, no result printed", flush=True)


def main() -> int:
    root = run.program_root()
    sys.path.insert(0, str(root / "src"))
    pins = json.loads((run.HERE / "answers.json").read_text())
    check_pins(root, pins)
    print("pins agree with formula_for and tests/test_acceptance.py", flush=True)
    check_benchmark_json(root)
    check_tampering(root, pins)
    check_bare_directory(root)
    check_seeds(root)
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
