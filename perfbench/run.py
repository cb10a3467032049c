"""End-to-end and per-layer benchmark of the zerosum CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Every command of the workload goes through ``zerosum.cli.main(argv)`` in
this process, one after another (a single-client closed loop, no extra
threads).  The seed shuffles the command order within each pass and draws
the inputs of the layer probes; the program only ever sees the argv lists.
Each answer is compared with the one pinned in ``answers.json``.

With ``--trace 0`` the run times passes until ``--seconds`` have gone by,
at least two, and reports the end-to-end metrics.  With ``--trace 1`` it
times the same untraced passes, then one pass with the span recorder
installed, then the seeded layer probes, and reports the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import UNITS, Recorder, layer_metrics
from workloads import ADD_PROBE_GROUPS, WORKLOADS, command_key

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
MIN_PASSES = 2
PUSH_PROBE_SEQUENCES = 40  # per (group, weights) pair
ADD_PROBE_OPERANDS = 20_000  # per group


class Failure(Exception):
    """A command's exit code or answer differs from the pinned one."""


def program_root() -> Path:
    """The checkout the benchmark runs in; refuses one without the program."""
    root = Path.cwd().resolve()
    if not (root / "src" / "zerosum" / "cli.py").is_file():
        sys.exit(f"perfbench: no src/zerosum/cli.py under {root}; run from the root of a zerosum checkout")
    return root


def import_cli(root: Path, workload):
    """Import ``zerosum.cli`` afresh and build the argv lists; returns both."""
    for name in [m for m in sys.modules if m == "zerosum" or m.startswith("zerosum.")]:
        del sys.modules[name]
    import zerosum.cli as cli

    if Path(cli.__file__).resolve().parent != root / "src" / "zerosum":
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's own src/zerosum")
    return cli, [list(argv) for argv in workload.commands]


def measure_setup(root: Path, workload):
    """Median over several fresh imports; the last import is the one timed."""
    sys.path.insert(0, str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli, commands = import_cli(root, workload)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), cli, commands


def answer_of(argv, stdout: str) -> dict:
    """The parts of a command's JSON output that make up its exact answer."""
    out = json.loads(stdout)
    if argv[0] == "compute":
        return {k: out[k] for k in ("value", "witness", "formula", "verdict")}
    if argv[0] == "table":
        keys = ("group", "weights", "value", "budget_exceeded", "formula", "verdict")
        return {"rows": [{k: row[k] for k in keys} for row in out["rows"]]}
    if argv[0] == "enumerate":
        members = "\n".join(sorted(out["members"])).encode()
        return {"value": out["value"], "count": out["count"],
                "members_sha256": hashlib.sha256(members).hexdigest()}
    if argv[0] == "verify":
        keys = ("value", "census_size", "predicate_size", "agree", "only_in_census", "only_in_predicate")
        return {k: out[k] for k in keys}
    raise ValueError(f"no answer reader for subcommand {argv[0]!r}")


def run_command(main, argv) -> tuple[float, int | str | None, str, str]:
    """Call ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


def check(argv, code, stdout, stderr, pins) -> None:
    if code != 0:
        raise Failure(f"exit code {code}: {stderr.strip()}")
    got = answer_of(argv, stdout)
    want = pins[command_key(argv)]
    if got != want:
        raise Failure(f"answer {got} differs from pinned {want}")


def run_pass(main, commands, pins, rng) -> tuple[float, int]:
    """One pass over the commands in seeded order; returns (wall seconds, failures).

    Only the ``main`` calls are timed, not the answer checks.
    """
    order = list(commands)
    rng.shuffle(order)
    wall, failed = 0.0, 0
    for argv in order:
        try:
            elapsed, code, stdout, stderr = run_command(main, argv)
            wall += elapsed
            check(argv, code, stdout, stderr, pins)
        except Exception:
            failed += 1
            print(f"perfbench: FAILED {command_key(argv)}", file=sys.stderr)
            traceback.print_exc()
    return wall, failed


def timed_passes(main, commands, pins, rng, seconds: float):
    """Passes until ``seconds`` of measurement have gone by, at least two."""
    walls, failed = [], 0
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, f = run_pass(main, commands, pins, rng)
        walls.append(wall)
        failed += f
    return walls, failed


# -- seeded layer probes (public functions only) -----------------------------------


def probe_pushes_per_s(pairs, rng) -> float:
    """Terms pushed per second by ``length_sum_table`` on random sequences."""
    from zerosum.groups import parse_group
    from zerosum.sequences import Sequence, WeightSet, length_sum_table

    jobs = []
    for spec, w in pairs:
        group = parse_group(spec)
        weights = WeightSet.parse(w, group.exponent)
        length = group.exponent + 2
        for _ in range(PUSH_PROBE_SEQUENCES):
            idxs = sorted(rng.randrange(group.order) for _ in range(length))
            jobs.append((Sequence.from_indices(group, idxs), weights, group.exponent))
        length_sum_table(*jobs[-1])  # let lazily built group tables fill
    t0 = time.perf_counter()
    for seq, weights, cap in jobs:
        length_sum_table(seq, weights, cap)
    elapsed = time.perf_counter() - t0
    return sum(seq.length for seq, _, _ in jobs) / elapsed


def probe_add_per_s(rng) -> float:
    """``add_indices`` plus ``scale_index`` calls per second."""
    from zerosum.groups import parse_group

    jobs = []
    for spec in ADD_PROBE_GROUPS:
        group = parse_group(spec)
        n, e = group.order, group.exponent
        operands = [(rng.randrange(n), rng.randrange(n), rng.randrange(2, e)) for _ in range(ADD_PROBE_OPERANDS)]
        group.add_indices(0, 0)  # let lazily built group tables fill
        group.scale_index(1, 0)
        jobs.append((group, operands))
    t0 = time.perf_counter()
    for group, operands in jobs:
        add, scale = group.add_indices, group.scale_index
        for i, j, k in operands:
            add(i, j)
            scale(k, i)
    elapsed = time.perf_counter() - t0
    return 2 * sum(len(ops) for _, ops in jobs) / elapsed


# -- entry point ---------------------------------------------------------------


def tail_percentile(samples) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return "no percentile has 10 samples beyond it below 11 passes"
    return f"p{100 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f} s"


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = program_root()
    workload = WORKLOADS[args.workload]
    pins = json.loads((HERE / "answers.json").read_text())
    rng = random.Random(args.seed)
    os.environ.pop("ZEROSUM_THREADS", None)  # default engine settings: one thread

    setup_s, cli, commands = measure_setup(root, workload)
    walls, failed = timed_passes(cli.main, commands, pins, rng, args.seconds)
    attempted = len(walls) * len(commands)
    wall_s = statistics.median(walls)
    print(f"{args.workload} seed {args.seed}: wall_s median {wall_s:.4f} s over {len(walls)} untraced passes "
          f"({' '.join(f'{w:.4f}' for w in walls)}); {tail_percentile(walls)}")

    if args.trace:
        rec = Recorder()
        missing = rec.install()
        for target in missing:
            print(f"perfbench: trace target {target} is gone; its metrics read 0", file=sys.stderr)
        try:
            traced_wall, f = run_pass(rec.wrap(cli.main, "cli.main"), commands, pins, rng)
        finally:
            rec.uninstall()
        failed += f
        attempted += len(commands)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        rec.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        layers = layer_metrics(rec.spans)
        probe_rng = random.Random(args.seed)  # probe inputs must not depend on the pass count
        layers["sequences.pushes_per_s"] = probe_pushes_per_s(workload.probe_pairs, probe_rng)
        layers["groups.add_per_s"] = probe_add_per_s(probe_rng)
        layers["trace.overhead_s"] = traced_wall - wall_s
        metrics = {name: metric(layers[name], unit) for name, unit in UNITS.items()}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    print(f"failed_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} commands failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
