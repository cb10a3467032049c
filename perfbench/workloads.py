"""The benchmark's workloads: the CLI commands one pass runs, and why.

Every command runs with default engine settings (one thread, no orbit
pruning, default node budget) and ``--output json``, so its answer can be
read back and compared with the pinned one in ``answers.json``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[tuple[str, ...], ...]
    # (group, weights) pairs the seeded length_sum_table probe draws sequences over
    probe_pairs: tuple[tuple[str, str], ...]


def _cmd(*argv: str) -> tuple[str, ...]:
    return argv + ("--output", "json")


WORKLOADS = {
    "search": Workload(
        why="value searches: engine push and DFS over squarefree, multiset and "
            "coverage modes; groups and inverse stay idle",
        commands=(
            _cmd("table", "--family", "2,2n", "--range", "1:5", "--kind", "harborth", "--weights", "pm"),
            _cmd("table", "--family", "2,2n", "--range", "1:5", "--kind", "harborth", "--weights", "classic"),
            _cmd("compute", "--group", "3,6", "--kind", "egz", "--weights", "pm"),
            _cmd("compute", "--group", "2,12", "--kind", "davenport", "--weights", "classic"),
            _cmd("compute", "--group", "2,12", "--kind", "eta", "--weights", "classic"),
            _cmd("compute", "--group", "4,8", "--kind", "critical"),
        ),
        probe_pairs=tuple((f"2,{2 * n}", w) for w in ("pm", "classic") for n in range(1, 6))
        + (("3,6", "pm"), ("2,12", "classic")),
    ),
    "census": Workload(
        why="extremal censuses: exact-length engine scan that collects every hit, "
            "then re-validation of each member through sequences tables and oracles",
        commands=(
            _cmd("enumerate", "--group", "2,10", "--weights", "pm"),
            _cmd("enumerate", "--group", "2,8", "--weights", "classic"),
            _cmd("enumerate", "--group", "3,6", "--weights", "classic"),
        ),
        probe_pairs=(("2,10", "pm"), ("2,8", "classic"), ("3,6", "classic")),
    ),
    "verify": Workload(
        why="census against predicate: the predicate pass over every candidate, "
            "groups coordinate arithmetic and per-candidate basis enumeration",
        commands=(
            _cmd("verify", "--group", "2,4", "--theorem", "c2c4-pm"),
            _cmd("verify", "--group", "2,8", "--theorem", "pm-general"),
            _cmd("verify", "--group", "2,6", "--theorem", "unweighted-odd"),
            _cmd("verify", "--group", "2,8", "--theorem", "unweighted-even"),
        ),
        probe_pairs=(("2,4", "pm"), ("2,8", "pm"), ("2,6", "classic"), ("2,8", "classic")),
    ),
}

# groups the add_indices / scale_index probe draws its operands over
ADD_PROBE_GROUPS = ("2,8", "2,10")


def command_key(argv) -> str:
    """The key of a command's pinned answer in ``answers.json``."""
    return " ".join(argv)
