"""CLI behavior: outputs, exit codes, reproducibility."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import zerosum
from zerosum import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- import ------------------------------------------------------------------------

_IMPORT_RUN = textwrap.dedent("""
    import contextlib, io, json, sys
    import zerosum.cli as cli
    from zerosum import engine, groups

    def sizes():
        return {f"{f.__module__}.{f.__qualname__}": f.cache_info().currsize
                for name, module in list(sys.modules.items()) if name.startswith("zerosum")
                for f in vars(module).values() if hasattr(f, "cache_info")}

    after_import = sizes()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["enumerate", "--group", "2,8", "--weights", "classic"]),
                 cli.main(["enumerate", "--group", "3,6", "--weights", "classic"]),
                 cli.main(["verify", "--group", "2,6", "--theorem", "pm-general"])]
    census = {f.__qualname__: f.cache_info().currsize for f in (groups.symmetries, engine._plan)}
    print(json.dumps([after_import, codes, census]))
""")


def test_import_does_no_work():
    # a fresh import fills no cache, and a census builds no symmetries and
    # no plan: both are a value search's, built on its first use; the
    # censuses cover the complement listing with k = 1 (2,8 classic) and
    # with k = 2, refuting exp + 3 as it lists (3,6 classic), and the class
    # walk
    src = str(Path(zerosum.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_RUN], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    after_import, codes, census = json.loads(proc.stdout)
    assert len(after_import) == 10 and set(after_import.values()) == {0}
    assert "zerosum.groups.symmetries" in after_import and "zerosum.engine._plan" in after_import
    assert codes == [0, 0, 0]
    assert census == {"symmetries": 0, "_plan": 0}


# -- compute -----------------------------------------------------------------------


def test_compute_text_agree(capsys):
    code, out, _ = run(capsys, "compute", "--group", "2,6", "--weights", "pm",
                       "--kind", "harborth")
    assert code == 0
    assert "value: 8" in out
    assert "formula: 8 [harborth-rank2-pm]" in out
    assert "verdict: AGREE" in out


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--group", "2,4", "--weights", "pm",
                       "--kind", "egz", "--output", "json")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["value"] == 7
    assert d["formula"]["tag"] == "egz-pm-rank2"
    assert d["verdict"] == "AGREE"
    assert "wall_time_ms" not in d


def test_compute_perf_adds_timing(capsys):
    code, out, _ = run(capsys, "compute", "--group", "6", "--weights", "pm",
                       "--kind", "harborth", "--output", "json", "--perf")
    assert code == 0
    assert "wall_time_ms" in json.loads(out)
    # text gains one ms line and csv one ms column; the rest stays as is
    argv = ("compute", "--group", "2,6", "--weights", "pm", "--kind", "harborth")
    _, plain, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--perf")
    assert code == 0
    assert out.startswith(plain)
    assert re.fullmatch(r"ms: \d+\.?\d*\n", out[len(plain):])
    assert "ms:" not in plain
    _, plain, _ = run(capsys, *argv, "--output", "csv")
    code, out, _ = run(capsys, *argv, "--output", "csv", "--perf")
    assert code == 0
    (plain_header, plain_row), (header, row) = plain.splitlines(), out.splitlines()
    assert header == plain_header + ",ms"
    assert not plain_header.endswith(",ms")
    assert row.startswith(plain_row + ",")
    assert float(row[len(plain_row) + 1:]) >= 0


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--group", "2,6", "--weights", "classic",
                       "--kind", "harborth", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,group,weights,value,witness,nodes,formula,tag,verdict"
    assert lines[1].startswith('harborth,"2,6",classic,9,')


def test_compute_all_unit_weights_on_c12_finishes(capsys):
    started = time.perf_counter()
    code, out, _ = run(capsys, "compute", "--group", "12", "--kind", "egz", "--weights", "1,5,7,11")
    assert time.perf_counter() - started < 1
    assert code == 0
    assert "value: 15\nwitness: (0)^11;(1);(2);(4)\n" in out


def test_compute_critical_needs_no_weights(capsys):
    code, out, _ = run(capsys, "compute", "--group", "6", "--kind", "critical")
    assert code == 0
    assert "value: 4" in out


def test_compute_formula_not_applicable(capsys):
    code, out, _ = run(capsys, "compute", "--group", "7", "--weights", "classic",
                       "--kind", "davenport")
    assert code == 0
    assert "value: 7" in out
    assert "formula: n/a" in out
    assert "verdict" not in out


def test_compute_disagree_exits_2(capsys, monkeypatch):
    from zerosum.formulas import FormulaValue

    monkeypatch.setattr(cli, "formula_for",
                        lambda kind, group, weights: FormulaValue.point("stub", 99))
    code, out, _ = run(capsys, "compute", "--group", "6", "--weights", "pm",
                       "--kind", "harborth")
    assert code == 2
    assert "verdict: DISAGREE" in out


def test_compute_interval_formula(capsys):
    # 3,3 pm has only log bounds, and the value 3 lies inside them
    code, out, _ = run(capsys, "compute", "--group", "3,3", "--kind", "davenport", "--weights", "pm")
    assert code == 0
    assert "value: 3\n" in out and "nodes: 5\n" in out
    assert "formula: 3..4 [davenport-pm-log-bounds]\nverdict: AGREE\n" in out


# -- usage and budget errors ---------------------------------------------------------


def test_bad_group_exits_64(capsys):
    code, _, err = run(capsys, "compute", "--group", "2,x", "--weights", "pm",
                       "--kind", "harborth")
    assert code == 64
    assert "--group" in err


def test_bad_weights_exits_64(capsys):
    code, _, err = run(capsys, "compute", "--group", "6", "--weights", "x",
                       "--kind", "harborth")
    assert code == 64
    assert "--weights" in err


def test_missing_weights_exits_64(capsys):
    code, _, err = run(capsys, "compute", "--group", "6", "--kind", "eta")
    assert code == 64
    assert "--weights" in err


def test_critical_with_weights_exits_64(capsys):
    code, _, err = run(capsys, "compute", "--group", "6", "--kind", "critical",
                       "--weights", "pm")
    assert code == 64
    assert "--weights" in err


def test_unknown_kind_exits_64(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["compute", "--group", "6", "--kind", "nope"])
    assert ei.value.code == 64


def test_no_command_exits_64():
    with pytest.raises(SystemExit) as ei:
        cli.main([])
    assert ei.value.code == 64


def test_budget_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "compute", "--group", "2,8", "--weights", "pm",
                       "--kind", "harborth", "--node-budget", "100")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("command, phase", [
    ("compute --group 2,8 --weights pm --kind harborth --node-budget 0", "1 nodes (job 1 of 31)"),
    ("compute --group 2,8 --weights pm --kind harborth --node-budget 500", "501 nodes (witness probe)"),
    ("enumerate --group 2,8 --weights pm --node-budget 50", "51 nodes (class walk)"),
    ("verify --group 2,8 --theorem pm-general --node-budget 50", "51 nodes (class walk)"),
])
def test_budget_abort_names_its_phase(capsys, command, phase):
    # stderr names the part of the search the budget ran out in; stdout is empty
    assert run(capsys, *command.split()) == (3, "", f"zerosum: node budget exceeded after {phase}\n")


def test_critical_on_too_small_group_exits_64(capsys):
    code, _, err = run(capsys, "compute", "--group", "2", "--kind", "critical")
    assert code == 64
    assert err.startswith("zerosum: error:") and "|G| >= 3" in err


def test_table_critical_too_small_group_exits_64(capsys):
    code, _, err = run(capsys, "table", "--family", "n", "--range", "2:3", "--kind", "critical")
    assert code == 64
    assert err.startswith("zerosum: error:")


def test_negative_node_budget_exits_64(capsys):
    code, _, err = run(capsys, "compute", "--group", "6", "--weights", "pm",
                       "--kind", "harborth", "--node-budget", "-1")
    assert code == 64
    assert err.startswith("zerosum: error:") and "node budget" in err


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--orbit-pruning"]],
                         ids=["threads", "orbit-pruning"])
def test_removed_run_flags_exit_64(capsys, flag):
    with pytest.raises(SystemExit) as ei:
        cli.main(["compute", "--group", "6", "--weights", "pm", "--kind", "harborth", *flag])
    assert ei.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_internal_check_error_is_not_a_usage_error(capsys, monkeypatch):
    from zerosum.engine import InternalCheckError

    def broken(*args, **kwargs):
        raise InternalCheckError("internal check failed: stub")

    monkeypatch.setattr(cli, "compute_constant", broken)
    with pytest.raises(InternalCheckError):
        cli.main(["compute", "--group", "6", "--weights", "pm", "--kind", "harborth"])


# -- verify ------------------------------------------------------------------------


def test_verify_agree(capsys):
    code, out, _ = run(capsys, "verify", "--group", "2,6", "--theorem", "pm-general")
    assert code == 0
    assert "census: 36" in out
    assert "predicate: 36" in out
    assert "verdict: AGREE" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--group", "2,4", "--theorem", "c2c4-pm",
                       "--output", "json")
    assert code == 0
    d = json.loads(out)
    assert d["agree"] is True
    assert d["census_size"] == 48
    assert d["only_in_census"] == []


def test_verify_broken_chain_exits_65(capsys):
    code, _, err = run(capsys, "verify", "--group", "2,5", "--theorem", "pm-general")
    assert code == 65
    assert "hypothesis mismatch" in err


def test_verify_wrong_parity_exits_65(capsys):
    code, _, err = run(capsys, "verify", "--group", "2,8", "--theorem", "unweighted-odd")
    assert code == 65


def test_verify_full_group_needs_weights(capsys):
    code, _, err = run(capsys, "verify", "--group", "2,2", "--theorem", "full-group")
    assert code == 65
    code, out, _ = run(capsys, "verify", "--group", "2,2", "--theorem", "full-group",
                       "--weights", "classic")
    assert code == 0
    assert "census: 1" in out


# -- enumerate ----------------------------------------------------------------------


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "2,4", "--weights", "pm")
    assert code == 0
    lines = out.splitlines()
    assert "count: 48" in lines
    assert lines[-1].count(";") == 3


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "2,4", "--weights", "pm",
                       "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sequence"
    assert len(lines) == 49


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "2,4", "--weights", "pm",
                       "--output", "json")
    d = json.loads(out)
    assert d["type"] == "extremal_census"
    assert d["count"] == 48


@pytest.mark.parametrize("argv", [("enumerate", "--group", "2,4", "--weights", "pm"),
                                  ("verify", "--group", "2,6", "--theorem", "pm-general")])
def test_enumerate_and_verify_perf_add_timing(capsys, argv):
    # JSON gains wall_time_ms, text a last ms line, CSV an ms column; the rest
    # is the flagless output
    _, plain, _ = run(capsys, *argv, "--output", "json")
    code, out, _ = run(capsys, *argv, "--output", "json", "--perf")
    assert code == 0
    d = json.loads(out)
    assert d.pop("wall_time_ms") >= 0
    assert d == json.loads(plain)
    assert "wall_time_ms" not in plain

    _, plain, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--perf")
    assert code == 0
    assert out.startswith(plain)
    assert re.fullmatch(r"ms: \d+\.?\d*\n", out[len(plain):])
    assert "ms:" not in plain

    _, plain, _ = run(capsys, *argv, "--output", "csv")
    code, out, _ = run(capsys, *argv, "--output", "csv", "--perf")
    assert code == 0
    (plain_header, *plain_rows), (header, *rows) = (list(csv.reader(io.StringIO(t))) for t in (plain, out))
    assert header == plain_header + ["ms"]
    assert "ms" not in plain_header
    assert len({row[-1] for row in rows}) == 1 and float(rows[0][-1]) >= 0
    if plain_rows:  # the 48 members of the 2,4 census
        assert [row[:-1] for row in rows] == plain_rows
    else:  # an agreeing verify lists nothing, so one row holds only the time
        assert rows[0][:-1] == ["", ""] and len(rows) == 1


# -- table -------------------------------------------------------------------------


def test_table_rank2_pm_values(capsys):
    code, out, _ = run(capsys, "table", "--family", "2,2n", "--range", "1:4",
                       "--kind", "harborth", "--weights", "pm")
    assert code == 0
    values = [line.split()[1] for line in out.splitlines()[1:]]
    assert values == ["5", "5", "8", "10"]
    assert out.count("AGREE") == 4


def test_table_budget_cell_does_not_fail_run(capsys):
    code, out, _ = run(capsys, "table", "--family", "2,2n", "--range", "1:3",
                       "--kind", "harborth", "--weights", "pm",
                       "--node-budget", "150")  # 2,6 takes 154 nodes
    assert code == 0
    assert "BUDGET" in out


def test_table_budget_is_per_row(capsys):
    # each row fits 600 nodes (2,8 takes 513) while the four together take 702
    code, out, _ = run(capsys, "table", "--family", "2,2n", "--range", "1:4",
                       "--kind", "harborth", "--weights", "pm",
                       "--node-budget", "600", "--output", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    nodes = [r["nodes_visited"] for r in rows]
    assert not any(r["budget_exceeded"] for r in rows)
    assert max(nodes) <= 600 < sum(nodes) == 702


def test_table_csv_columns(capsys):
    code, out, _ = run(capsys, "table", "--family", "n", "--range", "3:5",
                       "--kind", "harborth", "--weights", "classic",
                       "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,weights,value,formula,tag,verdict,nodes"
    assert len(lines) == 4


def test_table_json_schema(capsys):
    code, out, _ = run(capsys, "table", "--family", "2,2n", "--range", "2:3",
                       "--kind", "davenport", "--weights", "pm",
                       "--output", "json")
    d = json.loads(out)
    assert d["schema"] == 1
    assert [r["value"] for r in d["rows"]] == [4, 4]
    assert all(r["verdict"] == "AGREE" for r in d["rows"])


_BUDGET_TABLE = ("table", "--family", "2,2n", "--range", "1:4", "--kind", "harborth",
                 "--weights", "pm", "--node-budget", "300")  # 2,8 takes 532 nodes


def test_table_perf_times_each_searched_row(capsys):
    _, plain, _ = run(capsys, *_BUDGET_TABLE, "--output", "json")
    code, out, _ = run(capsys, *_BUDGET_TABLE, "--output", "json", "--perf")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["budget_exceeded"] for r in rows] == [False, False, False, True]
    assert all(r["wall_time_ms"] >= 0 for r in rows[:3])
    assert "wall_time_ms" not in rows[3]
    assert "wall_time_ms" not in plain
    for r in rows[:3]:
        del r["wall_time_ms"]
    assert rows == json.loads(plain)["rows"]

    _, plain, _ = run(capsys, *_BUDGET_TABLE, "--output", "csv")
    code, out, _ = run(capsys, *_BUDGET_TABLE, "--output", "csv", "--perf")
    assert code == 0
    plain_lines, lines = plain.splitlines(), out.splitlines()
    assert lines[0] == plain_lines[0] + ",ms"
    assert not plain_lines[0].endswith(",ms")
    cells = []
    for line, plain_line in zip(lines[1:], plain_lines[1:], strict=True):
        assert line.startswith(plain_line + ",")
        cells.append(line[len(plain_line) + 1:])
    assert cells[3] == ""  # the BUDGET row
    assert all(float(c) >= 0 for c in cells[:3])

    _, plain, _ = run(capsys, *_BUDGET_TABLE)
    code, out, _ = run(capsys, *_BUDGET_TABLE, "--perf")
    assert code == 0
    plain_lines, lines = plain.splitlines(), out.splitlines()
    assert lines[0] == plain_lines[0]
    for line, plain_line in zip(lines[1:4], plain_lines[1:4], strict=True):
        assert line.startswith(plain_line)
        assert re.fullmatch(r" +\d+\.?\d*", line[len(plain_line):])
        assert len(line) == len(plain_line) + 11
    assert "BUDGET" in lines[4] and lines[4] == plain_lines[4]


def test_table_disagree_exits_2(capsys, monkeypatch):
    from zerosum.formulas import FormulaValue

    monkeypatch.setattr(cli, "formula_for",
                        lambda kind, group, weights: FormulaValue.point("stub", 5))
    code, out, _ = run(capsys, "table", "--family", "2,2n", "--range", "1:3",
                       "--kind", "harborth", "--weights", "pm")
    assert code == 2
    assert [line.split()[4] for line in out.splitlines()[1:]] == ["AGREE", "AGREE", "DISAGREE"]


def test_table_bad_range_exits_64(capsys):
    code, _, err = run(capsys, "table", "--family", "2,2n", "--range", "5",
                       "--kind", "harborth", "--weights", "pm")
    assert code == 64
    assert "--range" in err
    code, _, err = run(capsys, "table", "--family", "2,2n", "--range", "3:2",
                       "--kind", "harborth", "--weights", "pm")
    assert code == 64
    code, _, err = run(capsys, "table", "--family", "2,2n", "--range", "a:3",
                       "--kind", "harborth", "--weights", "pm")
    assert code == 64
    assert "--range" in err


def test_table_cyclic_range_floor(capsys):
    code, _, err = run(capsys, "table", "--family", "n", "--range", "1:3",
                       "--kind", "harborth", "--weights", "classic")
    assert code == 64
    assert "--range" in err


@pytest.mark.parametrize("family,rng", [("2,2n", "33:34"), ("n", "65:66"), ("2,2n", "16:10000000000")])
def test_table_range_past_order_ceiling_exits_64(capsys, family, rng):
    code, out, err = run(capsys, "table", "--family", family, "--range", rng,
                         "--kind", "harborth", "--weights", "classic")
    assert code == 64
    assert "--range" in err and "ceiling" in err
    assert out == ""


# -- full output bytes ---------------------------------------------------------------

# (command, exit code, stdout, stderr) of one command per subcommand in json and
# csv, a table with a BUDGET row, a verify refused with 65, one --perf case
# per format with each time written as <ms>, and two classic censuses listed
# by complements: nodes are one per member (18 on 2,6, where the listing
# also refutes exp + 3, and 16 on 2,4); the class walk took 613 and 115
_PINNED_OUTPUT = [
    ('compute --group 2,6 --weights pm --kind harborth --output json', 0, '{"formula": {"applicable": true, "hi": 8, "lo": 8, "tag": "harborth-rank2-pm", "value": 8}, "group": "2,6", "kind": "harborth", "nodes_visited": 154, "schema": 1, "type": "search_report", "value": 8, "verdict": "AGREE", "weights": [1, 5], "witness": "(0,0);(1,0);(0,1);(0,2);(1,2);(0,4);(1,4)"}\n', ''),
    ('compute --group 2,6 --weights pm --kind harborth --output csv', 0, 'kind,group,weights,value,witness,nodes,formula,tag,verdict\nharborth,"2,6",pm,8,"(0,0);(1,0);(0,1);(0,2);(1,2);(0,4);(1,4)",154,8,harborth-rank2-pm,AGREE\n', ''),
    ('enumerate --group 4 --weights pm --output json', 0, '{"count": 4, "group": "4", "members": ["(0);(1);(2)", "(0);(1);(3)", "(0);(2);(3)", "(1);(2);(3)"], "nodes_visited": 10, "schema": 1, "type": "extremal_census", "value": 4, "weights": [1, 3]}\n', ''),
    ('enumerate --group 4 --weights pm --output csv', 0, 'sequence\n(0);(1);(2)\n(0);(1);(3)\n(0);(2);(3)\n(1);(2);(3)\n', ''),
    ('verify --group 2,6 --theorem pm-general --output json', 0, '{"agree": true, "census_size": 36, "group": "2,6", "nodes_visited": 302, "only_in_census": [], "only_in_predicate": [], "predicate_size": 36, "schema": 1, "theorem": "pm-general", "type": "characterization_report", "value": 8, "weights": [1, 5]}\n', ''),
    ('verify --group 2,6 --theorem pm-general --output csv', 0, 'side,sequence\n', ''),
    ('table --family 2,2n --range 1:4 --kind harborth --weights pm --node-budget 300 --output json', 0, '{"kind": "harborth", "rows": [{"budget_exceeded": false, "formula": {"applicable": true, "hi": 5, "lo": 5, "tag": "harborth-elementary2", "value": 5}, "group": "2,2", "nodes_visited": 8, "value": 5, "verdict": "AGREE", "weights": [1]}, {"budget_exceeded": false, "formula": {"applicable": true, "hi": 5, "lo": 5, "tag": "harborth-rank2-pm", "value": 5}, "group": "2,4", "nodes_visited": 27, "value": 5, "verdict": "AGREE", "weights": [1, 3]}, {"budget_exceeded": false, "formula": {"applicable": true, "hi": 8, "lo": 8, "tag": "harborth-rank2-pm", "value": 8}, "group": "2,6", "nodes_visited": 154, "value": 8, "verdict": "AGREE", "weights": [1, 5]}, {"budget_exceeded": true, "formula": {"applicable": true, "hi": 10, "lo": 10, "tag": "harborth-rank2-pm", "value": 10}, "group": "2,8", "nodes_visited": 301, "value": null, "verdict": null, "weights": [1, 7]}], "schema": 1, "type": "table"}\n', ''),
    ('table --family 2,2n --range 1:4 --kind harborth --weights pm --node-budget 300 --output csv', 0, 'group,weights,value,formula,tag,verdict,nodes\n"2,2",classic,5,5,harborth-elementary2,AGREE,8\n"2,4",pm,5,5,harborth-rank2-pm,AGREE,27\n"2,6",pm,8,8,harborth-rank2-pm,AGREE,154\n"2,8",pm,BUDGET,10,harborth-rank2-pm,,301\n', ''),
    ('verify --group 2,5 --theorem pm-general --output json', 65, '', 'zerosum: hypothesis mismatch: --group: invariant factor chain broken: 2 does not divide 5\n'),
    ('verify --group 2,5 --theorem pm-general --output csv', 65, '', 'zerosum: hypothesis mismatch: --group: invariant factor chain broken: 2 does not divide 5\n'),
    ('compute --group 2,6 --weights pm --kind harborth --output json --perf', 0, '{"formula": {"applicable": true, "hi": 8, "lo": 8, "tag": "harborth-rank2-pm", "value": 8}, "group": "2,6", "kind": "harborth", "nodes_visited": 154, "schema": 1, "type": "search_report", "value": 8, "verdict": "AGREE", "wall_time_ms": <ms>, "weights": [1, 5], "witness": "(0,0);(1,0);(0,1);(0,2);(1,2);(0,4);(1,4)"}\n', ''),
    ('verify --group 2,6 --theorem pm-general --output csv --perf', 0, 'side,sequence,ms\n,,<ms>\n', ''),
    ('enumerate --group 4 --weights pm --perf', 0, 'group: 4\nweights: pm\nvalue: 4\ncount: 4\n(0);(1);(2)\n(0);(1);(3)\n(0);(2);(3)\n(1);(2);(3)\nms: <ms>\n', ''),
    ('verify --group 2,6 --theorem unweighted-odd --output json', 0, '{"agree": true, "census_size": 18, "group": "2,6", "nodes_visited": 18, "only_in_census": [], "only_in_predicate": [], "predicate_size": 18, "schema": 1, "theorem": "unweighted-odd", "type": "characterization_report", "value": 9, "weights": [1]}\n', ''),
    ('enumerate --group 2,4 --weights classic --output json', 0, '{"count": 16, "group": "2,4", "members": ["(0,0);(1,0);(0,1);(0,2);(0,3)", "(0,0);(1,0);(0,1);(1,2);(0,3)", "(0,0);(1,0);(1,1);(0,2);(1,3)", "(0,0);(1,0);(1,1);(1,2);(1,3)", "(0,0);(0,1);(1,1);(0,2);(0,3)", "(0,0);(0,1);(1,1);(0,2);(1,3)", "(0,0);(0,1);(0,2);(1,2);(0,3)", "(0,0);(0,1);(0,2);(0,3);(1,3)", "(0,0);(1,1);(0,2);(1,2);(1,3)", "(0,0);(1,1);(0,2);(0,3);(1,3)", "(1,0);(0,1);(1,1);(1,2);(0,3)", "(1,0);(0,1);(1,1);(1,2);(1,3)", "(1,0);(0,1);(0,2);(1,2);(0,3)", "(1,0);(0,1);(1,2);(0,3);(1,3)", "(1,0);(1,1);(0,2);(1,2);(1,3)", "(1,0);(1,1);(1,2);(0,3);(1,3)"], "nodes_visited": 16, "schema": 1, "type": "extremal_census", "value": 6, "weights": [1]}\n', ''),
]


@pytest.mark.parametrize("command, code, out, err", _PINNED_OUTPUT, ids=[c[0] for c in _PINNED_OUTPUT])
def test_output_bytes_are_pinned(capsys, command, code, out, err):
    got_code, got_out, got_err = run(capsys, *command.split())
    if "--perf" in command:
        got_out = re.sub(r"\d+\.\d+", "<ms>", got_out)
    assert (got_code, got_out, got_err) == (code, out, err)


@pytest.mark.parametrize("output", ["text", "json", "csv"])
def test_enumerate_writes_each_literal_once(capsys, monkeypatch, output):
    # each literal is joined straight from a member's index tuple: an
    # enumerate builds one Sequence, the witness, and none per member, and
    # writes what each member's Sequence.literal() gives
    from zerosum.inverse import enumerate_extremal
    from zerosum.sequences import Sequence

    built = []
    post_init = Sequence.__post_init__
    monkeypatch.setattr(Sequence, "__post_init__", lambda self: built.append(1) or post_init(self))
    code, out, _ = run(capsys, "enumerate", "--group", "2,6", "--weights", "pm", "--output", output)
    assert code == 0
    assert len(built) == 1  # the census has 36 members
    monkeypatch.undo()
    census = enumerate_extremal(cli.parse_group("2,6"), cli.WeightSet.plus_minus(6))
    literals = [Sequence.from_indices(census.group, idxs).literal() for idxs in census.member_indices]
    if output == "json":
        assert json.loads(out)["members"] == literals
    else:
        assert out.splitlines()[-36:] == [f'"{m}"' if output == "csv" else m for m in literals]


# -- README examples ---------------------------------------------------------------


def _readme_blocks():
    """Each fenced block of README.md as ``(info, body)``, info the text after the opening fence."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return re.findall(r"^```([^\n]*)\n(.*?)^```", text, flags=re.M | re.S)


def _readme_examples():
    """Each fenced block of README.md that starts with ``$ zerosum``, as
    ``(argv, head, expected)``; ``head`` is N for a trailing ``| head -N``."""
    out = []
    for _, block in _readme_blocks():
        first, _, expected = block.partition("\n")
        if not first.startswith("$ zerosum "):
            continue
        command, _, pipe = first[2:].partition("|")
        head = int(re.fullmatch(r"\s*head -(\d+)\s*", pipe).group(1)) if pipe else None
        out.append(pytest.param(shlex.split(command)[1:], head, expected, id=first[2:]))
    return out


@pytest.mark.parametrize("argv, head, expected", _readme_examples())
def test_readme_example_output(capsys, argv, head, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if head is not None:
        out = "".join(out.splitlines(keepends=True)[:head])
    assert out == expected


@pytest.mark.parametrize("code", [body for info, body in _readme_blocks() if info == "python"])
def test_readme_library_example_output(capsys, code):
    # each print(...) line ends in a comment "# N" with what it prints
    expected = re.findall(r"^print\(.*#\s*(.*?)\s*$", code, flags=re.M)
    exec(compile(code, "README.md", "exec"), {})
    assert expected
    assert capsys.readouterr().out.splitlines() == expected
