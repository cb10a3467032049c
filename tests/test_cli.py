"""CLI behavior: outputs, exit codes, reproducibility."""

import json
import re
import shlex
from pathlib import Path

import pytest

from zerosum import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--group", "2,6", "--weights", "classic",
                       "--kind", "harborth", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,group,weights,value,witness,nodes,formula,tag,verdict"
    assert lines[1].startswith('harborth,"2,6",classic,9,')


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
                       "--node-budget", "500")
    assert code == 0
    assert "BUDGET" in out


def test_table_budget_is_per_row(capsys):
    # each row fits 10,500 nodes (2,8 takes 10,474) while the four together take 11,504
    code, out, _ = run(capsys, "table", "--family", "2,2n", "--range", "1:4",
                       "--kind", "harborth", "--weights", "pm",
                       "--node-budget", "10500", "--output", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    nodes = [r["nodes_visited"] for r in rows]
    assert not any(r["budget_exceeded"] for r in rows)
    assert max(nodes) <= 10_500 < sum(nodes) == 11_504


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


def test_table_bad_range_exits_64(capsys):
    code, _, err = run(capsys, "table", "--family", "2,2n", "--range", "5",
                       "--kind", "harborth", "--weights", "pm")
    assert code == 64
    assert "--range" in err
    code, _, err = run(capsys, "table", "--family", "2,2n", "--range", "3:2",
                       "--kind", "harborth", "--weights", "pm")
    assert code == 64


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


# -- README examples ---------------------------------------------------------------


def _readme_examples():
    """Each fenced block of README.md that starts with ``$ zerosum``, as
    ``(argv, head, expected)``; ``head`` is N for a trailing ``| head -N``."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    out = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
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
