"""The source line counter behind the line counts that ROADMAP records."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    fixture = '"""A docstring\nover two lines."""\n# a comment\n\nx = 1  # a trailing comment\ny = x\n'
    assert tool.count_lines(fixture) == (6, 2)
