"""The README's examples run as written and print what their comments say."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    text = README.read_text()
    section = text[text.index(f"## {heading}"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_prints_its_comments(capsys):
    block = _python_block("Library use")
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "linear" and "# 'linear'" in block
    assert lines[1] == "['T_1^+', 'R_0^+']" and "# ['T_1^+', 'R_0^+']" in block
