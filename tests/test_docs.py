"""The README's code runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    text = README.read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert abs(float(lines[0]) - 2.0 / 3.0) <= 1e-12
    assert "'verdict'" in lines[1]
