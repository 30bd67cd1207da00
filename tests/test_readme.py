"""README.md's library quick start prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_its_comments(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, f"{README}:Library quick start", "exec"), {})
    assert capsys.readouterr().out == "1.0\n0.2200573460112235 1.0\n"
