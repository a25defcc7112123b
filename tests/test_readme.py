"""The README's library example runs as written, so a signature change that
leaves it stale fails the suite."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first ```python block under the README's `## Library` heading."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("```python", lines.index("## Library")) + 1
    return "\n".join(lines[start : lines.index("```", start)]) + "\n"


def test_readme_library_example_runs(capsys):
    code = _library_example()
    assert "import txpar" in code
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out
