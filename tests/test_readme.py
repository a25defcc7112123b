"""The README's library example runs as written, and its config-key and
transform-step tables match the CLI's tables, so a signature change, a
renamed setting or a renamed step field that leaves it stale fails the
suite."""

import re
from pathlib import Path

from txpar import cli

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


def _table(header: str) -> list[list[str]]:
    """The cells of each body row of the README table whose header row is `header`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _names(cell: str) -> set[str]:
    """The backticked names in a cell, leaving out those inside parentheses."""
    return set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell)))


def test_readme_config_table_lists_every_setting():
    keys = [_names(row[0]) for row in _table("| key | type | default | flag, commands |")]
    assert all(len(names) == 1 for names in keys)
    assert set().union(*keys) == set(cli._CONFIG_KEYS) == set(cli._SETTINGS) | {"input", "transforms"}


def test_readme_step_table_lists_every_step_and_its_fields():
    rows = _table("| step | required fields | optional fields |")
    documented = {_names(step).pop(): (_names(required), _names(optional)) for step, required, optional in rows}
    assert documented == {kind: (set(required), set(optional)) for kind, (required, optional, _) in cli._STEPS.items()}
