import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    """The README's first python block is the library example; it must run."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split()[0] for r in rows] == ["1.5", "2.0"]
