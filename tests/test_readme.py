"""The README's library tour and its example config run as written."""

import pathlib

import pytest

from orbitforge.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md: Library tour", "exec"), {})


@pytest.mark.parametrize("command", ["heights", "constants"])
def test_readme_config_block_loads_and_runs(command, tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITFORGE_CACHE", raising=False)
    section = README.read_text(encoding="utf-8").split("Config is INI", 1)[1]
    config = tmp_path / "readme.ini"
    config.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
