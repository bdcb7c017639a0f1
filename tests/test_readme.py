"""The README's library tour runs as written against the current API."""

import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md: Library tour", "exec"), {})
