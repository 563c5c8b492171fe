from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_example_runs():
    # the README's "Library usage" block, executed as written, so that an
    # API change that breaks the example fails here
    text = README.read_text()
    section = text.split("## Library usage", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, f"{README}:Library usage", "exec"), {})
