"""The README's command-line examples run as written.

Every `newton-segre ...` command in the README's sh blocks goes through
cli.main and must exit 0. Where the command is followed by a `# {...}`
comment with no `...` in it, that comment is the exact JSON output.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from newton_segre import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, expected JSON or None) for each newton-segre command."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    examples = []
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("newton-segre "):
            comment = after.removeprefix("# ")
            expected = (json.loads(comment) if comment.startswith("{") and "..." not in comment
                        else None)
            examples.append((shlex.split(line, comments=True)[1:], expected))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6
    assert any(expected is not None for _, expected in EXAMPLES)


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(EXAMPLES)])
def test_readme_example(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # diagram --svg writes its file here
    assert cli.main(argv) == 0
    if expected is not None:
        assert json.loads(capsys.readouterr().out) == expected
