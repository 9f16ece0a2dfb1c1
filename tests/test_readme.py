"""The README examples, run from the README file itself.

Every ``triderive`` line of the Command line block goes through
``cli.main``; a comment that is literal output must match byte for
byte.  The library tour runs as written, and each ``print`` must show
what its comment says.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from triderive import cli, gnelem_from_json

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
COMMENTED = re.compile(r"^(?P<code>.*?)\s+#\s(?P<comment>.*)$")


def fenced_blocks(lang: str, after: str | None = None) -> list[str]:
    """The bodies of the fenced blocks of one language, optionally only
    the first one after a heading."""
    text = TEXT if after is None else TEXT[TEXT.index(after):]
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)
    return blocks[:1] if after is not None else blocks


def split_comment(line: str) -> tuple[str, str | None]:
    match = COMMENTED.match(line)
    if match is None:
        return line, None
    return match["code"], match["comment"]


COMMAND_LINES = [line for line in fenced_blocks("sh", "## Command line")[0].splitlines()
                 if line.startswith("triderive ")]


def test_command_block_is_found():
    assert len(COMMAND_LINES) == 9


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_example(line, capsys):
    code, comment = split_comment(line)
    argv = shlex.split(code)[1:]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "decompose" in argv:
        assert gnelem_from_json(json.loads(out)).form == "A"
    elif comment is not None:
        assert out == comment + "\n"


def test_library_tour():
    blocks = fenced_blocks("python")
    assert len(blocks) == 2
    expected = []
    conjugation = None
    for line in "\n".join(blocks).splitlines():
        code, comment = split_comment(line)
        if not code.startswith("print(") or comment is None:
            continue
        if "conjugate_derivation(" in code:
            conjugation = comment
        expected.append(conjugation if comment == "same as the conjugation above"
                        else comment)
    assert conjugation is not None and len(expected) == 5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        namespace: dict = {}
        for block in blocks:
            exec(block, namespace)
    assert out.getvalue().splitlines() == expected
