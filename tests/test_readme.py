"""The README's `$ posetcoh ...` examples, run against the fixture documents."""

import json
import pathlib
import re
import shlex

import pytest

from posetcoh.cli import main

import builders

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

FILES = {
    "square.json": builders.SQUARE_DOC,
    "zigzag.json": builders.ZIGZAG_DOC,
    "sphere.json": builders.SPHERE_DOC,
    "skyscraper.json": builders.SKYSCRAPER_DOC,
    "constant.json": builders.CONSTANT_SPHERE_DIAGRAM_DOC,
}


def _examples():
    """(command line, expected stdout lines, the json block after it or None)."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```(\w+)\n(.*?)```", text, re.S)
    examples = []
    for k, (lang, body) in enumerate(blocks):
        if lang != "sh":
            continue
        following = blocks[k + 1] if k + 1 < len(blocks) else ("", "")
        command = None
        for line in body.splitlines() + [""]:
            if command is not None and (not line or line.startswith("$ ")):
                after = json.loads(following[1]) if following[0] == "json" else None
                examples.append((command, expected, after))
                command = None
            if line.startswith("$ posetcoh "):
                command, expected = line[2:], []
            elif command is not None:
                expected.append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_the_examples():
    assert len(EXAMPLES) == 11


@pytest.mark.parametrize(
    "command, expected, after", EXAMPLES, ids=[e[0] for e in EXAMPLES]
)
def test_readme_example(tmp_path, monkeypatch, capsys, command, expected, after):
    for name, doc in FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1)
    if "--out" in argv:
        # the template shown after the command elides the base poset
        assert out == ""
        written = json.loads((tmp_path / argv[argv.index("--out") + 1]).read_text())
        assert {key: written[key] for key in ("mode", "groups", "maps")} == {
            key: after[key] for key in ("mode", "groups", "maps")
        }
    else:
        assert out == "".join(line + "\n" for line in expected)
