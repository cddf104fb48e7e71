"""Every `$ treecast …` example in the README prints what the README shows."""

import contextlib
import io
import json
import pathlib
import shlex

import pytest

from treecast.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
JSON_TOOL = "python3 -m json.tool"
FLOAT_NOISE = "max trace distance"


def examples():
    """One (commands, expected lines) pair per ```sh block holding `$ treecast`."""
    blocks = README.read_text().split("```sh\n")[1:]
    out = []
    for block in blocks:
        body = block.split("```", 1)[0]
        if "$ treecast" not in body:
            continue
        steps = []
        for line in body.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            elif steps and line.strip() and line.strip() != "…":
                steps[-1][1].append(line.strip())
        out.append(steps)
    return out


def run_command(command: str) -> str:
    """Run one README command line through ``cli.main``; honour a json.tool pipe."""
    head, _, pipe = command.partition("|")
    argv = shlex.split(head)
    assert argv[0] == "treecast"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv[1:])
    assert code == 0, command
    text = buf.getvalue()
    if pipe:
        assert pipe.strip() == JSON_TOOL
        text = json.dumps(json.loads(text), indent=4)
    return text


@pytest.mark.parametrize("steps", examples(), ids=lambda steps: steps[0][0])
def test_readme_example(steps, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, expected in steps:
        lines = {line.strip().rstrip(",") for line in run_command(command).splitlines()}
        for want in expected:
            if FLOAT_NOISE in want:
                prefix = want.split(FLOAT_NOISE)[0] + FLOAT_NOISE
                assert any(line.startswith(prefix) for line in lines), want
            else:
                assert want in lines, want


def test_examples_were_found():
    assert len(examples()) == 4
