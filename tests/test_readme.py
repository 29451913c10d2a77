"""README documents only options that exist: every ``relscale <cmd> --opt``
call in a fenced block and every inline `<cmd> --opt` span names options of
that click command."""

import re
from pathlib import Path

from relscale.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", flags=re.MULTILINE | re.DOTALL)


def _unknown(command: str, words: list[str]) -> list[str]:
    """``command --opt`` for each option in ``words`` that the command lacks."""
    if command not in main.commands:
        return [f"{command} (no such command)"]
    known = {opt for param in main.commands[command].params
             for opt in (*param.opts, *param.secondary_opts)}
    return [f"{command} {word}" for word in words
            if word.startswith("--") and word.split("=")[0] not in known]


def fenced_calls() -> list[tuple[str, list[str]]]:
    """(command, words) of every ``relscale`` line in a fenced block, its
    backslash continuations joined."""
    calls = []
    for block in FENCED.findall(README):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split()
            if words[:1] == ["relscale"] and len(words) > 1:
                calls.append((words[1], words[2:]))
    return calls


def inline_calls() -> list[tuple[str, list[str]]]:
    """(command, words) of every inline code span, fenced blocks aside, that
    starts with a command name and names an option; a span may wrap lines."""
    calls = []
    for span in re.findall(r"`([^`]+)`", FENCED.sub("", README)):
        words = span.split()
        if words[0] in main.commands and any(w.startswith("--") for w in words[1:]):
            calls.append((words[0], words[1:]))
    return calls


def test_fenced_cli_calls_use_existing_options():
    calls = fenced_calls()
    assert len({command for command, _ in calls}) >= 10  # the CLI block is found
    assert [bad for call in calls for bad in _unknown(*call)] == []


def test_inline_command_spans_use_existing_options():
    calls = inline_calls()
    assert len(calls) >= 5  # spans are found, wrapped ones included
    assert [bad for call in calls for bad in _unknown(*call)] == []


def test_an_option_a_command_lacks_is_reported():
    assert _unknown("plot", ["--input", "--format"]) == ["plot --format"]
    assert _unknown("simulate", ["--seed", "0"]) == ["simulate --seed"]
    assert _unknown("relfit", ["--workers", "--seed"]) == []
    assert _unknown("fit", ["--family", "power-floor"]) == []
