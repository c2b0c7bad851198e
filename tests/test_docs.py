"""README's File formats section lists the CSV columns the code writes, and
its Command line section's commands parse."""

import re
import shlex
from pathlib import Path

import pytest

from statemerge.cli import build_parser
from statemerge.harness import METRIC_FIELDS, RESULT_FIELDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def documented_columns(lead):
    """The backquoted names after "columns" in the README bullet that starts with lead."""
    bullet = re.search(rf"^- {re.escape(lead)}.*?(?=^- |^#|\Z)", README, re.M | re.S)
    return tuple(re.findall(r"`(\w+)`", bullet.group(0).split(" columns ", 1)[1]))


@pytest.mark.parametrize("lead, fields", [("Result tables", RESULT_FIELDS),
                                          ("Each trained run's `metrics.csv`", METRIC_FIELDS)],
                         ids=["results", "metrics"])
def test_readme_lists_the_csv_columns(lead, fields):
    assert documented_columns(lead) == fields


def test_readme_commands_parse():
    """Every statemerge line in README's Command line code block parses, so a
    removed or renamed option cannot linger there."""
    section = README.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line.split("#")[0] for line in block.splitlines()
                if line.startswith("statemerge ")]
    assert len(commands) >= 10
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README's command does not parse: {command}")
