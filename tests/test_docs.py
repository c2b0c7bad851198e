"""README's File formats section lists the CSV columns the code writes."""

import re
from pathlib import Path

import pytest

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
