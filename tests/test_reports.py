"""The recorded CLI reports of ``reports.py`` are what the commands print now."""

import os

import pytest

import reports


def test_the_recorded_files_are_the_command_list():
    recorded = sorted(f[:-len(".txt")] for f in os.listdir(reports.DIRECTORY) if f.endswith(".txt"))
    assert recorded == sorted(reports.COMMANDS)


@pytest.mark.parametrize("name", sorted(reports.COMMANDS))
def test_a_command_prints_its_recorded_report(name):
    with open(reports.path(name)) as fh:
        header, recorded = fh.read().split("\n", 1)
    # float digits may move with the libraries, so a mismatch is named, not skipped
    assert header == reports.versions(), (
        f"{name} was recorded with {header}, this run has {reports.versions()}; "
        "regenerate with tests/reports.py --write and review the diff")
    assert reports.run(reports.COMMANDS[name]) == recorded
