"""Backend discovery and fail-fast selection across the matrix CLIs.

Every matrix CLI (chaos, degrade, adversary) exposes the same
``--list-backends`` discovery listing and rejects unknown or empty
backend selections up front instead of silently running an empty
matrix.
"""

import pytest

from repro.harness.adversary import run_adversary_command
from repro.harness.chaos import (
    render_backend_list,
    resolve_backends,
    run_chaos_command,
)
from repro.harness.degrade import run_degrade_command
from repro.harness.runner import BACKEND_SUMMARIES, SYSTEMS

ALL_BACKENDS = (
    "CGL", "FlexTM", "RTM-F", "RSTM", "TL2", "LogTM-SE", "HTM-BE",
)


def test_summaries_cover_every_backend():
    assert set(BACKEND_SUMMARIES) == set(SYSTEMS) == set(ALL_BACKENDS)


def test_listing_names_every_backend():
    text = render_backend_list()
    for name in ALL_BACKENDS:
        assert name in text
    assert "fallback" in text  # HTM-BE's summary mentions the ladder


@pytest.mark.parametrize(
    "command", [run_chaos_command, run_degrade_command, run_adversary_command]
)
def test_list_backends_flag(command, capsys):
    assert command(["--list-backends"]) == 0
    stdout = capsys.readouterr().out
    for name in ALL_BACKENDS:
        assert name in stdout


@pytest.mark.parametrize(
    "command", [run_chaos_command, run_degrade_command, run_adversary_command]
)
def test_unknown_backend_fails_fast(command):
    with pytest.raises(SystemExit, match="unknown backend"):
        command(["--backends", "HTM-BE,NoSuchTM", "--quiet"])


@pytest.mark.parametrize(
    "command", [run_chaos_command, run_degrade_command, run_adversary_command]
)
def test_empty_backend_selection_fails_fast(command):
    with pytest.raises(SystemExit, match="no backends selected"):
        command(["--backends", ",", "--quiet"])


def test_resolver_reports_the_valid_set():
    with pytest.raises(SystemExit, match="HTM-BE"):
        resolve_backends([])


@pytest.mark.parametrize(
    "command, flag",
    [
        (run_chaos_command, "--threads"),
        (run_chaos_command, "--txns"),
        (run_chaos_command, "--cycles"),
        (run_degrade_command, "--threads"),
        (run_degrade_command, "--txns"),
        (run_degrade_command, "--cycles"),
        (run_adversary_command, "--cycles"),
    ],
)
def test_counts_below_one_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        command([flag, "0", "--quiet"])
    assert exit_info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
