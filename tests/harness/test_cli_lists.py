"""A malformed comma-separated list is a usage error naming its flag."""

import pytest

from repro.harness.__main__ import main


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--workloads", "HashTable", "--modes", "bogus"], "--modes"),
    (["sweep", "--workloads", "HashTable", "--threads", "1,x"], "--threads"),
    (["sweep", "--workloads", "HashTable", "--seeds", "42,x"], "--seeds"),
    (["sweep", "--workloads", "HashTable", "--threads", ","], "--threads"),
    (["capacity", "--sizes", "2,x"], "--sizes"),
])
def test_a_bad_list_exits_2_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
