"""Shape checks on the registered experiments' default tables.

Each case runs one experiment through the registry (as ``repro run E<n>``
does) and checks the parts of its table that the row-level ``expected``
column does not pin: row counts, which parameters the rows report, and
the headline values the paper's prose quotes.
"""

import pytest

from repro.core import diversity_survival, run_experiment


def _e5(rows):
    assert len(rows) == 4
    assert all(row[2] for row in rows)                 # every device roamed
    assert all(row[3] == "172.16.42.1" for row in rows)  # rogue DNS via DHCP


def _e6(rows):
    vulnerable = {row[0] for row in rows if row[2]}
    assert {"yocto-pyro", "openelec-8", "tizen-3"} <= vulnerable
    assert "tizen-4" not in vulnerable


def _e7(rows):
    assert len(rows) == 10  # 5 mitigations x 2 arches


def _e8(rows):
    assert len(rows) == 18  # 6 services x 3 protection profiles
    assert {row[2] for row in rows} == {"dns", "http", "tcp"}


def _e10(rows):
    # The 8-bit entropy estimate: a seeded run lands between 16 and the
    # attempt budget.
    assert 16 <= rows[0][1] <= 2048


def _e11(rows):
    assert [row[0] for row in rows] == [2048, 4]


def _e12(rows):
    assert sum(1 for row in rows if row[5] == "ROOT SHELL") == 5
    assert all(row[4] for row in rows)  # everyone roamed


def _e14(rows):
    always = [row for row in rows if row[4] == "always"]
    lottery = [row for row in rows if row[4] == "lottery"]
    assert always and all(row[3] == "10/10" for row in always)
    assert lottery and all(row[3].startswith("0/") for row in lottery)


def _e16(rows):
    labels = [row[0] for row in rows]
    assert labels[:3] == ["0.00", "0.20", "0.50"]
    assert labels[3:] == ["(bruteforce, bare init)", "(bruteforce, supervised)"]


@pytest.mark.parametrize("experiment_id, check", [
    ("E5", _e5), ("E6", _e6), ("E7", _e7), ("E8", _e8), ("E10", _e10),
    ("E11", _e11), ("E12", _e12), ("E14", _e14), ("E16", _e16),
])
def test_default_table_shape(experiment_id, check):
    run = run_experiment(experiment_id)
    assert run.ok, run.describe()
    check(run.result.rows)


@pytest.mark.parametrize("arch, ceiling", [("x86", 0.5), ("arm", 0.9)])
def test_diversity_breaks_most_gadget_addresses(arch, ceiling):
    reports = diversity_survival(arch, seeds=6)
    assert all(report.gadget_survival_rate < ceiling for report in reports)
    assert all(report.plt_moved > 0 for report in reports)
