"""One orchestration path: every sweep's tasks go through the registry.

Contract under test: sweep experiments declare their tasks and fold, the
registry flattens every grid point's tasks into one journaled, supervised
fan-out, a grid point with a quarantined task is a ``quarantined`` row,
degenerate counts are rejected before anything is dispatched, and
journals written for another task list are refused on resume.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core import (
    REGISTRY,
    CheckpointMismatch,
    RunPolicy,
    SweepCheckpoint,
    get_experiment,
    grid_hash,
    load_results,
    register_experiment,
    run_experiment,
)
from repro.core.chaos import ChaosTask, run_chaos_task
from repro.core.reliability import ReliabilityTask
from repro.core.resume import load_checkpoint_results
from repro.exploit import BruteForceTrial

QUICK_E16 = {"queries_per_rate": 8, "attack_budget": 8}


class TestTaskDeclarations:
    @pytest.mark.parametrize("experiment_id, count, kind", [
        ("E10", 2, BruteForceTrial),
        ("E14", 9, ReliabilityTask),
        ("E15", 20, BruteForceTrial),
        ("E16", 3, ChaosTask),
    ])
    def test_sweeps_declare_their_tasks(self, experiment_id, count, kind):
        spec = get_experiment(experiment_id)
        (trial,) = spec.trials()
        tasks = spec.tasks(trial)
        assert len(tasks) == count
        assert all(isinstance(task, kind) for task in tasks)
        assert tasks == spec.tasks(trial)  # seeded: the same every time

    def test_other_experiments_are_one_task_per_point(self):
        spec = get_experiment("E1")
        (trial,) = spec.trials()
        assert spec.tasks(trial) == [trial]

    def test_partial_declaration_rejected(self):
        with pytest.raises(ValueError, match="together"):
            register_experiment("E-partial", "t", trials=lambda params: [])

    def test_fold_sees_the_runner_defaults(self):
        spec = get_experiment("E16")
        (trial,) = spec.trials()
        assert spec.bind(trial) == {"rates": (0.0, 0.2, 0.5),
                                    "queries_per_rate": 24,
                                    "attack_budget": 32}


class TestGridJournal:
    def test_one_journal_line_per_task(self, tmp_path):
        path = str(tmp_path / "e14.ckpt")
        clean = run_experiment("E14", grid={"trials": (2, 3)})
        journaled = run_experiment("E14", grid={"trials": (2, 3)},
                                   checkpoint=path)
        assert len(load_checkpoint_results(path)) == 18
        with open(path) as handle:
            assert json.loads(handle.readline())["experiment"] == "E14.grid"
        resumed = run_experiment("E14", grid={"trials": (2, 3)},
                                 checkpoint=path, resume=True)
        assert resumed.stats.resumed == 18 and resumed.stats.executed == 0
        dump = lambda run: json.dumps(run.to_artifact(), sort_keys=True)
        assert dump(clean) == dump(journaled) == dump(resumed)

    @pytest.mark.parametrize("journal_id, tasks", [
        # A per-grid-point journal of the same experiment.
        ("E14.grid", "points"),
        # The retired journals of the experiments' own sweeps.
        ("E14.reliability", "tasks"),
    ])
    def test_journal_for_other_tasks_refused(self, tmp_path, journal_id, tasks):
        spec = get_experiment("E14")
        points = spec.trials()
        written = points if tasks == "points" else spec.tasks(points[0])
        path = str(tmp_path / "old.ckpt")
        with SweepCheckpoint(path, experiment=journal_id,
                             grid_hash=grid_hash(written), total=len(written),
                             seed=spec.entropy):
            pass
        with pytest.raises(CheckpointMismatch):
            run_experiment("E14", checkpoint=path, resume=True)


def _fail_the_middle_point(task):
    """E16 worker that fails its 0.2 fault-rate point."""
    if task.level == 0.2:
        raise RuntimeError("injected chaos-point failure")
    return run_chaos_task(task)


class TestQuarantinedChaosPoint:
    """A quarantined chaos task must not fold into a passing E16 row."""

    @pytest.fixture
    def failing_e16(self, monkeypatch):
        spec = dataclasses.replace(REGISTRY["E16"],
                                   run_trial=_fail_the_middle_point)
        monkeypatch.setitem(REGISTRY, "E16", spec)
        return spec

    def test_row_quarantined_with_its_failure(self, failing_e16):
        run = run_experiment(
            "E16", params=QUICK_E16,
            policy=RunPolicy(retries=0, backoff=0.0, on_failure="quarantine"))
        (trial,) = run.trials
        assert trial.status == "quarantined"
        assert trial.result is None
        assert "injected chaos-point failure" in trial.failure.error
        assert trial.failure.index == 1  # the task's position
        assert not run.ok
        row = run.artifact_rows()[0]
        assert row["outcome"] == "quarantined" and row["expected"] is False
        assert row["error"]["kind"] == "error"

    def test_cli_exit_code_and_artifact(self, failing_e16, tmp_path, capsys):
        path = str(tmp_path / "e16.jsonl")
        code = main(["run", "E16", "--retries", "0",
                     "--set", "queries_per_rate=8", "--set", "attack_budget=8",
                     "--results", path])
        assert code == 1
        assert "injected chaos-point failure" in capsys.readouterr().err
        _header, rows = load_results(path)
        assert [row["outcome"] for row in rows] == ["quarantined"]
        assert rows[0]["error"] is not None and rows[0]["result"] is None


@pytest.mark.parametrize("experiment_id, setting", [
    ("E10", "max_attempts=-1"),
    ("E14", "trials=0"),
    ("E14", "trials=-3"),
    ("E15", "runs_per_point=0"),
    ("E16", "queries_per_rate=0"),
    ("E16", "attack_budget=0"),
])
def test_degenerate_counts_exit_2_before_fan_out(experiment_id, setting,
                                                 capsys):
    assert main(["run", experiment_id, "--set", setting]) == 2
    err = capsys.readouterr().err
    assert setting.partition("=")[0] in err and ">= 1" in err
    assert "sweep health" not in err  # nothing was dispatched
