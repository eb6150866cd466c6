"""Worker failure modes: kill, hang, silence, poison jobs.

Every test drives a real coordinator over real sockets; "kill a worker
mid-lease" uses the subprocess cluster mode so the death is a genuine
SIGKILL, exactly what a crashed remote host looks like from the
broker's side.
"""

import json
import os
import threading
import time

import pytest

from repro.dist import (
    DistributedJobError,
    LocalCluster,
    WorkerAgent,
)
from repro.dist.cluster import sleepy_echo
from repro.scenarios import CampaignRunner, ResultsStore, Scenario
from repro.scenarios.stock import fast_hil


def _wait_until(predicate, timeout=15.0, period=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(period)


def _grid(n=4, duration_sec=3.0):
    return [Scenario(f"fail-{i % 2}", hil=fast_hil(), seed=i,
                     duration_sec=duration_sec) for i in range(n)]


def _double(x):
    return 2 * x


def _kill_executing_process(_arg):
    """Poison pill: takes down the pool child executing it, every time."""
    os._exit(1)


# ----------------------------------------------------------------------
# Kill a worker mid-lease (the acceptance scenario)
# ----------------------------------------------------------------------
def test_killed_worker_jobs_complete_on_survivors(tmp_path):
    """SIGKILL one of two subprocess workers while it holds leases: the
    coordinator requeues them, the survivor finishes the campaign, and
    the previously committed campaign stays intact until the new one
    commits."""
    store_dir = tmp_path / "store"
    previous = CampaignRunner(parallel=False,
                              results_dir=str(store_dir)).run(_grid(2))
    before = json.dumps(ResultsStore(store_dir).load_runs(),
                        sort_keys=True)

    with LocalCluster(n_workers=2, mode="subprocess", processes=1,
                      worker_timeout=5.0, heartbeat_period=0.2) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner(results_dir=str(store_dir))
        jobs = [{"sleep_sec": 0.6, "value": i} for i in range(6)]
        outcome = {}

        def campaign():
            outcome["values"] = runner.map_jobs(sleepy_echo, jobs)

        thread = threading.Thread(target=campaign)
        thread.start()
        status = cluster.coordinator.status
        _wait_until(lambda: any(w["inflight"] for w in status()["workers"]),
                    what="a lease to land")
        victim = next(i for i, w in enumerate(status()["workers"])
                      if w["inflight"])
        cluster.kill_worker(victim)
        # Mid-campaign, nothing has touched the committed records.
        assert json.dumps(ResultsStore(store_dir).load_runs(),
                          sort_keys=True) == before
        thread.join(timeout=60)
        assert outcome["values"] == list(range(6))
        stats = status()["stats"]
        assert stats["workers_dropped"] >= 1
        assert stats["jobs_requeued"] >= 1
        assert stats["jobs_completed"] == 6
    # map_jobs does not write the store: the earlier commit survives.
    assert json.dumps(ResultsStore(store_dir).load_runs(),
                      sort_keys=True) == before
    assert ResultsStore(store_dir).load_summary() == previous.summary


# ----------------------------------------------------------------------
# Bounded retries -> failed-run record
# ----------------------------------------------------------------------
def test_poison_job_burns_attempts_then_fails(tmp_path):
    """A job that kills every pool child executing it is retried
    ``max_attempts`` times and then reported as failed -- while the
    healthy jobs in the same grid complete and commit."""
    with LocalCluster(n_workers=2, processes=1,
                      max_attempts=2) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner(max_attempts=2)
        with pytest.raises(DistributedJobError) as excinfo:
            runner.map_jobs(_kill_executing_process, [None])
        (job_id, error), = excinfo.value.failures
        assert job_id == "j000000"
        assert "2 attempt" in error
        stats = cluster.coordinator.status()["stats"]
        assert stats["jobs_failed"] == 1
        assert stats["jobs_requeued"] == 1  # attempt 1 -> requeue -> fail


def _crash_child_on_seed1(job):
    """Module-level sabotage (pickles by reference; pool children fork
    from this process): seed 1 kills its executor child every time."""
    from repro.scenarios.runner import _run_record

    _run_id, scenario = job
    if scenario.seed == 1:
        os._exit(1)
    return _run_record(job)


def test_run_records_failed_runs_and_commits_survivors(tmp_path,
                                                       monkeypatch):
    """``run`` on a grid with one permanently-failing scenario commits
    the surviving records plus an error record, and lists the loss on
    ``CampaignResult.failed`` instead of raising."""
    import repro.dist.runner as dist_runner_mod

    with LocalCluster(n_workers=2, processes=1,
                      max_attempts=2) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner(results_dir=str(tmp_path),
                                max_attempts=2)
        grid = _grid(3)
        # run() ships whatever ``_run_record`` names in its module, so
        # swapping the symbol routes the same jobs through the
        # sabotaged twin.
        monkeypatch.setattr(dist_runner_mod, "_run_record",
                            _crash_child_on_seed1)
        result = runner.run(grid)
    assert len(result.records) == 2
    assert len(result.failed) == 1
    assert result.failed[0]["run_id"].startswith("001_")
    assert "attempt" in result.failed[0]["error"]
    store = ResultsStore(tmp_path)
    runs = store.load_runs()
    assert len(runs) == 3
    errors = [r for r in runs if "error" in r]
    assert len(errors) == 1 and errors[0]["scenario"]["seed"] == 1
    # total_runs counts completed runs only; failed ones are listed.
    assert store.load_summary()["total_runs"] == 2
    # Re-summarizing the persisted mix skips the error record cleanly.
    from repro.scenarios import summarize

    assert summarize(runs)["total_runs"] == 2


def test_pool_child_death_reported_promptly_under_repetition(monkeypatch):
    """Two in-process workers launch their pool children concurrently;
    a child that dies must still be reported lost at once, every time.
    Unserialized launches can leak one pool's child-death sentinel into
    the other pool's child, so the death goes unseen and the job waits
    out the 300 s lease (about one iteration in three).  Each run is
    bounded far below the lease timeout, so a lost death fails here
    instead of stalling."""
    import repro.dist.runner as dist_runner_mod

    monkeypatch.setattr(dist_runner_mod, "_run_record",
                        _crash_child_on_seed1)
    for iteration in range(12):
        with LocalCluster(n_workers=2, processes=1,
                          max_attempts=2) as cluster:
            runner = cluster.runner(max_attempts=2)
            outcome = {}
            thread = threading.Thread(
                target=lambda: outcome.update(
                    result=runner.run(_grid(3, duration_sec=1.0))),
                daemon=True)
            thread.start()
            thread.join(timeout=30.0)
            assert not thread.is_alive(), (
                f"iteration {iteration}: a pool child's death was not "
                f"reported; the run waited on its lease")
            stats = cluster.coordinator.status()["stats"]
        assert len(outcome["result"].failed) == 1, iteration
        assert stats["jobs_failed"] == 1, (iteration, stats)
        assert stats["jobs_requeued"] == 1, (iteration, stats)


# ----------------------------------------------------------------------
# Hangs and silence
# ----------------------------------------------------------------------
def test_lease_deadline_requeues_hung_job():
    """A worker that sits on a lease past the deadline loses it even
    though its heartbeat thread is alive; the job completes elsewhere
    (first result wins, the duplicate is ignored)."""
    with LocalCluster(n_workers=2, lease_timeout=0.4) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner()
        values = runner.map_jobs(sleepy_echo,
                                 [{"sleep_sec": 1.0, "value": "slow"}])
        assert values == ["slow"]
        stats = cluster.coordinator.status()["stats"]
        assert stats["jobs_requeued"] >= 1
        assert stats["jobs_completed"] == 1


def test_expired_lease_retries_on_a_different_worker():
    """After a lease deadline fires, the retry must land on a worker
    other than the one that timed out (which would just queue the job
    behind whatever wedged it).  With a 2-grant budget and a job that
    can never finish inside the lease, the observed lease-holder
    sequence is exactly [first worker, other worker]."""
    with LocalCluster(n_workers=2, lease_timeout=0.5,
                      max_attempts=2) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner(max_attempts=2)

        def campaign():
            try:
                runner.map_jobs(sleepy_echo,
                                [{"sleep_sec": 4.0, "value": "x"}])
            except Exception:
                pass  # a 4 s job can never beat a 0.5 s lease; the
                # test only observes *where* the retries land

        thread = threading.Thread(target=campaign)
        thread.start()
        status = cluster.coordinator.status
        holders = []
        deadline = time.monotonic() + 15.0
        while (status()["stats"]["jobs_failed"] < 1
               and time.monotonic() < deadline):
            for worker in status()["workers"]:
                if worker["inflight"] and \
                        (not holders or holders[-1] != worker["id"]):
                    holders.append(worker["id"])
            time.sleep(0.01)
        thread.join(timeout=30)
        # Each 0.5 s lease is sampled every ~10 ms, so both grants are
        # observed; the retry went to the other worker.
        assert len(holders) == 2
        assert holders[0] != holders[1]


def test_hung_job_fails_after_attempt_budget():
    """With one worker and a one-grant budget, a lease expiry is a
    permanent failure -- and the worker's eventual late result is
    dropped, not double-delivered."""
    with LocalCluster(n_workers=1, lease_timeout=0.3,
                      max_attempts=1) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner(max_attempts=1)
        with pytest.raises(DistributedJobError):
            runner.map_jobs(sleepy_echo, [{"sleep_sec": 1.2, "value": 9}])
        _wait_until(
            lambda: cluster.coordinator.status()["stats"]
            ["results_ignored"] >= 1,
            what="the late result to be ignored")


def test_silent_worker_dropped_and_job_rerun():
    """A worker that stops heartbeating is presumed dead: its leases
    requeue onto chatty survivors."""
    with LocalCluster(n_workers=0, worker_timeout=0.6) as cluster:
        silent = WorkerAgent(cluster.address, processes=0,
                             name="silent", heartbeat_period=60.0)
        silent.start()
        cluster.wait_for_workers(n=1)
        runner = cluster.runner()
        outcome = {}

        def campaign():
            outcome["values"] = runner.map_jobs(
                sleepy_echo, [{"sleep_sec": 2.5, "value": "v"}])

        thread = threading.Thread(target=campaign)
        thread.start()
        _wait_until(lambda: cluster.coordinator.status()["stats"]
                    ["workers_dropped"] >= 1,
                    what="the silent worker to be dropped")
        # Now attach a healthy worker; the requeued job lands on it.
        chatty = WorkerAgent(cluster.address, processes=0, name="chatty",
                             heartbeat_period=0.2)
        chatty.start()
        try:
            thread.join(timeout=30)
            assert outcome["values"] == ["v"]
        finally:
            silent.stop()
            chatty.stop()


def test_worker_loss_with_no_survivors_then_recovery():
    """All workers die mid-campaign: jobs wait in the queue (bounded
    only by attempts actually *granted*), and a fresh worker drains
    them -- the campaign blocks, it does not corrupt or complete
    half-done."""
    with LocalCluster(n_workers=1, worker_timeout=5.0) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner()
        outcome = {}

        def campaign():
            outcome["values"] = runner.map_jobs(
                sleepy_echo,
                [{"sleep_sec": 0.5, "value": i} for i in range(3)])

        thread = threading.Thread(target=campaign)
        thread.start()
        status = cluster.coordinator.status
        _wait_until(lambda: any(w["inflight"] for w in status()["workers"]),
                    what="a lease to land")
        cluster.kill_worker(0)
        _wait_until(lambda: status()["stats"]["workers_dropped"] >= 1,
                    what="the worker drop")
        thread.join(timeout=0.5)
        assert thread.is_alive()  # still waiting, not failed
        fresh = WorkerAgent(cluster.address, processes=0, name="fresh",
                            heartbeat_period=0.2)
        fresh.start()
        try:
            thread.join(timeout=30)
            assert outcome["values"] == [0, 1, 2]
        finally:
            fresh.stop()
