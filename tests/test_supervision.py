"""Fault-tolerant campaign supervision: the chaos property battery.

The acceptance contract of ``repro.supervision``:

* under every *recoverable* seeded fault pattern (crash, hang→timeout,
  transient-then-success), a supervised campaign's estimates are
  **bit-identical** to the fault-free run — retries replay exact
  per-task seeds, so recovery is invisible in the results;
* persistent poison ends in quarantine: a typed ``TaskFailure`` in the
  failure manifest, never a silent gap (and never a crashed campaign);
* an interrupted campaign keeps every completed grid point in the
  result cache, and re-running it against the same cache dispatches
  exactly the missing work (asserted with a runner that refuses
  completed points, like the result-cache battery).
"""

from __future__ import annotations

import json
import os
import signal
import time
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.experiment as experiment_module
from repro.cache import ResultCache
from repro.core.campaign import (
    CampaignInterrupted,
    campaign_grid,
    campaign_record,
    run_campaign,
)
from repro.core.experiment import (
    _outcome_block_payload,
    _outcome_payload,
    estimate_protocol_lifetime,
)
from repro.core.specs import SystemClass, s1
from repro.errors import ConfigurationError
from repro.mc.executor import (
    ExecutorBackend,
    SerialBackend,
    TaskExecutor,
    derive_point_seed,
)
from repro.randomization.obfuscation import Scheme
from repro.rare.splitting import SplittingConfig
from repro.reporting.tables import render_failure_manifest
from repro.supervision import (
    ChaosBackend,
    ChaosCrash,
    ChaosSpec,
    Quarantined,
    SupervisionPolicy,
    TaskFailure,
    deliver_sigterm_as_interrupt,
    retry_delay,
)

ROOT_SEED = 11
TRIALS = 4
MAX_STEPS = 30

#: Fast-retry policy for tests (no real backoff sleeps to speak of).
FAST = dict(backoff_base=1e-4, backoff_cap=1e-3, poll_interval=0.005)


@pytest.fixture(scope="module")
def grid():
    return campaign_grid(systems=[SystemClass.S0])


@pytest.fixture(scope="module")
def clean_result(grid):
    return run_campaign(
        grid, trials=TRIALS, max_steps=MAX_STEPS, seed=ROOT_SEED, workers=1
    )


def _task_seeds(grid) -> list[int]:
    """First seed of each dispatched task (one batch per point here)."""
    return [derive_point_seed(ROOT_SEED, i, 0) for i in range(len(grid))]


def _chaos_seed_for(grid, kind: str, *, all_tasks: bool = False, **kwargs) -> int:
    """A chaos seed whose pattern afflicts ≥1 (not all) tasks with ``kind``."""
    seeds = _task_seeds(grid)
    for chaos_seed in range(500):
        spec = ChaosSpec(seed=chaos_seed, **kwargs)
        hits = sum(1 for s in seeds if spec.fault_for(s) == kind)
        if all_tasks and hits == len(seeds):
            return chaos_seed
        if not all_tasks and 0 < hits < len(seeds):
            return chaos_seed
    raise AssertionError(f"no chaos seed afflicts the grid with {kind}")


def _outcomes(result):
    return [estimate.outcomes for estimate in result.estimates]


def _supervised(grid, chaos: ChaosSpec, policy: SupervisionPolicy):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_campaign(
            grid,
            trials=TRIALS,
            max_steps=MAX_STEPS,
            seed=ROOT_SEED,
            workers=1,
            chaos=chaos,
            supervision=policy,
        )


# ----------------------------------------------------------------------
# Policy unit tests
# ----------------------------------------------------------------------
def test_retry_delay_is_deterministic_and_jittered():
    policy = SupervisionPolicy(backoff_base=0.1, backoff_cap=1.0, backoff_jitter=0.25)
    d1 = retry_delay(policy, 1, task_seed=42)
    assert d1 == retry_delay(policy, 1, task_seed=42)
    assert 0.075 <= d1 <= 0.125  # base * [1 - j, 1 + j]
    d3 = retry_delay(policy, 3, task_seed=42)
    assert 0.3 <= d3 <= 0.5  # base * 4, jittered
    assert retry_delay(policy, 1, task_seed=43) != d1  # seed-derived jitter


def test_retry_delay_caps_and_zero_jitter():
    policy = SupervisionPolicy(backoff_base=0.5, backoff_cap=1.0, backoff_jitter=0.0)
    assert retry_delay(policy, 10, task_seed=0) == 1.0


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        SupervisionPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        SupervisionPolicy(task_timeout=0.0)
    with pytest.raises(ConfigurationError):
        SupervisionPolicy(backoff_jitter=1.0)
    with pytest.raises(ConfigurationError):
        SupervisionPolicy(backoff_base=2.0, backoff_cap=1.0)


def test_chaos_spec_parse_and_validation():
    spec = ChaosSpec.parse("seed=7,crash=0.2,hang=0.1,transient_attempts=2")
    assert spec == ChaosSpec(seed=7, crash=0.2, hang=0.1, transient_attempts=2)
    with pytest.raises(ConfigurationError):
        ChaosSpec.parse("seed=7,meteor=0.5")
    with pytest.raises(ConfigurationError):
        ChaosSpec.parse("crash=lots")
    with pytest.raises(ConfigurationError):
        ChaosSpec(crash=0.7, poison=0.6)  # probabilities sum > 1


def test_chaos_fault_partition_is_seed_deterministic():
    spec = ChaosSpec(seed=3, crash=0.3, transient=0.3, poison=0.2)
    kinds = [spec.fault_for(s) for s in range(200)]
    assert kinds == [spec.fault_for(s) for s in range(200)]
    assert ChaosSpec(seed=3, crash=1.0).fault_for(123) == "crash"
    assert ChaosSpec(seed=3).fault_for(123) is None


# ----------------------------------------------------------------------
# Supervised TaskExecutor unit tests (scripted transports)
# ----------------------------------------------------------------------
class ScriptedAsyncInner(ExecutorBackend):
    """Async-capable inner whose behavior per (task, attempt) is scripted.

    ``script[task]`` is a list of behaviors, one per attempt:
    ``"ok"`` | ``"err"`` | ``"hang"`` | ``"transport"`` (last repeats).
    """

    supports_submit = True

    def __init__(self, script):
        self.script = script
        self.attempts: dict = {}
        self.recycled = 0

    def submit(self, fn, task):
        k = self.attempts.get(task, 0)
        self.attempts[task] = k + 1
        plan = self.script[task]
        behavior = plan[min(k, len(plan) - 1)]
        future: Future = Future()
        if behavior == "ok":
            future.set_result(fn(task))
        elif behavior == "err":
            future.set_exception(ValueError(f"scripted failure for {task}"))
        elif behavior == "transport":
            future.set_exception(BrokenProcessPool("scripted transport death"))
        # "hang": never resolves
        return future

    def recycle(self):
        self.recycled += 1


def _double(x):
    return 2 * x


def test_supervised_sync_retries_then_succeeds():
    failures = {"left": 2}

    def flaky(task):
        if failures.get(task, 0) > 0:
            failures[task] -= 1
            raise ValueError("transient")
        return task.upper()

    executor = TaskExecutor(backend=SerialBackend(), policy=SupervisionPolicy(**FAST))
    assert executor.map(flaky, ["left", "right"]) == ["LEFT", "RIGHT"]
    assert executor.manifest.retries == 2
    assert executor.manifest.quarantined == 0


def test_supervised_sync_quarantines_poison_in_place():
    def poisoned(task):
        if task == "bad":
            raise ValueError("permanently broken")
        return task

    executor = TaskExecutor(
        backend=SerialBackend(), policy=SupervisionPolicy(max_attempts=2, **FAST)
    )
    with pytest.warns(RuntimeWarning, match="quarantined after 2 attempts"):
        results = executor.map(poisoned, ["ok", "bad", "also ok"])
    assert results[0] == "ok" and results[2] == "also ok"
    assert isinstance(results[1], Quarantined)
    failure = results[1].failure
    assert isinstance(failure, TaskFailure)
    assert failure.index == 1 and failure.kind == "error"
    assert executor.manifest.failures == [failure]


def test_supervised_sync_warns_that_timeouts_cannot_apply():
    with pytest.warns(RuntimeWarning, match="task_timeout cannot interrupt"):
        executor = TaskExecutor(
            backend=SerialBackend(), policy=SupervisionPolicy(task_timeout=1.0, **FAST)
        )
        assert executor.map(_double, [3]) == [6]


def test_supervised_async_timeout_then_recovery():
    inner = ScriptedAsyncInner({4: ["hang", "ok"], 5: ["ok"]})
    executor = TaskExecutor(
        backend=inner, policy=SupervisionPolicy(task_timeout=0.05, **FAST)
    )
    assert executor.map(_double, [4, 5]) == [8, 10]
    assert executor.manifest.timeouts == 1
    assert executor.manifest.retries == 1


def test_supervised_async_persistent_hang_quarantines_as_timeout():
    inner = ScriptedAsyncInner({7: ["hang", "hang"], 8: ["ok"]})
    executor = TaskExecutor(
        backend=inner,
        policy=SupervisionPolicy(max_attempts=2, task_timeout=0.05, **FAST),
    )
    with pytest.warns(RuntimeWarning, match="quarantined"):
        results = executor.map(_double, [7, 8])
    assert results[1] == 16
    assert isinstance(results[0], Quarantined)
    assert results[0].failure.kind == "timeout"
    assert executor.manifest.timeouts == 2


def test_supervised_transport_exhaustion_drains_in_process(caplog):
    inner = ScriptedAsyncInner({1: ["transport"], 2: ["transport"]})
    executor = TaskExecutor(
        backend=inner, policy=SupervisionPolicy(transport_strikes=1, **FAST)
    )
    with caplog.at_level("WARNING", logger="repro.mc.executor"):
        assert executor.map(_double, [1, 2]) == [2, 4]
    messages = [record.getMessage() for record in caplog.records]
    assert any("in-process" in m for m in messages)
    assert any("recycled" in m for m in messages)
    assert executor.manifest.transport_failures >= 2
    assert executor.manifest.degradations == 1
    assert inner.recycled >= 2


# ----------------------------------------------------------------------
# ChaosBackend
# ----------------------------------------------------------------------
def test_chaos_backend_unsupervised_surfaces_crashes():
    executor = TaskExecutor(backend=ChaosBackend(ChaosSpec(seed=1, crash=1.0)))
    with pytest.raises(ChaosCrash):
        executor.map(_double, [10, 11])


def test_chaos_backend_refuses_hangs_without_supervision():
    backend = ChaosBackend(ChaosSpec(seed=1, hang=0.5))
    with pytest.raises(ConfigurationError, match="task_timeout"):
        TaskExecutor(backend=backend).map(_double, [10, 11])
    # A policy without a timeout could wait on a hung task forever too.
    with pytest.raises(ConfigurationError, match="task_timeout"):
        TaskExecutor(backend=backend, policy=SupervisionPolicy(**FAST))


class SeededTask:
    """Minimal stand-in for ProtocolTask: chaos keys faults off ``seed``."""

    def __init__(self, seed):
        self.seed = seed


def _double_seed(task):
    return 2 * task.seed


def test_chaos_crash_recovers_under_supervision():
    executor = TaskExecutor(
        backend=ChaosBackend(ChaosSpec(seed=1, crash=1.0, transient_attempts=1)),
        policy=SupervisionPolicy(**FAST),
    )
    tasks = [SeededTask(10), SeededTask(11)]
    assert executor.map(_double_seed, tasks) == [20, 22]
    assert executor.manifest.retries == 2  # one injected crash per task


# ----------------------------------------------------------------------
# The chaos property battery: supervised campaigns fold to the
# fault-free estimates under every recoverable fault pattern.
# ----------------------------------------------------------------------
def test_battery_crash_pattern_is_bit_identical(grid, clean_result):
    chaos_seed = _chaos_seed_for(grid, "crash", all_tasks=True, crash=1.0)
    result = _supervised(
        grid,
        ChaosSpec(seed=chaos_seed, crash=1.0, transient_attempts=1),
        SupervisionPolicy(**FAST),
    )
    assert _outcomes(result) == _outcomes(clean_result)
    assert result.retries >= len(grid)
    assert result.quarantined == 0 and not result.failures


def test_battery_hang_pattern_times_out_and_recovers(grid, clean_result):
    chaos_seed = _chaos_seed_for(grid, "hang", hang=0.6)
    result = _supervised(
        grid,
        ChaosSpec(seed=chaos_seed, hang=0.6),
        SupervisionPolicy(task_timeout=0.1, **FAST),
    )
    assert _outcomes(result) == _outcomes(clean_result)
    assert result.timeouts >= 1
    assert result.quarantined == 0


def test_battery_transient_then_success_is_bit_identical(grid, clean_result):
    chaos_seed = _chaos_seed_for(grid, "transient", transient=0.6)
    result = _supervised(
        grid,
        ChaosSpec(seed=chaos_seed, transient=0.6, transient_attempts=2),
        SupervisionPolicy(max_attempts=4, **FAST),
    )
    assert _outcomes(result) == _outcomes(clean_result)
    assert result.retries >= 2  # two ruined attempts on the afflicted task


def test_battery_persistent_poison_quarantines_not_crashes(grid, clean_result):
    chaos_seed = _chaos_seed_for(grid, "poison", poison=0.5)
    result = _supervised(
        grid,
        ChaosSpec(seed=chaos_seed, poison=0.5),
        SupervisionPolicy(max_attempts=2, **FAST),
    )
    # Never a silent gap: the lost grid point is manifested...
    assert result.quarantined >= 1
    assert all(f.kind == "error" for f in result.failures)
    assert all(f.seeds for f in result.failures)
    # ...and the surviving points still fold to the clean estimates.
    clean_by_spec = {
        estimate.spec: estimate.outcomes for estimate in clean_result.estimates
    }
    assert 0 < len(result.estimates) < len(grid)
    for estimate in result.estimates:
        assert estimate.outcomes == clean_by_spec[estimate.spec]
    # The record carries the supervision tally.
    record = campaign_record(result)
    assert record["supervision"]["quarantined"] == result.quarantined
    assert record["supervision"]["failures"][0]["kind"] == "error"


def test_battery_supervised_run_matches_clean_under_multiprocess(grid, clean_result):
    """Supervision over a real process pool keeps the bit-identity."""
    chaos_seed = _chaos_seed_for(grid, "transient", transient=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_campaign(
            grid,
            trials=TRIALS,
            max_steps=MAX_STEPS,
            seed=ROOT_SEED,
            workers=2,
            chaos=ChaosSpec(seed=chaos_seed, transient=0.6, transient_attempts=1),
            supervision=SupervisionPolicy(**FAST),
        )
    assert _outcomes(result) == _outcomes(clean_result)


# ----------------------------------------------------------------------
# Interrupt + resume through the result cache
# ----------------------------------------------------------------------
def test_sigterm_is_delivered_as_keyboard_interrupt():
    with deliver_sigterm_as_interrupt():
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(1.0)  # interrupted by the handler


def _point_key(cache, index, spec):
    seeds = [derive_point_seed(ROOT_SEED, index, j) for j in range(TRIALS)]
    return cache.key_for(_outcome_block_payload(spec, seeds, MAX_STEPS, {}, None))


def _campaign(grid, **kwargs):
    return run_campaign(
        grid, trials=TRIALS, max_steps=MAX_STEPS, seed=ROOT_SEED, **kwargs
    )


def test_interrupt_keeps_points_in_cache_and_rerun_resumes(
    grid, clean_result, tmp_path, monkeypatch
):
    cache = ResultCache(tmp_path / "cache")
    reader = ResultCache(tmp_path / "cache")  # keeps the campaign's tallies
    real_runner = experiment_module.run_protocol_task
    last = grid[-1]
    stored_before_interrupt: list = []

    def interrupting(task):
        if task.spec == last:
            # Every earlier point has landed, so it is already stored.
            for i, spec in enumerate(grid[:-1]):
                stored_before_interrupt.append(
                    reader.lookup(_point_key(reader, i, spec))
                )
            raise KeyboardInterrupt  # the operator hits Ctrl-C
        return real_runner(task)

    monkeypatch.setattr(experiment_module, "run_protocol_task", interrupting)
    with pytest.raises(CampaignInterrupted, match="in the result cache") as excinfo:
        _campaign(grid, workers=1, batch_size=2, cache=cache)
    assert stored_before_interrupt == [
        [_outcome_payload(o) for o in estimate.outcomes]
        for estimate in clean_result.estimates[:-1]
    ]
    partial = excinfo.value.partial
    assert _outcomes(partial) == _outcomes(clean_result)[:-1]

    # Re-run against the same cache: only the missing point dispatches.
    done = {o.seed for e in clean_result.estimates[:-1] for o in e.outcomes}
    dispatched: list = []

    def refusing(task):
        if done & set(task.seeds):
            raise AssertionError("re-ran a grid point the cache holds")
        dispatched.append(task)
        return real_runner(task)

    monkeypatch.setattr(experiment_module, "run_protocol_task", refusing)
    resumed = _campaign(grid, workers=1, batch_size=2, cache=cache)
    assert [task.spec for task in dispatched] == [last, last]
    assert sum(len(task.seeds) for task in dispatched) == TRIALS
    assert _outcomes(resumed) == _outcomes(clean_result)
    assert resumed.cache_hits == len(grid) - 1


def test_interrupt_without_cache_says_nothing_was_kept(grid, monkeypatch):
    def interrupting(task):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiment_module, "run_protocol_task", interrupting)
    for kwargs in ({}, {"precision": 0.5}):
        with pytest.raises(CampaignInterrupted) as excinfo:
            _campaign(grid, workers=1, **kwargs)
        message = str(excinfo.value)
        assert "nothing was kept" in message
        assert "cache" not in message


def test_rerun_of_complete_campaign_dispatches_nothing(
    grid, clean_result, tmp_path, monkeypatch
):
    cache = ResultCache(tmp_path / "cache")
    first = _campaign(grid, workers=1, cache=cache)

    def poisoned(task):
        raise AssertionError("a complete campaign must not dispatch again")

    monkeypatch.setattr(experiment_module, "run_protocol_task", poisoned)
    resumed = _campaign(grid, workers=1, cache=cache)
    assert _outcomes(resumed) == _outcomes(first) == _outcomes(clean_result)


def _counting_runner(monkeypatch) -> list:
    dispatched: list = []
    real_runner = experiment_module.run_protocol_task

    def counting(task):
        dispatched.append(task)
        return real_runner(task)

    monkeypatch.setattr(experiment_module, "run_protocol_task", counting)
    return dispatched


def test_rerun_without_cache_dispatches_everything(grid, monkeypatch):
    _campaign(grid, workers=1)
    dispatched = _counting_runner(monkeypatch)
    _campaign(grid, workers=1)
    assert len(dispatched) == len(grid)  # nothing was kept, everything re-ran


def test_cache_resume_ignores_entries_from_a_different_campaign(
    grid, tmp_path, monkeypatch
):
    cache = ResultCache(tmp_path / "cache")
    _campaign(grid, workers=1, cache=cache)
    dispatched = _counting_runner(monkeypatch)
    # Same cache, different root seed: keys cannot match, so the re-run
    # computes everything instead of serving stale outcomes.
    run_campaign(
        grid,
        trials=TRIALS,
        max_steps=MAX_STEPS,
        seed=ROOT_SEED + 1,
        workers=1,
        cache=cache,
    )
    assert len(dispatched) == len(grid)


def test_quarantined_blocks_never_reach_the_result_cache(grid, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    chaos_seed = _chaos_seed_for(grid, "poison", poison=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        poisoned = run_campaign(
            grid,
            trials=TRIALS,
            max_steps=MAX_STEPS,
            seed=ROOT_SEED,
            workers=1,
            cache=cache,
            chaos=ChaosSpec(seed=chaos_seed, poison=0.5),
            supervision=SupervisionPolicy(max_attempts=2, **FAST),
        )
    assert poisoned.quarantined >= 1
    # Only the surviving grid points were stored; a clean re-run against
    # the same cache recomputes exactly the quarantined points.
    clean = run_campaign(
        grid,
        trials=TRIALS,
        max_steps=MAX_STEPS,
        seed=ROOT_SEED,
        workers=1,
        cache=cache,
    )
    assert clean.cache_hits == len(poisoned.estimates)
    assert clean.cache_misses == len(grid) - len(poisoned.estimates)


# ----------------------------------------------------------------------
# Cache store dedupe + info/prune (satellites)
# ----------------------------------------------------------------------
def test_cache_store_warns_once_and_counts_the_rest(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")

    def refuse(path, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("repro.cache.store.atomic_write_text", refuse)
    with pytest.warns(RuntimeWarning, match="cache write failed") as caught:
        cache.store(cache.key_for({"n": 1}), {"v": 1})
        cache.store(cache.key_for({"n": 2}), {"v": 2})
        cache.store(cache.key_for({"n": 3}), {"v": 3})
    assert len(caught) == 1  # deduped to one warning per instance
    assert cache.store_failures == 3
    assert cache.stats == {"hits": 0, "misses": 0, "store_failures": 3}


def test_cache_info_and_prune(tmp_path):
    root = tmp_path / "cache"
    current = ResultCache(root)
    current.store(current.key_for({"n": 1}), {"v": 1})
    stale = ResultCache(root, version=current.version - 1)
    stale.store(stale.key_for({"n": 2}), {"v": 2})
    info = current.info()
    assert info["entries"] == 2
    assert info["bytes"] > 0
    assert info["by_version"] == {
        str(current.version): 1,
        str(stale.version): 1,
    }
    pruned = current.prune()
    assert pruned["removed"] == 1 and pruned["bytes"] > 0
    assert current.info()["by_version"] == {str(current.version): 1}
    # The surviving entry still hits.
    assert current.lookup(current.key_for({"n": 1})) == {"v": 1}


def test_cache_prune_removes_corrupt_entries(tmp_path):
    root = tmp_path / "cache"
    cache = ResultCache(root)
    cache.store(cache.key_for({"n": 1}), {"v": 1})
    bad = root / "zz" / "zz-corrupt.json"
    bad.parent.mkdir(parents=True)
    bad.write_text("{not json", encoding="utf-8")
    assert cache.info()["by_version"]["corrupt"] == 1
    assert cache.prune()["removed"] == 1
    assert not bad.exists()


# ----------------------------------------------------------------------
# Reporting + CLI
# ----------------------------------------------------------------------
def test_render_failure_manifest_table():
    failures = [
        TaskFailure(
            index=3,
            label="S2PO a=0.1",
            seeds=(10, 11, 12, 13),
            attempts=3,
            kind="timeout",
            error="TimeoutError: no result within 5s",
        )
    ]
    table = render_failure_manifest(failures)
    assert "S2PO a=0.1" in table and "timeout" in table
    assert "(4 total)" in table  # long seed lists elide


def _cli(argv):
    from repro.cli import main

    return main(argv)


def test_cli_cache_info_and_prune(tmp_path, capsys):
    root = tmp_path / "cli-cache"
    current = ResultCache(root)
    current.store(current.key_for({"n": 1}), {"v": 1})
    ResultCache(root, version=current.version - 1).store("0" * 64, {"v": 2})
    assert _cli(["cache", "info", "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "(stale)" in out
    assert _cli(["cache", "prune", "--cache-dir", str(root)]) == 0
    assert "pruned 1 stale entries" in capsys.readouterr().out
    assert current.info()["entries"] == 1


def test_cli_supervised_chaos_sweep_with_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "failures.json"
    code = _cli(
        [
            "protocol-sweep",
            "--systems",
            "s0",
            "--schemes",
            "po",
            "--trials",
            "2",
            "--max-steps",
            "20",
            "--no-cache",
            "--chaos",
            "seed=1,crash=1.0",
            "--failure-manifest",
            str(manifest_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "supervision:" in out
    manifest = json.loads(manifest_path.read_text())
    assert manifest["retries"] >= 1 and manifest["quarantined"] == 0


_CLI_SWEEP = [
    "protocol-sweep",
    "--systems",
    "s0",
    "--schemes",
    "po",
    "--trials",
    "2",
    "--max-steps",
    "20",
]


def test_cli_cache_resume_dispatches_nothing(tmp_path, monkeypatch, capsys):
    common = [*_CLI_SWEEP, "--cache-dir", str(tmp_path / "cache")]
    assert _cli(common) == 0

    def poisoned(task):
        raise AssertionError("a cached re-run must not dispatch finished work")

    monkeypatch.setattr(experiment_module, "run_protocol_task", poisoned)
    assert _cli(common) == 0
    assert "result cache: 1 hits, 0 misses" in capsys.readouterr().out


def test_cli_interrupt_hint_names_the_cache_only_when_set(
    tmp_path, monkeypatch, capsys
):
    def interrupting(task):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiment_module, "run_protocol_task", interrupting)
    assert _cli([*_CLI_SWEEP, "--cache-dir", str(tmp_path / "cache")]) == 130
    err = capsys.readouterr().err
    assert "re-run the same command with the same --cache-dir to resume" in err
    assert _cli([*_CLI_SWEEP, "--no-cache"]) == 130
    err = capsys.readouterr().err
    assert "nothing was kept" in err
    assert "--cache-dir" not in err


# ----------------------------------------------------------------------
# Quarantine inside precision rounds and the splitting waves
# ----------------------------------------------------------------------
def _chaos_executor(text: str) -> TaskExecutor:
    return TaskExecutor(
        1,
        backend=ChaosBackend(ChaosSpec.parse(text), SerialBackend()),
        policy=SupervisionPolicy(**FAST),
    )


def test_precision_rounds_never_rerun_seeds_after_quarantine():
    """A quarantined batch leaves a hole; the next round's seeds start
    after it instead of re-running seeds the earlier rounds simulated."""
    executor = _chaos_executor("seed=5,poison=0.2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        estimate = estimate_protocol_lifetime(
            s1(Scheme.PO, alpha=0.3, entropy_bits=6),
            max_steps=30,
            precision=0.01,
            max_trials=96,
            batch_size=4,
            executor=executor,
        )
    seeds = [o.seed for o in estimate.outcomes]
    lost = {seed for failure in executor.manifest.failures for seed in failure.seeds}
    assert lost  # the fault pattern really quarantined batches
    assert len(seeds) == len(set(seeds))  # no seed ran twice
    assert seeds == sorted(seeds)  # seed_for(0..) in order, holes skipped
    assert set(seeds) | lost == set(range(96))
    assert not set(seeds) & lost


@pytest.mark.filterwarnings("ignore:task .* quarantined:RuntimeWarning")
def test_splitting_folds_surviving_waves_and_never_caches_holes(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    kwargs = dict(
        max_steps=6,
        workers=1,
        estimator="splitting",
        chaos=ChaosSpec.parse("seed=3,poison=0.5"),
        supervision=SupervisionPolicy(**FAST),
        cache=cache,
    )
    config = SplittingConfig(pilot_runs=16, replications=4, trajectories=4)
    spec = s1(Scheme.PO, alpha=0.05)
    with pytest.warns(RuntimeWarning, match="lost quarantined tasks"):
        result = run_campaign([spec], splitting=config, **kwargs)
    (estimate,) = result.estimates
    rare = estimate.rare
    assert result.quarantined > 0
    assert (rare.pilot_runs, rare.replications) != (
        config.pilot_runs,
        config.replications,
    )
    assert estimate.outcomes == rare.pilot_outcomes
    assert cache.info()["entries"] == 0  # an estimate with holes is never stored

    # With a single pilot batch quarantined nothing survives: dropped.
    lone = SplittingConfig(pilot_runs=8, replications=4, trajectories=4)
    with pytest.warns(RuntimeWarning, match="fully quarantined"):
        dropped = run_campaign([spec], splitting=lone, **kwargs)
    assert len(dropped) == 0 and dropped.quarantined == 1


# ----------------------------------------------------------------------
# The estimator="auto" re-pass runs on the campaign's own executor
# ----------------------------------------------------------------------
AUTO_GRID = [
    s1(Scheme.SO, alpha=0.2, entropy_bits=6),
    s1(Scheme.PO, alpha=0.01),  # censor-heavy at this budget
]
AUTO_SPLITTING = SplittingConfig(pilot_runs=8, replications=2, trajectories=4)


def _auto_campaign(**kwargs):
    return run_campaign(
        AUTO_GRID,
        trials=6,
        max_steps=6,
        seed=ROOT_SEED,
        workers=1,
        estimator="auto",
        splitting=AUTO_SPLITTING,
        **kwargs,
    )


def test_auto_repass_is_supervised_and_counts_its_retries():
    clean = _auto_campaign()
    assert [e.estimator for e in clean.estimates] == ["mc", "splitting"]
    chaos = ChaosSpec(seed=0, transient=1.0)  # every task fails once
    result = _auto_campaign(chaos=chaos, supervision=SupervisionPolicy(**FAST))
    assert result.estimates == clean.estimates
    mc_tasks = len(AUTO_GRID)  # one batch of 6 seeds per point
    splitting_tasks = 1 + AUTO_SPLITTING.replications  # one pilot batch
    assert result.retries == mc_tasks + splitting_tasks
    assert result.quarantined == 0


def test_interrupt_during_auto_repass_raises_campaign_interrupted(monkeypatch):
    def interrupting(task):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.rare.splitting.run_pilot_task", interrupting)
    with pytest.raises(CampaignInterrupted, match="1 of 2 grid points") as excinfo:
        _auto_campaign()
    (kept,) = excinfo.value.partial.estimates
    assert kept.spec == AUTO_GRID[0] and kept.estimator == "mc"
