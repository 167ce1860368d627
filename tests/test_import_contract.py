"""The protocol path's import contract: stdlib only, numpy on demand.

Protocol campaigns, scenario runs and the CLI's protocol commands import
and run without numpy; only :mod:`repro.analysis` and the
:mod:`repro.mc` samplers need it.  These tests lock that down:

* the pure-Python :func:`~repro.mc.executor.derive_point_seed` equals
  ``numpy.random.SeedSequence`` on every input, and so does each seed of
  a :func:`~repro.mc.executor.derive_point_seeds` block;
* the lazy (PEP 562) exports of :mod:`repro` and of every subpackage
  resolve to the defining modules' objects;
* a process with ``numpy`` blocked runs fixed-count, precision,
  ``estimator="auto"`` and CLI campaigns to records equal to an
  ordinary process's, and an ordinary process never loads numpy on
  that path — neither the orchestrator nor its pool workers;
* preparing a campaign loads none of the modules a campaign does not
  use before its pool starts, and a pool worker imports no ``repro``
  module while it runs campaign tasks.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mc.executor import derive_point_seed, derive_point_seeds

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``repro`` and every subpackage whose init serves lazy exports.
LAZY_PACKAGES = ["repro"] + sorted(
    f"repro.{init.parent.name}"
    for init in (SRC / "repro").glob("*/__init__.py")
    if "_EXPORTS" in init.read_text()
)


def _fresh_python(
    code: str, *args: str, flags: tuple = ()
) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter on ``src/``; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed

seed_words = st.integers(min_value=0, max_value=2**128 - 1)


# ----------------------------------------------------------------------
# derive_point_seed is SeedSequence, without numpy
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(root=seed_words, indices=st.lists(seed_words, max_size=5))
def test_point_seed_matches_numpy_seed_sequence(root, indices):
    sequence = np.random.SeedSequence([root, *indices])
    expected = int(sequence.generate_state(1, np.uint64)[0])
    assert derive_point_seed(root, *indices) == expected


#: Block starts: anywhere, and just below the word boundaries at 2**32
#: and 2**64, where the last index gains a word inside the block.
block_starts = st.one_of(
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=2**32 - 8, max_value=2**32 + 1),
    st.integers(min_value=2**64 - 8, max_value=2**64 + 1),
)


@settings(max_examples=300, deadline=None)
@given(
    root=seed_words,
    prefix=st.lists(seed_words, max_size=4),
    start=block_starts,
    length=st.integers(min_value=-2, max_value=10),  # <= 0: an empty range
)
def test_seed_blocks_match_numpy_seed_sequence(root, prefix, start, length):
    stop = start + length
    block = derive_point_seeds(root, *prefix, start=start, stop=stop)
    assert block == [derive_point_seed(root, *prefix, j) for j in range(start, stop)]
    expected = [
        int(np.random.SeedSequence([root, *prefix, j]).generate_state(1, np.uint64)[0])
        for j in range(start, stop)
    ]
    assert block == expected


@settings(max_examples=50, deadline=None)
@given(
    components=st.lists(seed_words, min_size=1, max_size=6),
    position=st.integers(min_value=0, max_value=5),
    negative=st.integers(max_value=-1),
)
def test_point_seed_rejects_negative_components(components, position, negative):
    components[position % len(components)] = negative
    with pytest.raises(ConfigurationError):
        derive_point_seed(*components)


# ----------------------------------------------------------------------
# Lazy package exports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_the_defining_module(package_name):
    package = importlib.import_module(package_name)
    for name, module_name in package._EXPORTS.items():
        module = importlib.import_module(f"{package.__name__}.{module_name}")
        assert getattr(package, name) is getattr(module, name), name
    assert set(package.__all__) <= set(dir(package))
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name), name
    with pytest.raises(AttributeError):
        package.no_such_export
    assert not hasattr(package, "no_such_export")


def test_scenario_registry_does_not_need_an_eager_import():
    names = _fresh_python(
        """
        from repro.scenarios import all_scenarios

        print(" ".join(spec.name for spec in all_scenarios()))
        """
    ).stdout.split()
    assert names == [
        "paper-baseline",
        "crash-storm-under-attack",
        "rolling-outages",
        "partitioned-attacker",
        "lossy-wan",
        "degraded-timing",
        "stealth-prober",
        "coordinated-attacker",
        "combined-stress",
    ]


# ----------------------------------------------------------------------
# Start-up: what preparing a campaign loads, and what a worker imports
# ----------------------------------------------------------------------
#: Modules no campaign needs before its pool starts.
NOT_AT_START_UP = (
    "repro.supervision.chaos",
    "repro.sim.trace",
    "repro.telemetry.progress",
    "repro.rare",
    "repro.analysis",
    "repro.reporting",
    "repro.mc.pool",
    "multiprocessing",
    "concurrent.futures.process",
    "numpy",
)


def test_preparing_a_campaign_loads_only_what_it_uses():
    loaded = _fresh_python(
        """
        import sys

        import repro.cache
        import repro.core.campaign
        from repro.scenarios import get_scenario

        get_scenario("combined-stress").grid()
        print(" ".join(sys.modules))
        """
    ).stdout.split()
    assert [name for name in NOT_AT_START_UP if name in loaded] == []


#: Runs a tiny scenario campaign and a tiny plain campaign on two
#: workers; a meta-path hook installed before any ``repro`` import (and
#: inherited by the forked workers) appends each ``repro`` module a
#: worker imports to the file ``argv[1]``.
WORKER_IMPORTS = """
    import multiprocessing
    import os
    import sys

    LOG = sys.argv[1]
    ORCHESTRATOR = os.getpid()


    class WorkerImportLog:
        @staticmethod
        def find_spec(name, path=None, target=None):
            if os.getpid() != ORCHESTRATOR and name.split(".")[0] == "repro":
                with open(LOG, "a") as log:
                    log.write(name + "\\n")
            return None  # the regular finders import it


    sys.meta_path.insert(0, WorkerImportLog)

    from repro.core.campaign import run_campaign, run_scenario_campaign
    from repro.core.specs import s1, s2
    from repro.randomization.obfuscation import Scheme
    from repro.scenarios import get_scenario

    scenario = get_scenario("combined-stress").replace(
        name="worker-imports", entropy_bits=6, alphas=(0.3,)
    )
    run_scenario_campaign(
        scenario, trials=4, max_steps=10, seed=1, workers=2, batch_size=2
    )
    assert "repro.mc.pool" in sys.modules  # its two tasks ran on a pool
    run_campaign(
        [s1(Scheme.SO, alpha=0.2, entropy_bits=6), s2(Scheme.PO, entropy_bits=6)],
        trials=4,
        max_steps=10,
        seed=1,
        workers=2,
    )
    assert multiprocessing.active_children() == []
    """


def test_pool_workers_import_nothing(tmp_path):
    """The orchestrator loads the whole run path before its pool forks.

    The child runs in dev mode with ``ResourceWarning`` and a serial
    fallback's ``RuntimeWarning`` as errors, so a pipe left open, a
    worker never joined or tasks run in-process fail this test too.
    """
    log = tmp_path / "worker_imports.txt"
    flags = ("-X", "dev", "-W", "error::ResourceWarning", "-W", "error::RuntimeWarning")
    completed = _fresh_python(WORKER_IMPORTS, str(log), flags=flags)
    assert "ResourceWarning" not in completed.stderr, completed.stderr
    assert not log.exists(), log.read_text()


# ----------------------------------------------------------------------
# Protocol campaigns with numpy blocked
# ----------------------------------------------------------------------
#: Runs every protocol-path entry point and prints the records as JSON.
#: ``argv[1]`` is ``blocked`` (numpy made unimportable before any repro
#: import; forked pool workers inherit the block) or ``plain``.
CAMPAIGNS = textwrap.dedent(
    """
    import json
    import sys

    if sys.argv[1] == "blocked":
        sys.modules["numpy"] = None

    from repro.cli import main
    from repro.core.campaign import (
        campaign_record,
        run_campaign,
        run_scenario_campaign,
    )
    from repro.core.experiment import ProtocolTask
    from repro.core.specs import s1, s2
    from repro.mc.executor import TaskExecutor
    from repro.randomization.obfuscation import Scheme
    from repro.rare.splitting import SplittingConfig
    from repro.scenarios import get_scenario

    import numpy_probe


    def comparable(record):
        record.pop("wall_seconds", None)
        record.pop("cache", None)
        return record


    records = {}
    fixed = run_campaign(
        [
            s1(Scheme.SO, alpha=0.2, entropy_bits=6),
            s2(Scheme.PO, alpha=0.2, entropy_bits=6),
        ],
        trials=4,
        max_steps=30,
        seed=3,
        workers=2,
    )
    records["fixed"] = comparable(campaign_record(fixed))
    scenario = get_scenario("crash-storm-under-attack").replace(
        name="numpy-free-precision",
        entropy_bits=6,
        alphas=(0.3,),
        systems=("s1",),
    )
    precision = run_scenario_campaign(
        scenario, max_steps=50, seed=2, precision=0.35, min_trials=6, max_trials=60
    )
    records["precision"] = comparable(campaign_record(precision, scenario=scenario))
    auto = run_campaign(
        [s2(Scheme.PO, entropy_bits=8, alpha=0.05, kappa=k) for k in (0.5, 0.8)],
        trials=8,
        max_steps=12,
        seed=16,
        estimator="auto",
        splitting=SplittingConfig(pilot_runs=8, replications=2, trajectories=4),
    )
    records["auto"] = comparable(campaign_record(auto))
    output = sys.argv[2]
    code = main(
        [
            "protocol-sweep", "--systems", "s1", "s2", "--schemes", "so",
            "--alphas", "0.2", "--entropy-bits", "6", "--trials", "4",
            "--max-steps", "30", "--workers", "2", "--no-cache",
            "--output", output,
        ]
    )
    assert code == 0, code
    with open(output) as handle:
        records["cli"] = comparable(json.load(handle))
    tasks = [ProtocolTask(s1(Scheme.SO, alpha=0.2), (seed,), 20) for seed in range(4)]
    worker_numpy = TaskExecutor(2).map(numpy_probe.run_and_report, tasks)
    records["numpy_loaded"] = {
        "orchestrator": "numpy" in sys.modules,
        "workers": any(worker_numpy),
    }
    print(json.dumps(records, sort_keys=True))
    """
)

#: A picklable worker-side probe: runs a protocol task, then reports
#: whether that worker process has numpy loaded.
NUMPY_PROBE = textwrap.dedent(
    """
    import sys

    from repro.core.experiment import run_protocol_task


    def run_and_report(task):
        run_protocol_task(task)
        return "numpy" in sys.modules
    """
)


def _run_campaigns(mode: str, tmp_path: Path) -> dict:
    (tmp_path / "numpy_probe.py").write_text(NUMPY_PROBE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(tmp_path)])
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            CAMPAIGNS,
            mode,
            str(tmp_path / f"sweep_{mode}.json"),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=600,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_protocol_path_runs_with_numpy_blocked(tmp_path):
    blocked = _run_campaigns("blocked", tmp_path)
    plain = _run_campaigns("plain", tmp_path)
    loaded = plain.pop("numpy_loaded")
    assert loaded == {"orchestrator": False, "workers": False}
    blocked.pop("numpy_loaded")
    # The splitting passes ran, and every record is the ordinary one.
    assert [row["estimator"] for row in plain["auto"]["rows"]] == ["splitting"] * 2
    assert plain["precision"]["rows"][0]["runs"] > 6
    for name in plain:
        blocked_json = json.dumps(blocked[name], sort_keys=True)
        assert blocked_json == json.dumps(plain[name], sort_keys=True), name
