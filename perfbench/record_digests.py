"""Record the outcome digests that ``run.py`` checks its first repetition against.

    python3 perfbench/record_digests.py 10

Runs repetition 0 of every workload for seeds ``0 .. N-1`` at full
scale (without a result cache) and writes ``perfbench/digests.json``.
Re-record only when a change is meant to alter campaign outcomes, which
also bumps ``ENGINE_VERSION``.
"""

import json
import sys

import campaigns

seeds = range(int(sys.argv[1]))
digests = {
    name: {
        str(seed): campaigns.outcome_digest(
            workload.run(campaigns.root_seed(name, seed, 0), None)
        )
        for seed in seeds
    }
    for name, workload in campaigns.workloads().items()
}
campaigns.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
