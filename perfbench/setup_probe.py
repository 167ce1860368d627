"""Set-up probe: one fresh process that prepares a workload, then exits.

    python3 perfbench/setup_probe.py <workload> <scale> <work-dir>

It imports the campaign stack, resolves the workload's grid (which
loads the scenario registry) and creates an empty result cache under
``<work-dir>``: everything a campaign needs before its first call.
``run.py`` times this whole process, interpreter start included.
"""

import sys
import tempfile
from pathlib import Path

import campaigns

name, scale, work = sys.argv[1:4]
campaigns.workloads(scale)[name].grid()
campaigns.ResultCache(Path(tempfile.mkdtemp(dir=work)))
