"""Time a workload's set-up in this fresh interpreter and print the seconds.

Set-up is importing netmimo, resolving the layout and building every
allocation the run needs; for verify it is the import alone. Usage:

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED TRIALS
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402

src, workload, seed, trials = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, src)

import netmimo.cli  # noqa: E402
from netmimo.allocation import build_allocation  # noqa: E402
from netmimo.evaluation import db_to_linear  # noqa: E402

from workloads import WORKLOADS, make_config  # noqa: E402

wl = WORKLOADS[workload]
if wl.preset is not None:
    cfg = make_config(wl, seed, trials, ".")
    layout = netmimo.cli.resolve_layout(cfg)
    for db in cfg.snr_db:
        for spec in cfg.policies:
            build_allocation(spec, layout, cfg.gamma, db_to_linear(db))
print(repr(time.perf_counter() - _t0))
