"""Time one workload's set-up in a fresh interpreter.

Usage: python3 setup_probe.py <src-dir> <shape as JSON>

Prints the host seconds from this script's first statement until the
workload could start: importing miserysim, then run_experiment's own
prologue (config check, wiring, building the digraph and deploying it) up
to where the deployment has rolled out, plus building the attacker's
digraph.  The prologue is the program's own code path: run_experiment is
stopped where its first Simulation.run_until returns, which is the wait
for the deploy task.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from miserysim.attacker import attack_digraph  # noqa: E402
from miserysim.experiment import ExperimentConfig, run_experiment  # noqa: E402
from miserysim.sim import Simulation  # noqa: E402


class RolledOut(Exception):
    """Raised from the first Simulation.run_until once it has returned."""


def main() -> None:
    shape = json.loads(sys.argv[2])
    run_until = Simulation.run_until

    def stop_after_rollout(simulation, future, limit=None):
        run_until(simulation, future, limit)
        raise RolledOut

    Simulation.run_until = stop_after_rollout
    try:
        run_experiment(ExperimentConfig(**shape))
    except RolledOut:
        pass
    else:
        sys.exit("run_experiment never waited on Simulation.run_until")
    attack_digraph(shape["d"], shape["k"])
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
