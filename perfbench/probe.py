"""Set-up time probe: run one subspace-est command in a fresh interpreter and
stop it where its trials or draws would start.

    python3 perfbench/probe.py <subspace-est argv...>

Prints time.perf_counter() (a system-wide monotonic clock on Linux) at the
entry of harness.monte_carlo_risk or entropy.dudley_estimate and exits 0
without writing outputs.  The parent subtracts its own clock reading taken
just before the spawn, so the difference covers interpreter start, imports
and config resolution.  Exits 5 if the command never reaches either call.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subspace_est import cli, entropy, harness  # noqa: E402


def _stop(*args, **kwargs):
    print(repr(time.perf_counter()), flush=True)
    os._exit(0)


harness.monte_carlo_risk = _stop
entropy.dudley_estimate = _stop

if __name__ == "__main__":
    cli.main(sys.argv[1:])
    sys.exit(5)
