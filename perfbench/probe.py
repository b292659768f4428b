"""Set-up probe: a fresh interpreter imports curvimom, runs one operation, says so.

    python3 perfbench/probe.py '[["check", "--seed", "3", "--format", "json"]]' 8 1

The benchmark times this process from its start until the "ready" line,
which covers interpreter start, the curvimom import and cold caches such
as the first Gauss-Legendre node solve.  The probe then prints the factor
from wall to reference seconds, the median of five samples taken on the
core it ran on, after the timed part; the last two arguments are the
reference batch's mix (see hostspeed.py).
"""

import json
import statistics
import sys

from cli_exec import Runner, import_cli
from hostspeed import Gauge


def main() -> None:
    commands = json.loads(sys.argv[1])
    mix = (int(sys.argv[2]), int(sys.argv[3]))
    cli = Runner(import_cli())
    for argv in commands:
        cli(argv)
    print("ready", flush=True)
    gauge = Gauge(mix)
    print(statistics.median(gauge.scale() for _ in range(5)), flush=True)


if __name__ == "__main__":
    main()
