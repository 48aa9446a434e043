"""Start-up cost of each ``python -m symchar`` subcommand, one fresh process per run.

Runs each of the seven subcommands on a fixed small input, and a bare
``python -c pass`` beside them, ``--runs`` times each, the commands taking
turns, and prints one markdown row per command: the median wall time of the
whole process, the same less the bare interpreter's median, the total
source lines of the package modules that the command loaded, and those
modules and the heavy standard-library modules that it loaded beyond the
bare interpreter (read from one more run under ``-X importtime``).  The
line count does not depend on the machine's noise: with bytecode caching
off (``PYTHONDONTWRITEBYTECODE=1``) it is the package source that each
request compiles.

    PYTHONPATH=src python tools/startup.py [--runs N]

Point PYTHONPATH at another checkout's src to time that tree instead.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import subprocess
import sys
import time
from pathlib import Path

A2_ADJOINT = ("--algebra", "A2", "--lambda", "1,1")
COMMANDS = {
    "bare": ("-c", "pass"),
    "weights": ("-m", "symchar", "weights", *A2_ADJOINT),
    "pfd": ("-m", "symchar", "pfd", *A2_ADJOINT),
    "char": ("-m", "symchar", "char", *A2_ADJOINT, "--N", "3"),
    "mult": ("-m", "symchar", "mult", *A2_ADJOINT, "--N", "3", "--mu", "0,0"),
    "orbits": ("-m", "symchar", "orbits", *A2_ADJOINT, "--N", "3"),
    "vpart": ("-m", "symchar", "vpart", "--algebra", "A1", "--lambda", "2", "--max-n", "2"),
    "verify": ("-m", "symchar", "verify", "--case", "A1", "--max-n", "4"),
}
# Standard-library modules worth naming when a command loads them.
HEAVY = ("argparse", "ast", "dataclasses", "decimal", "dis", "fractions", "inspect", "json",
         "tokenize")


def wall(args: tuple[str, ...]) -> float:
    """Seconds from start to exit of one fresh interpreter running args."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def loaded(args: tuple[str, ...]) -> list[str]:
    """The modules one fresh interpreter running args imports, in import order."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args], check=True,
                          capture_output=True, text=True)
    return [line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("| imported package")]


def source_lines(modules: list[str]) -> int:
    """Lines of the files of the symchar.* modules among modules, from the symchar found here."""
    package = Path(importlib.util.find_spec("symchar").origin).parent
    return sum(len((package / ("%s.py" % (name.partition(".")[2] or "__init__"))).read_text()
                   .splitlines()) for name in modules if name.split(".")[0] == "symchar")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="runs per command (default 15)")
    args = parser.parse_args()

    times: dict[str, list[float]] = {name: [] for name in COMMANDS}
    for _ in range(args.runs):
        for name, command in COMMANDS.items():
            times[name].append(wall(command))
    medians = {name: 1000 * statistics.median(samples) for name, samples in times.items()}
    bare = set(loaded(COMMANDS["bare"]))

    print("| command | median (ms) | over bare (ms) | symchar lines | "
          "loaded beyond the bare interpreter |")
    print("| --- | --- | --- | --- | --- |")
    for name, command in COMMANDS.items():
        modules = loaded(command)
        extra = [module for module in modules if module not in bare
                 and (module.startswith("symchar") or module in HEAVY)]
        print("| %s | %.1f | %.1f | %d | %s |" % (
            name, medians[name], medians[name] - medians["bare"], source_lines(modules),
            " ".join(extra) or "-"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
