"""Each command loads only the modules it runs: a fresh interpreter per
command, and its sys.modules afterwards."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from ric import cli
with redirect_stdout(io.StringIO()):
    cli.run(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""

# what the dataclass decorator imports; no command needs it at start-up
SLOW = {"dataclasses", "inspect"}
# start-up time and memory: the oracle's trials run on plain records and
# its workers are plain forks, so no state copier, digest, serializer or
# process pool is imported
TRIALS = {"copy", "hashlib", "pickle", "multiprocessing", "concurrent"}
NEVER = {
    "check": {"ric.oracle", "ric.patcher", "ric.refiner", "difflib"} | SLOW,
    "patch": {"ric.oracle", "ric.refiner"} | SLOW,
    "refine": {"ric.oracle", "ric.patcher", "difflib"} | SLOW,
    "oracle": {"ric.patcher", "ric.refiner", "difflib"} | SLOW | TRIALS,
}
OWN = {
    "check": "ric.checker",
    "patch": "ric.patcher",
    "refine": "ric.refiner",
    "oracle": "ric.oracle",
}


@pytest.mark.parametrize("command", sorted(NEVER))
def test_command_loads_only_what_it_runs(tmp_path, command):
    src = tmp_path / "f.c"
    src.write_text('int f(int x, int y) {\n  asm ("addl %1, %0" : "+r" (x) : "r" (y));\n}\n')
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", PROBE, command, "--trials", "2", str(src)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert OWN[command] in loaded
    assert not loaded & NEVER[command], command
