"""The benchmark's span tracer must see every layer the CLI reaches.

`perfbench/tracer.py` wraps functions by rebinding module globals, so a
dispatch table that captures function objects at import time would hide
those calls from the traced metrics while still computing the right
answers.  This runs tiny CLI commands under the tracer in a child
interpreter (the wrapping is process-wide) and checks that each membership
test and suite is counted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import contextlib, io, json, sys
from tracer import Tracer, derive
import slnbranch.cli

tracer = Tracer(0)
tracer.install()
commands = [
    ["branching", "--n", "3", "--j", "1", "--k", "0", "--order", "3", "--method", "all"],
    ["js", "chi", "--n", "3", "--core", "-", "--order", "2", "--method", "both"],
    ["verify", "--suite", "js", "--n", "3", "--max-size", "5", "--order", "2"],
    ["verify", "--suite", "fow", "--n", "3", "--max-size", "4"],
    ["verify", "--suite", "cores", "--n", "3", "--max-size", "4"],
    ["verify", "--suite", "crystal", "--n", "3", "--max-size", "4"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [slnbranch.cli.main(argv) for argv in commands]
tracer.write(sys.argv[1])
calls = {name: v["calls"] for name, v in derive(sys.argv[1])["by_name"].items()}
print(json.dumps({"codes": codes, "calls": calls}))
"""


def test_traced_cli_counts_every_route(tmp_path):
    spans = tmp_path / "tiny.spans"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(spans)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0, 0]
    calls = result["calls"]
    for name in (
        "branching.in_path_set",
        "branching.in_fow",
        # The fow and crystal routes of `branching --method all` each count
        # their whole series in one call through these two, so their spans
        # must not fall to zero.
        "branching._census",
        "branching._class_members",
        "crystal.epsilon_vector",
        "jantzen_seitz.is_js",
        "jantzen_seitz.is_js_by_crystal",
        "verify.verify_js",
        "verify.verify_cores",
        "verify.verify_crystal",
        "cores.n_core",
    ):
        assert calls[name] > 0, name
