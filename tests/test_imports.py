"""Import hygiene: the fleet dispatcher loads only the relay, and the
package's lazy re-exports still expose every public name.

Each check runs in a fresh interpreter, since this test process has
long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The decision core: none of it belongs in a process that only relays.
CORE = ("answerability", "chase", "containment", "matching", "service")


def run_fresh(script: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_the_dispatcher_loads_neither_networkx_nor_the_core():
    modules = json.loads(
        run_fresh(
            "import sys, json\n"
            "import repro.server.fleet, repro.__main__\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
    )
    assert "networkx" not in modules
    core = [
        name for name in modules
        if name.split(".")[:2] in [["repro", package] for package in CORE]
    ]
    assert core == []


def test_the_lazy_package_exposes_every_public_name():
    run_fresh(
        "import sys\n"
        "import repro\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        # Loading the subpackage binds it on the parent: the public name
        # `chase` must still be the chase function.
        "import repro.chase.engine\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "missing = set(repro.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
        "assert namespace['chase'] is sys.modules['repro.chase.engine'].chase\n"
        "assert repro.chase is namespace['chase']\n"
        "assert repro.Session is namespace['Session']\n"
        "import repro.server\n"
        "assert set(repro.server.__all__) <= set(dir(repro.server))\n"
        "for name in repro.server.__all__:\n"
        "    getattr(repro.server, name)\n"
        "for module in (repro, repro.server):\n"
        "    assert not hasattr(module, 'no_such_name'), module\n"
    )
