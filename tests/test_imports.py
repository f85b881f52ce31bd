"""Cold-start footprint: importing the CLI generates no code.

Every command is a fresh process, so what `import laurentreal.cli` loads
is paid on every run.  dataclasses exec()s generated source for each
decorated class and pulls in inspect, ast, dis and tokenize; typing and
pathlib are large imports the program has no use for.
"""

import os
import subprocess
import sys

import laurentreal

FORBIDDEN = {"dataclasses", "inspect", "typing", "pathlib", "ast", "dis", "tokenize"}

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import laurentreal.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_code_generating_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(laurentreal.__file__)))
    # -S skips site hooks, which may load some of these modules on their own
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, src],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(done.stdout.split())
    assert "laurentreal.cli" in loaded
    assert not loaded & FORBIDDEN
