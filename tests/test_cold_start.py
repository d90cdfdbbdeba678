"""What a cold rmtlab process imports: scipy.special only at the first call
of a command that needs a scipy special function, and the order of that
import changes no output byte.

Each test runs sys.executable in a subprocess with PYTHONPATH=src, since
this test process has long since imported scipy.special itself.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# argv[1]: a JSON list of command lines, run in order; argv[2] == "first":
# import scipy.special before rmtlab.  Prints whether scipy.special was in
# sys.modules after each command.
_RUN = """
import json, sys
if sys.argv[2] == "first":
    import scipy.special
from rmtlab.cli import run
loaded = []
for argv in json.loads(sys.argv[1]):
    if run(argv) != 0:
        sys.exit(f"{argv} did not exit 0")
    loaded.append("scipy.special" in sys.modules)
print(json.dumps(loaded))
"""


def _python(cwd, *args):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run(cwd, commands, first=False):
    """Per command, whether scipy.special had been imported once it returned."""
    return json.loads(_python(cwd, "-c", _RUN, json.dumps(commands), "first" if first else "-"))


def test_import_leaves_scipy_special_out(tmp_path):
    code = "import sys, rmtlab.cli; print('scipy.special' in sys.modules)"
    assert _python(tmp_path, "-c", code).split() == ["False"]


def test_commands_without_special_functions_never_import_it(tmp_path):
    commands = [
        ["eqm", "--potential", "0,0,0.5", "--out", "eqm.json"],
        ["kernel", "--family", "sine", "--grid=-3:3:5", "--out", "sine.csv"],
        ["kernel", "--family", "pearcey", "--s", "0", "--grid=-1:1:3", "--out", "pearcey.csv"],
        ["oppoly", "--potential", "0,0,0.5", "--N", "16", "--nmax", "16", "--out", "hermite.csv"],
        ["converge", "--potential", "0,0,0.5", "--mode", "bulk", "--n", "16,32",
         "--out", "bulk.csv"],
        ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1", "--out", "gue.bin"],
    ]
    loaded = _run(tmp_path, commands)
    # cumulative: the first command listed is the one that imported it
    assert [" ".join(c) for c, hit in zip(commands, loaded) if hit] == []


def _without_timestamp(path):
    return [ln for ln in path.read_bytes().splitlines() if not ln.startswith(b"# timestamp")]


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "airy", "--grid=-2:2:5"],
    ["oppoly", "--potential", "0,1", "--hard-edge", "--N", "16", "--nmax", "16"],
    ["rh", "--potential", "0,0,0.5", "--n", "16"],
])
def test_first_use_import_changes_no_byte(tmp_path, argv):
    # the same relative --out in both runs, since the header records it
    argv = argv + ["--out", "out.csv"]
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    assert _run(cold, [argv]) == [True]
    assert _run(warm, [argv], first=True) == [True]
    assert _without_timestamp(cold / "out.csv") == _without_timestamp(warm / "out.csv")
