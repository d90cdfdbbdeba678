"""What a cold rmtlab process imports: no scipy module at import;
scipy.special only at the first call of a command that needs a scipy
special function, scipy.linalg only at the first dense `sample` draw; and
the order of either import changes no output byte.

Each test runs sys.executable in a subprocess with PYTHONPATH=src, since
this test process has long since imported scipy itself.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# argv[1]: a JSON list of command lines, run in order; argv[2]: a module to
# import before rmtlab, or "-".  Prints which of scipy.linalg and
# scipy.special were in sys.modules after each command.
_RUN = """
import json, sys
if sys.argv[2] != "-":
    __import__(sys.argv[2])
from rmtlab.cli import run
loaded = []
for argv in json.loads(sys.argv[1]):
    if run(argv) != 0:
        sys.exit(f"{argv} did not exit 0")
    loaded.append([m for m in ("scipy.linalg", "scipy.special") if m in sys.modules])
print(json.dumps(loaded))
"""

# commands that call no scipy function: nothing but numpy and rmtlab
NO_SCIPY = [
    ["eqm", "--potential", "0,0,0.5", "--out", "eqm.json"],
    ["kernel", "--family", "sine", "--grid=-3:3:5", "--out", "sine.csv"],
    ["kernel", "--family", "pearcey", "--s", "0", "--grid=-1:1:3", "--out", "pearcey.csv"],
    ["oppoly", "--potential", "0,0,0.5", "--N", "16", "--nmax", "16", "--out", "hermite.csv"],
    ["oppoly", "--potential", "0,1", "--hard-edge", "--N", "16", "--nmax", "16",
     "--out", "laguerre.csv"],
    ["oppoly", "--potential", "0,0,0.5", "--alpha", "1.5", "--N", "16", "--nmax", "16",
     "--out", "hermite_alpha.csv"],
    ["converge", "--potential", "0,0,0.5", "--mode", "bulk", "--n", "16,32", "--out", "bulk.csv"],
    ["sample", "--metropolis", "--potential", "0,0,0.5", "--beta", "2", "--n", "4", "--count", "4",
     "--steps", "10", "--seed", "1", "--out", "mcmc.bin"],
]
# commands that call a scipy special function
SPECIAL = [
    ["kernel", "--family", "airy", "--grid=-2:2:5", "--out", "airy.csv"],
    ["kernel", "--family", "bessel_hard", "--alpha", "0.5", "--grid=0.5:2:3", "--out", "bessel.csv"],
    ["converge", "--potential", "0,1", "--hard-edge", "--mode", "hard", "--n", "16",
     "--out", "hard.csv"],
    ["rh", "--potential", "0,0,0.5", "--n", "16", "--out", "rh.csv"],
]
DENSE_SAMPLE = ["sample", "--beta", "2", "--n", "8", "--count", "4", "--seed", "1",
                "--out", "gue.bin"]


def _python(cwd, *args):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run(cwd, commands, first="-"):
    """Per command, which of scipy.linalg and scipy.special had been
    imported once it returned (cumulative over the commands)."""
    return json.loads(_python(cwd, "-c", _RUN, json.dumps(commands), first))


def test_import_leaves_scipy_out(tmp_path):
    code = "import sys, rmtlab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _python(tmp_path, "-c", code).split() == ["[]"]


def test_commands_without_special_functions_never_import_it(tmp_path):
    loaded = _run(tmp_path, NO_SCIPY + [DENSE_SAMPLE])
    assert loaded == [[]] * len(NO_SCIPY) + [["scipy.linalg"]]


def test_only_a_dense_sample_imports_scipy_linalg(tmp_path):
    loaded = _run(tmp_path, SPECIAL + [DENSE_SAMPLE])
    assert loaded == [["scipy.special"]] * len(SPECIAL) + [["scipy.linalg", "scipy.special"]]


def _without_timing(path):
    """The lines of an output file but its timestamp and a trailing
    runtime_seconds column (converge's)."""
    lines = [ln for ln in path.read_bytes().splitlines() if not ln.startswith(b"# timestamp")]
    if any(ln.endswith(b",runtime_seconds") for ln in lines):
        lines = [ln if ln.startswith(b"#") else ln.rsplit(b",", 1)[0] for ln in lines]
    return lines


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "airy", "--grid=-2:2:5"],
    ["converge", "--potential", "0,1", "--hard-edge", "--mode", "hard", "--n", "16"],
    ["rh", "--potential", "0,0,0.5", "--n", "16"],
])
def test_first_use_import_changes_no_byte(tmp_path, argv):
    # the same relative --out in both runs, since the header records it
    argv = argv + ["--out", "out.csv"]
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    assert _run(cold, [argv]) == [["scipy.special"]]
    assert _run(warm, [argv], first="scipy.special") == [["scipy.special"]]
    assert _without_timing(cold / "out.csv") == _without_timing(warm / "out.csv")


@pytest.mark.parametrize("beta", ["1", "2", "4"])
def test_first_dense_draw_import_changes_no_byte(tmp_path, beta):
    argv = ["sample", "--beta", beta, "--n", "32", "--count", "12", "--seed", "3",
            "--out", "batch.bin"]
    runs = {name: tmp_path / name for name in ("cold", "warm", "pool")}
    for path in runs.values():
        path.mkdir()
    assert _run(runs["cold"], [argv + ["--workers", "1"]]) == [["scipy.linalg"]]
    assert _run(runs["warm"], [argv + ["--workers", "1"]], first="scipy.linalg") == [["scipy.linalg"]]
    # with more than one CPU the draws, and so the import, run in the workers
    _run(runs["pool"], [argv + ["--workers", "2"]])
    bins = {(path / "batch.bin").read_bytes() for path in runs.values()}
    assert len(bins) == 1
    assert _without_timing(runs["cold"] / "batch_hist.csv") == _without_timing(
        runs["warm"] / "batch_hist.csv")
