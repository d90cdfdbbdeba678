"""Self-tests of the benchmark harness.

Run from the root of the checkout: python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostprobe  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402


def _bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=180)
    return proc


class TracerTest(unittest.TestCase):
    def test_copy_bound_by_name_is_traced_as_specfun(self):
        import rmtlab.kernels as kr

        tracer = spantrace.Tracer().install()
        try:
            kr.airy(0.5)
            kr.airy_kernel(0.1, 0.7)
        finally:
            tracer.uninstall()
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[0], "specfun.airy")
        self.assertEqual(tracer.spans[0][3], -1)
        kernel = names.index("kernels.airy_kernel")
        children = [s[0] for s in tracer.spans if s[3] == kernel]
        self.assertEqual(children, ["specfun.airy", "specfun.airy"])
        import rmtlab.specfun as sf
        self.assertIs(kr.airy, sf.airy)
        self.assertFalse(hasattr(kr.airy, "__wrapped__"))

    def test_self_time_arithmetic(self):
        # cli.run [0, 10] > kernels.a [1, 7] > specfun.airy [2, 5]
        #                                    > kernels.b [5.5, 6.5]
        #                > specfun.airy [8, 9]
        spans = [("cli.run", 0.0, 10.0, -1, 0, True, None),
                 ("kernels.a", 1.0, 7.0, 0, 0, True, None),
                 ("specfun.airy", 2.0, 5.0, 1, 0, True, None),
                 ("kernels.b", 5.5, 6.5, 1, 0, True, None),
                 ("specfun.airy", 8.0, 9.0, 0, 0, False, None)]
        m = spantrace.layer_metrics(spans)
        self.assertAlmostEqual(m["cli.self_s"], 3.0)
        self.assertAlmostEqual(m["kernels.self_s"], 3.0)
        self.assertAlmostEqual(m["specfun.self_s"], 4.0)
        self.assertAlmostEqual(m["specfun.airy.self_s"], 4.0)
        self.assertEqual(m["specfun.airy.calls"], 2)
        self.assertEqual(m["kernels.calls"], 2)
        self.assertAlmostEqual(spantrace.root_time(spans), 10.0)
        layers = ("cli", "kernels", "specfun")
        self.assertAlmostEqual(sum(m[f"{k}.self_s"] for k in layers), 10.0)


class CheckTest(unittest.TestCase):
    def test_perturbed_table_fails_and_counts(self):
        from rmtlab import cli

        job = workloads._oppoly("oppoly_hermite_32", workloads.HERMITE, 32)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
            out = os.path.join(tmp, "oppoly_hermite_32.csv")
            argv = list(job["argv"])
            argv[argv.index("--out") + 1] = out
            self.assertEqual(cli.run(argv), 0)
            good = {"rc": 0, "error": None, "seconds": 0.1, "bytes_written": 1}
            rec = {"jobs": [dict(good)]}
            run.check_pass([job], rec, Path(tmp), {})
            self.assertTrue(rec["jobs"][0]["ok"], rec["jobs"][0]["detail"])

            with open(out) as fh:
                lines = fh.readlines()
            row = lines.index(next(ln for ln in lines if ln.startswith("5,")))
            k, a, b, g = lines[row].strip().split(",")
            lines[row] = f"{k},{float(a) * (1 + 1e-6)!r},{b},{g}\n"
            with open(out, "w") as fh:
                fh.writelines(lines)
            rec = {"jobs": [dict(good)]}
            run.check_pass([job], rec, Path(tmp), {})
            self.assertFalse(rec["jobs"][0]["ok"])
            self.assertEqual(run.tally([rec]), (1, 1))

    def test_benchmark_json_names_every_reported_metric(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         [n for n, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         spantrace.metric_names() + run.TRACE_METRICS)
        self.assertEqual(set(w["name"] for w in bench["workloads"]),
                         set(workloads.GROUPS) - {"finite_n_full"})


class ProbeTest(unittest.TestCase):
    def test_scale_ignores_stalled_probe(self):
        nominal = hostprobe.PROBE_NOMINAL_S
        times = [2 * nominal] * 9 + [40 * nominal]
        self.assertAlmostEqual(hostprobe.speed_scale(times), 0.5)

    def test_probes_follow_job_length(self):
        self.assertEqual(len(hostprobe.probes_after(0.0)), 1)
        long_job = 3 * hostprobe.PROBE_NOMINAL_S / hostprobe.PROBE_SHARE
        self.assertEqual(len(hostprobe.probes_after(long_job)), 3)


class RunTest(unittest.TestCase):
    def test_second_seed_runs_clean(self):
        for workload in ("ensembles", "limits"):
            proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1",
                          "--trace", "0")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual((res["correct"], res["failed"]), (True, 0), proc.stdout)

    def test_refuses_without_source_tree(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "finite_n", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], capture_output=True, text=True,
                                  cwd=tmp, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    unittest.main()
