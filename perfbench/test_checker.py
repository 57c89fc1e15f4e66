#!/usr/bin/env python3
"""Tests of the benchmark's independent output checker and of its input
generator.

    python3 perfbench/test_checker.py

Builds the CLI and probe like run.py does (into .bench_build/) and secures
small generated cases under .bench_work/.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.WORK, exist_ok=True)
        cls.work = tempfile.mkdtemp(prefix="test-checker-", dir=run.WORK)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def secure(self, family, scale, seed):
        """Generates one case and secures it with the CLI."""
        base = os.path.join(self.work, f"{family}-{scale}-{seed}")
        run.check_call([run.RSNSEC, "generate", "--benchmark", family,
                        "--scale", str(scale), "--seed", str(seed),
                        "--out-rsn", base + ".rsn", "--out-verilog",
                        base + ".v", "--out-spec", base + ".spec"])
        case = run.Case(0, base + ".rsn", base + ".v", base + ".spec")
        out = base + ".out.rsn"
        e = run.run_process(run.secure_argv(case, out, None),
                            base + ".stdout", base + ".stderr")
        return case, e, out, base

    def test_flags_unreadable_output_of_hybrid_isolation(self):
        # `secure` exits 0 and reports success, but the isolate fallback
        # left a one-input mux that read_rsn rejects.
        case, e, out, base = self.secure("TreeBalanced", 0.1, 1)
        self.assertEqual(e.exit_code, 0)
        self.assertIn("secured: yes", e.stdout)
        self.assertIn("hybrid: isolate TreeBalanced_r3", e.stdout)
        verdict = run.check_case(case, e.exit_code, out, base)
        self.assertIsNotNone(verdict)
        check, detail = verdict
        self.assertEqual(check, "read_output")
        self.assertIn("mux needs >= 2 inputs", detail)

    def test_passes_a_good_case(self):
        case, e, out, base = self.secure("p93791", 0.05, 9)
        self.assertEqual(e.exit_code, 0)
        self.assertGreater(run.text_changes(e.stdout), 0)
        self.assertIsNone(run.check_case(case, e.exit_code, out, base))

    def test_rejects_an_output_that_still_violates(self):
        # Passing the unsecured input off as the output must fail
        # certification.
        case, e, _, base = self.secure("p93791", 0.05, 9)
        verdict = run.check_case(case, 0, case.rsn, base)
        self.assertEqual(verdict[0], "certify")

    def test_any_other_exit_code_fails(self):
        case, _, out, base = self.secure("p93791", 0.05, 9)
        self.assertEqual(run.check_case(case, 1, out, base)[0], "exit")


class GenerateTest(unittest.TestCase):
    def test_probe_writes_what_the_cli_generates(self):
        # Set-up generates with the probe; the cases must be the ones
        # `rsnsec generate` gives for the same family, scale and seed.
        run.build()
        os.makedirs(run.WORK, exist_ok=True)
        work = tempfile.mkdtemp(prefix="test-generate-", dir=run.WORK)
        self.addCleanup(shutil.rmtree, work, True)
        for name, wl in run.WORKLOADS.items():
            seeds = [run.subseed(name, 1, d) for d in range(2)]
            run.check_call([run.PROBE, "generate", "--benchmark", wl.family,
                            "--scale", str(wl.scale), "--dir", work,
                            "--designs", ",".join(f"{name}{i}={s}" for i, s
                                                  in enumerate(seeds))])
            for i, seed in enumerate(seeds):
                cli = os.path.join(work, f"cli-{name}{i}")
                run.check_call([run.RSNSEC, "generate", "--benchmark",
                                wl.family, "--scale", str(wl.scale),
                                "--seed", str(seed), "--out-rsn",
                                cli + ".rsn", "--out-verilog", cli + ".v",
                                "--out-spec", cli + ".spec"])
                for ext in (".rsn", ".v", ".spec"):
                    self.assertEqual(
                        run.read_bytes(os.path.join(work, f"{name}{i}{ext}")),
                        run.read_bytes(cli + ext), f"{name}{i}{ext}")


if __name__ == "__main__":
    unittest.main()
