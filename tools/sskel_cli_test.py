#!/usr/bin/env python3
"""End-to-end tests of the `sskel` CLI over real SSKT capture files.

Usage:
    sskel_cli_test.py PATH_TO_SSKEL

Records a run, replays and inspects the capture, and checks that
damaged captures and failed writes end in a non-zero exit with a
message instead of a silent success.
"""

import os
import subprocess
import sys
import tempfile
import unittest

SSKEL = None  # set from argv in main

RUN_ARGS = ["--adversary=random", "--n=10", "--k=3", "--seed=4"]


def sskel(*args):
    return subprocess.run([SSKEL, *args], capture_output=True, text=True,
                          timeout=60, check=False)


def report_lines(stdout):
    """Outcome and verdict lines: everything but the recording notice."""
    return [line for line in stdout.splitlines()
            if not line.startswith("recorded ")]


class SskelCliTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.capture = os.path.join(self.tmp.name, "run.sskt")

    def tearDown(self):
        self.tmp.cleanup()

    def record(self):
        run = sskel("run", *RUN_ARGS, "--record=" + self.capture)
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("recorded ", run.stdout)
        return run

    def test_replay_reproduces_the_recorded_run(self):
        run = self.record()
        replay = sskel("replay", "--file=" + self.capture, "--k=3")
        self.assertEqual(replay.returncode, 0, replay.stderr)
        lines = report_lines(run.stdout)
        self.assertTrue(any(l.startswith("k-agreement ok") for l in lines))
        self.assertEqual(report_lines(replay.stdout), lines)

    def test_analyze_and_dump_read_the_capture(self):
        self.record()
        analyze = sskel("analyze", "--file=" + self.capture)
        self.assertEqual(analyze.returncode, 0, analyze.stderr)
        self.assertIn("root components", analyze.stdout)
        dump = sskel("dump", "--file=" + self.capture)
        self.assertEqual(dump.returncode, 0, dump.stderr)
        self.assertIn("source=simulator", dump.stdout)

    def test_truncated_capture_is_rejected_with_the_decode_error(self):
        self.record()
        with open(self.capture, "rb") as f:
            data = f.read()
        with open(self.capture, "wb") as f:
            f.write(data[:len(data) // 2])
        replay = sskel("replay", "--file=" + self.capture, "--k=3")
        self.assertEqual(replay.returncode, 1)
        self.assertIn("is not a valid capture: ", replay.stderr)
        self.assertIn(" at byte ", replay.stderr)

    def test_capture_missing_a_process_is_not_replayed(self):
        # A valid SSKT capture (n = 2) whose one graph holds process 0
        # only: magic, version, header {n, source, seed, D}, one graph
        # frame {round 1, node bitmap, two empty out-rows}, end frame.
        with open(self.capture, "wb") as f:
            f.write(b"SSKT\x01" + bytes([1, 4, 2, 0, 0, 0]) +
                    bytes([2, 4, 1, 0x01, 0, 0]) + bytes([7, 0]))
        dump = sskel("dump", "--file=" + self.capture)
        self.assertEqual(dump.returncode, 0, dump.stderr)
        self.assertIn("1 nodes", dump.stdout)
        # Psrcs(k) ranges over every process, the absent one included:
        # {0, 1} has no 2-source, so no k < n = 2 passes.
        analyze = sskel("analyze", "--file=" + self.capture)
        self.assertEqual(analyze.returncode, 0, analyze.stderr)
        self.assertIn("Psrcs(k) fails for every k < n", analyze.stdout)
        replay = sskel("replay", "--file=" + self.capture)
        self.assertEqual(replay.returncode, 1)
        self.assertIn("lacks a process", replay.stderr)

    @unittest.skipUnless(os.path.exists("/dev/full"), "no /dev/full")
    def test_failed_write_exits_nonzero(self):
        run = sskel("run", *RUN_ARGS, "--record=/dev/full")
        self.assertNotEqual(run.returncode, 0)
        self.assertIn("cannot write", run.stderr)
        self.assertNotIn("recorded ", run.stdout)

    def test_make_seed_writes_the_corpus_seeds(self):
        seeds = sskel("make-seed", "--out=" + self.tmp.name)
        self.assertEqual(seeds.returncode, 0, seeds.stderr)
        for name in ("graph_codec.bin", "trace_codec.bin"):
            self.assertTrue(os.path.getsize(os.path.join(self.tmp.name,
                                                         name)) > 0)
        dump = sskel("dump",
                     "--file=" + os.path.join(self.tmp.name,
                                              "trace_codec.bin"))
        self.assertEqual(dump.returncode, 0, dump.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    SSKEL = sys.argv.pop(1)
    unittest.main()
