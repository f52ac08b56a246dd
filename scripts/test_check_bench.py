#!/usr/bin/env python3
"""Unit tests for check_bench.py over synthetic bench payloads.

Run with: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import copy
import io
import unittest

import check_bench

# Per-round yardstick timings: the host's speed moves from round to
# round, and each round's ratio cancels it.
YARDSTICK = [1.00, 1.02, 0.99, 1.01, 1.00]


def samples(ratio, scale=1.0, noise=0.0):
    """Five subject samples at RATIO of the yardstick, the i-th round
    moved by (i - 2) * NOISE."""
    return [y * scale * ratio * (1 + (i - 2) * noise)
            for i, y in enumerate(YARDSTICK)]


def payload(noise=0.0):
    return {
        "table1": [
            {"bound": b, "heuristic_samples": samples(0.25, b, noise),
             "reference_samples": samples(1.0, b)}
            for b in (1, 16, 150)
        ],
        "sharded": {
            "bound": 150,
            "monolithic_samples": samples(1.0, 1.2),
            "runs": [{"shards": k, "jobs": j,
                      "samples": samples(1.1 / j, 1.2, noise)}
                     for j in (1, 2) for k in (1, 2, 4, 8)],
        },
        "recorder": {"bound": 64, "events": 27,
                     "off_samples": samples(1.0, 0.3),
                     "on_samples": samples(1.01, 0.3, noise)},
    }


def slowed(doc, row, factor=1.3, jobs=1):
    """DOC with the subject side of one row slowed down by FACTOR."""
    doc = copy.deepcopy(doc)
    kind, _, key = row.partition(" ")
    if kind == "table1":
        r = next(r for r in doc["table1"] if r["bound"] == int(key))
        side = r["heuristic_samples"]
    elif kind == "sharded":
        r = next(r for r in doc["sharded"]["runs"]
                 if r["shards"] == int(key) and r["jobs"] == jobs)
        side = r["samples"]
    else:
        side = doc["recorder"]["on_samples"]
    side[:] = [x * factor for x in side]
    return doc


def gate(fresh, base):
    with contextlib.redirect_stdout(io.StringIO()):
        return check_bench.check(fresh, base)


class Gate(unittest.TestCase):
    def test_identical_payloads_pass(self):
        self.assertEqual(gate(payload(), payload()), [])

    def test_one_slowed_row_fails(self):
        for row, name in (("table1 150", "table1 bound=150"),
                          ("sharded 8", "sharded K=8 bound=150"),
                          ("recorder", "recorder bound=64")):
            with self.subTest(row=row):
                failures = gate(slowed(payload(), row), payload())
                self.assertEqual(len(failures), 1, failures)
                self.assertTrue(failures[0].startswith(name + ":"), failures)

    def test_band_is_clamped(self):
        noisy = payload(noise=0.2)
        ratios = check_bench.round_ratios(
            "table1 bound=16", check_bench.gated_rows(noisy)["table1 bound=16"])
        self.assertEqual(check_bench.band(ratios, ratios),
                         check_bench.MAX_BAND)
        failures = gate(slowed(noisy, "table1 16"), noisy)
        self.assertEqual(len(failures), 1, failures)
        self.assertEqual(gate(slowed(noisy, "table1 16", 1.2), noisy), [])

    def test_payload_without_samples_is_refused(self):
        old = payload()
        for r in old["table1"]:
            del r["heuristic_samples"]
        with self.assertRaisesRegex(check_bench.Refused, "0 samples"):
            gate(old, payload())
        with self.assertRaisesRegex(check_bench.Refused, "0 samples"):
            gate(payload(), old)

    def test_only_one_domain_sharded_runs_are_gated(self):
        self.assertEqual(
            gate(slowed(payload(), "sharded 8", jobs=2), payload()), [])
        serial_only = payload()
        serial_only["sharded"]["runs"] = [
            r for r in serial_only["sharded"]["runs"] if r["jobs"] == 1]
        self.assertEqual(gate(serial_only, payload()), [])
        parallel_only = payload()
        parallel_only["sharded"]["runs"] = [
            r for r in parallel_only["sharded"]["runs"] if r["jobs"] == 2]
        with self.assertRaisesRegex(check_bench.Refused, "K=8 bound=150"):
            gate(parallel_only, payload())


if __name__ == "__main__":
    unittest.main()
