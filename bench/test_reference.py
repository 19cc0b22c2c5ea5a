"""Known answers for the reference checker (no ditkit involved).

    python3 bench/test_reference.py
"""
from __future__ import annotations

import random
import unittest

import inputs
import reference as ref

P, Q = ("var", "p"), ("var", "q")


class KnownAnswers(unittest.TestCase):
    def test_excluded_middle_fails_first_at_three(self):
        checked, failure = ref.partition_scan(("or", P, ("not", P)), 4)
        n, env, value = failure
        self.assertEqual(n, 3)
        self.assertNotEqual(value, (0, 1, 2))
        self.assertIsNone(ref.truth_scan(("or", P, ("not", P)))[1])

    def test_self_implication_holds(self):
        f = ("implies", P, P)
        self.assertEqual(ref.partition_scan(f, 5), (ref.partition_assignments(5, 1), None))
        self.assertIsNone(ref.truth_scan(f)[1])
        self.assertIsNone(ref.subset_scan(f, 3)[1])

    def test_connectives_on_two_elements_are_boolean(self):
        top, bottom = (0, 1), (0, 0)
        for conn in ("and", "or", "implies", "iff"):
            for a in (False, True):
                for b in (False, True):
                    ops = (top if a else bottom, top if b else bottom)
                    expected = top if ref.RULE[conn](a, b) else bottom
                    self.assertEqual(ref.lift(conn, ops, 2), expected)

    def test_lattice_counts(self):
        self.assertEqual([ref.bell(n) for n in range(1, 9)], [1, 2, 5, 15, 52, 203, 877, 4140])
        self.assertEqual([len(ref.partitions(n)) for n in range(1, 7)], [1, 2, 5, 15, 52, 203])
        # n = 3: three two-block partitions each cover the one block, and
        # the discrete partition covers each of them.
        self.assertEqual(ref.partition_lattice_counts(3), (5, 6))
        self.assertEqual(ref.partition_lattice_counts(4)[1], 31)

    def test_texts(self):
        self.assertEqual(ref.partition_text((0, 1, 0)), "0,2|1")
        self.assertEqual(ref.parse_partition_text("0,2|1"), {frozenset({0, 2}), frozenset({1})})
        self.assertEqual(ref.subset_text(0b101), "{0,2}")
        self.assertEqual(ref.subset_text(0), "{}")
        f = ("not", ("implies", P, ("and", Q, P)))
        self.assertEqual(ref.text(f), "~(p -> (q & p))")

    def test_schemas(self):
        """Valid schemas hold to n = 5 (the taut-cli scan); classical-only
        ones are tautologies that fail as partition identities."""
        holes = (P, Q, ("and", P, Q))
        for schema in inputs.VALID_SCHEMAS:
            f = schema(*holes)
            self.assertIsNone(ref.truth_scan(f)[1], ref.text(f))
            self.assertIsNone(ref.partition_scan(f, 5)[1], ref.text(f))
        for schema in inputs.CLASSICAL_ONLY_SCHEMAS:
            f = schema(P, Q, ("var", "r"))
            self.assertIsNone(ref.truth_scan(f)[1], ref.text(f))
            self.assertIsNotNone(ref.partition_scan(f, 4)[1], ref.text(f))

    def test_inputs_repeat_per_seed(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(inputs.operations(workload, 7, 2), inputs.operations(workload, 7, 2))
        self.assertEqual(inputs.library_formulas(7, 10), inputs.library_formulas(7, 10))
        rng = random.Random(1)
        self.assertEqual(ref.connectives(inputs.random_formula(rng, ("p",), 6)), 6)


if __name__ == "__main__":
    unittest.main()
