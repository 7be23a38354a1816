"""Show that every output check in checks.py refuses a corrupted output.

    python3 perfbench/selftest.py

Run from the repository root.  Each case takes a small, correct output of
the library, confirms that the check passes it, then corrupts it (a
flipped coordinate of y, a rate moved by 1e-3, a swapped witness, ...) and
confirms that the check refuses it.  Exits with status 1 if any check
passes a corrupted output or refuses a correct one.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import membound as mb  # noqa: E402

import checks  # noqa: E402


def _passes(fn) -> bool:
    try:
        fn()
    except checks.CheckFailed:
        return False
    return True


def main() -> int:
    cases = []  # (label, check on the correct output, check on the corrupted output)

    # A one-sided filter over GF(3) and a two-sided one over GF(2).
    keys = [b"key-%d" % i for i in range(40)]
    params = mb.derive_params(40, 0, 1 / 3, 7)
    state, report = mb.build(params, keys)
    y = list(state.y.coords)
    flipped = y.copy()
    flipped[0] = (flipped[0] + 1) % 3
    answers = mb.query_many(state, keys)
    blob = mb.serialize(state)
    cases += [
        ("hash rows vs query, y coordinate flipped",
         lambda: checks.check_answers(params.seed, 3, y, keys, answers),
         lambda: checks.check_answers(params.seed, 3, flipped, keys, answers)),
        ("key misses vs report, y coordinate flipped",
         lambda: checks.check_build(40, Fraction(0), 3, params.seed, y, report.satisfied_keys, keys),
         lambda: checks.check_build(40, Fraction(0), 3, params.seed, flipped, report.satisfied_keys, keys)),
        ("blob decodes to y, y coordinate flipped",
         lambda: checks.check_blob(3, params.m, y, blob),
         lambda: checks.check_blob(3, params.m, flipped, blob)),
        ("blob length, last byte dropped",
         lambda: checks.check_blob(3, params.m, y, blob),
         lambda: checks.check_blob(3, params.m, y, blob[:-1])),
        ("payload size, one bit per key too many",
         lambda: checks.check_size(40, Fraction(0), 3, report.bits_payload),
         lambda: checks.check_size(40, Fraction(0), 3, report.bits_payload + 40)),
        ("false accepts, 6 sigma above trials/q",
         lambda: checks.check_false_accepts(3, 9000, 3000),
         lambda: checks.check_false_accepts(3, 9000, 3000 + math.ceil(6 * math.sqrt(2000)))),
    ]
    two = mb.derive_params(12, Fraction(1, 12), 0.5, 1)
    two_keys = [b"two-%d" % i for i in range(12)]
    two_state, two_report = mb.build(two, two_keys)
    cases.append(
        ("two-sided misses, satisfied count raised by one",
         lambda: checks.check_build(12, two.eps_K, 2, 1, two_state.y.coords, two_report.satisfied_keys, two_keys),
         lambda: checks.check_build(12, two.eps_K, 2, 1, two_state.y.coords, two_report.satisfied_keys + 1, two_keys)))

    # Frontier points in both families, and a short sweep.
    fnr, fpr = mb.ErrorMetric.fnr(), mb.ErrorMetric.fpr()
    bp = mb.solve_rp(0.05, fnr, fpr, 0.1, 0.05)
    lp = mb.solve_rp(0.05, mb.ErrorMetric.logloss_key(), mb.ErrorMetric.logloss_nonkey(), 0.1, 0.2)
    shifted_N = [(min(1.0, x + 1e-4), w) for x, w in bp.mu_N.atoms]  # uses more FPR budget
    cases += [
        ("binary rate moved by 1e-3",
         lambda: checks.check_point("binary", 0.05, 0.1, 0.05, bp.rate_bits_per_key, bp.mu_K.atoms, bp.mu_N.atoms),
         lambda: checks.check_point("binary", 0.05, 0.1, 0.05, bp.rate_bits_per_key + 1e-3, bp.mu_K.atoms, bp.mu_N.atoms)),
        ("log-loss rate moved by 1e-3",
         lambda: checks.check_point("logloss", 0.05, 0.1, 0.2, lp.rate_bits_per_key, lp.mu_K.atoms, lp.mu_N.atoms),
         lambda: checks.check_point("logloss", 0.05, 0.1, 0.2, lp.rate_bits_per_key + 1e-3, lp.mu_K.atoms, lp.mu_N.atoms)),
        ("binary budget exceeded by 1e-4",
         lambda: checks.check_point("binary", 0.05, 0.1, 0.05, bp.rate_bits_per_key, bp.mu_K.atoms, bp.mu_N.atoms),
         lambda: checks.check_point("binary", 0.05, 0.1, 0.05, bp.rate_bits_per_key, bp.mu_K.atoms, shifted_N)),
        ("sweep rates swapped",
         lambda: checks.check_sweep([0.01, 0.05], [3.0, 2.9]),
         lambda: checks.check_sweep([0.01, 0.05], [2.9, 3.0])),
    ]

    # Tiny testers: swapped witnesses, a dropped point, a perfect spec.
    spec = (3, 1, 1)
    frontier = [(pt.eps_K, pt.eps_N, pt.init, pt.table) for pt in mb.optimal_tiny_tester(mb.TinyTesterSpec(*spec))]
    swapped = [(a, b, frontier[-1 - i][2], frontier[-1 - i][3]) for i, (a, b, _, _) in enumerate(frontier)]
    reference = checks.tiny_frontier(*spec)
    perfect = [(pt.eps_K, pt.eps_N, pt.init, pt.table) for pt in mb.optimal_tiny_tester(mb.TinyTesterSpec(3, 1, 2))]
    worse = [(Fraction(1), Fraction(0), perfect[0][2], [[0] * 3 for _ in range(4)])]  # rejects everything
    cases += [
        ("tiny witnesses swapped",
         lambda: checks.check_tiny(*spec, frontier, reference),
         lambda: checks.check_tiny(*spec, swapped, reference)),
        ("tiny frontier missing its last point",
         lambda: checks.check_tiny(*spec, frontier, reference),
         lambda: checks.check_tiny(*spec, frontier[:-1], reference)),
        ("tiny spec with a state per key set, nonzero error",
         lambda: checks.check_tiny(3, 1, 2, perfect),
         lambda: checks.check_tiny(3, 1, 2, worse)),
    ]

    status = 0
    for label, good, bad in cases:
        ok = _passes(good) and not _passes(bad)
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return status


if __name__ == "__main__":
    sys.exit(main())
