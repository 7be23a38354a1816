"""Command-line surface for the membership-testing toolkit.

One subcommand per capability: closed-form optimizers, frontier sweeps,
the filter lifecycle (build / query / bench), brute-force oracles, and
histogram KL estimation from score files.  Output is plain text with 6
significant digits, or full-precision strict JSON with ``--json``; frontier
sweeps emit a full-precision CSV whose schema is defined here, next to the
``--out`` sidecar of per-point score laws.

Exit codes: 0 on success, 1 on domain errors (reported as a one-line
JSON object on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from . import bruteforce
from . import filter as filter_mod
from . import measures
from . import rate_distortion as rd
from .errors import (
    DistributionError,
    DomainError,
    EnumerationTooLargeError,
    FieldError,
    FileFormatError,
    InfeasibleError,
    MemboundError,
    TrivialRegimeError,
)

__all__ = ["main"]

_ERROR_SLUGS = (
    (TrivialRegimeError, "trivial-regime"),
    (InfeasibleError, "infeasible"),
    (EnumerationTooLargeError, "enumeration-too-large"),
    (FileFormatError, "file-format"),
    (DistributionError, "distribution"),
    (FieldError, "field"),
    (DomainError, "domain"),
    (MemboundError, "domain"),
    (OSError, "io"),
)

# Largest sweep point count, histogram bin count or bench trial count
# accepted, so an oversized argument is refused before memory is allocated
# for it.
_MAX_COUNT = 10**6


def _emit_error(exc: BaseException) -> None:
    slug = "error"
    for cls, name in _ERROR_SLUGS:
        if isinstance(exc, cls):
            slug = name
            break
    line = json.dumps({"error": slug, "message": str(exc)})
    print(line, file=sys.stderr)


def _fmt(x: float) -> str:
    return "%.6g" % x


def _atoms_json(dist: measures.DiscreteDistribution) -> dict:
    return {"atoms": [[loc, mass] for loc, mass in dist.atoms]}


def _write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _text_value(value) -> str:
    """One report value as text: floats to 6 significant digits, bools in
    lower case, lists in brackets, score distributions as (x, w) atoms."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(_text_value, value)) + "]"
    if isinstance(value, dict):
        return " ".join(f"({_fmt(x)}, {_fmt(w)})" for x, w in value["atoms"])
    return str(value)


def _finite_json(value):
    """``value`` with each non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {key: _finite_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _emit_doc(
    as_json: bool, doc: dict, out: Optional[str], text: Optional[str] = None
) -> None:
    """Write ``doc`` as strict JSON (RFC 8259; a ``Fraction`` as ``[a, b]``, a
    non-finite float as a string that ``float()`` reads back), or as text:
    ``text`` when given, else one ``key: value`` line per entry."""
    if as_json:
        text = json.dumps(
            _finite_json(doc), indent=2, sort_keys=True, allow_nan=False,
            default=Fraction.as_integer_ratio,
        )
    elif text is None:
        text = "\n".join(f"{key}: {_text_value(v)}" for key, v in doc.items())
    _write(text + "\n", out)


def _parse_p_values(text: str) -> list[float]:
    """A single decimal, or ``sweep:start,stop,points,{log|linear}``."""
    if text.startswith("sweep:"):
        parts = text[len("sweep:") :].split(",")
        if len(parts) != 4:
            raise DomainError(
                f"--p sweep must be sweep:start,stop,points,scale; got {text!r}"
            )
        try:
            start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DomainError(f"malformed sweep bounds in {text!r}") from exc
        if not 1 <= points <= _MAX_COUNT:
            raise DomainError(f"sweep needs 1 to {_MAX_COUNT} points; got {points}")
        import numpy as np

        if parts[3] == "log":
            if not (start > 0 and stop > 0):
                raise DomainError("log sweeps need positive endpoints")
            values = np.geomspace(start, stop, points)
        elif parts[3] == "linear":
            values = np.linspace(start, stop, points)
        else:
            raise DomainError(f"sweep scale must be log or linear; got {parts[3]!r}")
        return [float(v) for v in values]
    try:
        return [float(text)]
    except ValueError as exc:
        raise DomainError(f"--p must be a decimal or a sweep; got {text!r}") from exc


def _metric_k(name: str) -> rd.ErrorMetric:
    return rd.ErrorMetric.fnr() if name == "fnr" else rd.ErrorMetric.logloss_key()


def _metric_n(name: str) -> rd.ErrorMetric:
    return rd.ErrorMetric.fpr() if name == "fpr" else rd.ErrorMetric.logloss_nonkey()


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_optimal(args) -> int:
    if args.family == "binary":
        best = rd.optimal_binary(args.eps_k, args.eps_n)
        doc = {}
    else:
        best = rd.optimal_logloss(args.eps_k, args.eps_n)
        doc = {"x_star": best.x_star, "q_star": best.q_star}
    doc["rate_bits_per_key"] = best.rate_bits_per_key
    doc["mu_K"] = _atoms_json(best.mu_K)
    doc["mu_N"] = _atoms_json(best.mu_N)
    _emit_doc(args.json, doc, args.out)
    return 0


# The frontier CSV's columns, in order: floats at full precision (repr),
# bools in lower case.  The --out sidecar holds _SIDECAR_KEYS of each point.
_FRONTIER_CSV_COLUMNS = (
    "p", "eps_K", "eps_N", "rate_bits_per_key", "dual_K", "dual_N", "converged"
)
_SIDECAR_KEYS = ("p", "eps_K", "eps_N", "mu_K", "mu_N")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _run_frontier(args) -> int:
    p_values = _parse_p_values(args.p)
    metric_K = _metric_k(args.metric_k)
    metric_N = _metric_n(args.metric_n)
    records = []
    for p in p_values:
        pt = rd.solve_rp(p, metric_K, metric_N, args.eps_k, args.eps_n)
        record = {name: getattr(pt, name) for name in _FRONTIER_CSV_COLUMNS}
        record["mu_K"] = _atoms_json(pt.mu_K)
        record["mu_N"] = _atoms_json(pt.mu_N)
        records.append(record)
    if args.json:
        _emit_doc(True, {"points": records}, args.out)
        return 0
    rows = [",".join(_FRONTIER_CSV_COLUMNS)] + [
        ",".join(_csv_cell(r[name]) for name in _FRONTIER_CSV_COLUMNS) for r in records
    ]
    csv_text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        sidecar = {"points": [{k: r[k] for k in _SIDECAR_KEYS} for r in records]}
        _emit_doc(True, sidecar, args.out + ".dists.json")
    else:
        sys.stdout.write(csv_text)
    return 0


def _run_filter_build(args) -> int:
    keys = filter_mod.read_keys(args.keys)
    params = filter_mod.derive_params(len(keys), args.eps_k, args.eps_n, args.seed)
    state, report = filter_mod.build(params, keys)
    if state is None:
        raise DomainError(
            f"no vector found in {report.candidates_tried + 1} attempts: the best "
            f"satisfied {report.satisfied_keys} keys of {params.threshold} needed"
        )
    Path(args.out).write_bytes(filter_mod.serialize(state))
    doc = {
        "success": report.success,
        "n": params.n,
        "q": params.q,
        "m": params.m,
        "satisfied_keys": report.satisfied_keys,
        "candidates_tried": report.candidates_tried,
        "bits_payload": report.bits_payload,
        "bits_per_key": report.bits_payload / params.n,
        "out": args.out,
    }
    # The report goes to stdout; --out holds the filter blob.
    _emit_doc(args.json, doc, None)
    return 0


def _run_filter_query(args) -> int:
    state = filter_mod.deserialize(Path(args.state).read_bytes())
    answer = filter_mod.query(state, args.elem.encode("utf-8"))
    _write(f"{answer}\n", args.out)
    return 0


def _run_filter_bench(args) -> int:
    if args.trials > _MAX_COUNT:
        raise DomainError(f"--trials must be at most {_MAX_COUNT}; got {args.trials}")
    state = filter_mod.deserialize(Path(args.state).read_bytes())
    keys = filter_mod.read_keys(args.keys)
    rates = filter_mod.measure_rates(
        partial(filter_mod.query_many, state),
        keys,
        filter_mod.random_bytes_sampler(args.seed, 8),
        args.trials,
    )
    doc = {
        "fnr_hat": rates.fnr_hat,
        "fnr_ci99": list(rates.fnr_ci),
        "fpr_hat": rates.fpr_hat,
        "fpr_ci99": list(rates.fpr_ci),
        "target_fpr": 1.0 / state.params.q,
        "trials": rates.trials,
    }
    _emit_doc(args.json, doc, args.out)
    return 0


def _run_oracle_tiny(args) -> int:
    spec = bruteforce.TinyTesterSpec(args.u, args.n, args.bits)
    frontier = bruteforce.optimal_tiny_tester(spec)
    points = [
        {
            "eps_K": pt.eps_K,
            "eps_N": pt.eps_N,
            "eps_K_float": float(pt.eps_K),
            "eps_N_float": float(pt.eps_N),
            "init": list(pt.init),
            "table": [list(row) for row in pt.table],
        }
        for pt in frontier
    ]
    text = "\n".join(
        f"eps_K: {pt.eps_K} ({_fmt(float(pt.eps_K))})  "
        f"eps_N: {pt.eps_N} ({_fmt(float(pt.eps_N))})"
        for pt in frontier
    )
    _emit_doc(args.json, {"points": points}, args.out, text)
    return 0


def _run_oracle_fpr(args) -> int:
    state = filter_mod.deserialize(Path(args.state).read_bytes())
    fpr = bruteforce.exhaustive_fpr(state.y)
    target = 1.0 / state.params.q
    doc = {
        "fpr_exact": fpr,
        "fpr_float": float(fpr),
        "target_fpr": target,
        "matches_target": float(fpr) == target,
    }
    _emit_doc(args.json, doc, args.out)
    return 0


def _run_estimate_kl(args) -> int:
    if args.bins > _MAX_COUNT:
        raise DomainError(f"--bins must be at most {_MAX_COUNT}; got {args.bins}")
    facts = measures.read_scores(args.facts)
    nonfacts = measures.read_scores(args.nonfacts)
    hist_k = measures.estimate_from_samples(facts, args.bins)
    hist_n = measures.estimate_from_samples(nonfacts, args.bins)
    kl_bits = measures.kl_divergence(hist_k, hist_n)
    loss_k = rd.ErrorMetric.logloss_key()
    loss_n = rd.ErrorMetric.logloss_nonkey()
    eps_k_hat = sum(rd.metric_value(loss_k, s) for s in facts) / len(facts)
    eps_n_hat = sum(rd.metric_value(loss_n, s) for s in nonfacts) / len(nonfacts)
    best = rd.optimal_logloss(eps_k_hat, eps_n_hat)
    doc = {
        "kl_bits": kl_bits,
        "eps_k_hat_nats": eps_k_hat,
        "eps_n_hat_nats": eps_n_hat,
        "x_star": best.x_star,
        "q_star": best.q_star,
        "logloss_rate_bits_per_key": best.rate_bits_per_key,
    }
    _emit_doc(args.json, doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="full-precision JSON output")
    parser.add_argument("--out", help="write output to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="membound",
        description="Memory-error frontiers and two-sided filters for membership testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    optimal = sub.add_parser(
        "optimal", help="closed-form optimal score distributions"
    )
    optimal_sub = optimal.add_subparsers(dest="family", required=True)
    for family in ("binary", "logloss"):
        fam = optimal_sub.add_parser(family)
        fam.add_argument("--eps-k", type=float, required=True)
        fam.add_argument("--eps-n", type=float, required=True)
        _add_common(fam)
        fam.set_defaults(func=_run_optimal)

    frontier = sub.add_parser("frontier", help="memory-error frontier sweep (CSV)")
    frontier.add_argument(
        "--p", required=True, help="decimal or sweep:start,stop,points,{log|linear}"
    )
    frontier.add_argument("--metric-k", choices=("fnr", "logloss"), default="fnr")
    frontier.add_argument("--metric-n", choices=("fpr", "logloss"), default="fpr")
    frontier.add_argument("--eps-k", type=float, required=True)
    frontier.add_argument("--eps-n", type=float, required=True)
    _add_common(frontier)
    frontier.set_defaults(func=_run_frontier)

    filt = sub.add_parser("filter", help="two-sided filter lifecycle")
    filter_sub = filt.add_subparsers(dest="action", required=True)

    fbuild = filter_sub.add_parser("build")
    fbuild.add_argument("--keys", required=True, help="key file, one key per line")
    fbuild.add_argument("--eps-k", type=float, required=True)
    fbuild.add_argument("--eps-n", type=float, required=True)
    fbuild.add_argument("--seed", type=int, default=0)
    fbuild.add_argument("--json", action="store_true")
    fbuild.add_argument("--out", required=True, help="path for the serialized filter")
    fbuild.set_defaults(func=_run_filter_build)

    fquery = filter_sub.add_parser("query")
    fquery.add_argument("--state", required=True)
    fquery.add_argument("--elem", required=True)
    _add_common(fquery)
    fquery.set_defaults(func=_run_filter_query)

    fbench = filter_sub.add_parser("bench")
    fbench.add_argument("--state", required=True)
    fbench.add_argument("--keys", required=True)
    fbench.add_argument("--trials", type=int, default=100000)
    fbench.add_argument("--seed", type=int, default=0, help="non-key sampler seed")
    _add_common(fbench)
    fbench.set_defaults(func=_run_filter_bench)

    oracle = sub.add_parser("oracle", help="exhaustive small-instance oracles")
    oracle_sub = oracle.add_subparsers(dest="kind", required=True)

    otiny = oracle_sub.add_parser("tiny")
    otiny.add_argument("--u", type=int, required=True)
    otiny.add_argument("--n", type=int, required=True)
    otiny.add_argument("--bits", type=int, required=True)
    _add_common(otiny)
    otiny.set_defaults(func=_run_oracle_tiny)

    ofpr = oracle_sub.add_parser("fpr")
    ofpr.add_argument("--state", required=True)
    _add_common(ofpr)
    ofpr.set_defaults(func=_run_oracle_fpr)

    estimate = sub.add_parser(
        "estimate-kl", help="histogram KL and log-loss rate from score files"
    )
    estimate.add_argument("facts", help="score file for keys, one score per line")
    estimate.add_argument("nonfacts", help="score file for non-keys")
    estimate.add_argument("--bins", type=int, default=50)
    _add_common(estimate)
    estimate.set_defaults(func=_run_estimate_kl)

    return parser


# Options whose value is a float (or, for --p, a decimal or a sweep spec).
_FLOAT_OPTIONS = frozenset({"--eps-k", "--eps-n", "--p"})


def _is_float(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def _join_negative_floats(argv: Sequence[str]) -> list[str]:
    """Join each float option to a following value that starts with "-".

    argparse reads a word such as ``-inf`` or ``-1e-3`` as an option name,
    so ``--eps-k -inf`` would be a usage error while ``--eps-k=-inf`` reaches
    the domain check.  Joined, both spellings parse the same way.  Words
    from a bare ``--`` on are left alone.
    """
    out: list[str] = []
    for i, word in enumerate(argv):
        if word == "--":
            out.extend(argv[i:])
            break
        if out and out[-1] in _FLOAT_OPTIONS and word.startswith("-") and _is_float(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _join_negative_floats(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MemboundError, OSError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
