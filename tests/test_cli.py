"""End-to-end tests of the command-line surface (in-process)."""

import itertools
import json
import math
import shlex
import time
from pathlib import Path

import pytest

from membound import ErrorMetric, cli, deserialize, solve_rp
from membound import filter as filter_mod

FRONTIER_CSV_HEADER = "p,eps_K,eps_N,rate_bits_per_key,dual_K,dual_N,converged"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 0, err
    return json.loads(out)


@pytest.fixture()
def keys_file(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_bytes(b"".join(b"user-%d\n" % i for i in range(100)))
    return path


@pytest.fixture()
def built_filter(tmp_path, keys_file, capsys):
    blob = tmp_path / "f.bin"
    rc, _, err = run(
        capsys,
        "filter",
        "build",
        "--keys",
        str(keys_file),
        "--eps-k",
        "0",
        "--eps-n",
        "0.5",
        "--seed",
        "5",
        "--out",
        str(blob),
    )
    assert rc == 0, err
    return blob


class TestOptimal:
    def test_binary_json_rate_ten(self, capsys):
        doc = run_json(
            capsys, "optimal", "binary", "--eps-k", "0", "--eps-n", "0.0009765625"
        )
        assert doc["rate_bits_per_key"] == pytest.approx(10.0, abs=1e-9)
        assert doc["mu_K"]["atoms"] == [[1.0, 1.0]]

    def test_logloss_json_matches_closed_form(self, capsys):
        doc = run_json(
            capsys, "optimal", "logloss", "--eps-k", "0.1", "--eps-n", "0.2"
        )
        assert doc["x_star"] == pytest.approx(0.9048374180359595, rel=1e-12)
        assert doc["q_star"] == pytest.approx(0.08502792351497783, rel=1e-12)
        assert doc["rate_bits_per_key"] == pytest.approx(
            3.5559194838072017, rel=1e-12
        )

    def test_text_output_six_significant_digits(self, capsys):
        rc, out, _ = run(capsys, "optimal", "binary", "--eps-k", "0.1", "--eps-n", "0.1")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "rate_bits_per_key: 2.53594"
        assert lines[1] == "mu_K: (0, 0.1) (1, 0.9)"
        assert lines[2] == "mu_N: (0, 0.9) (1, 0.1)"

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, out, _ = run(
            capsys,
            "optimal",
            "binary",
            "--eps-k",
            "0.1",
            "--eps-n",
            "0.1",
            "--json",
            "--out",
            str(path),
        )
        assert rc == 0
        assert out == ""
        assert json.loads(path.read_text())["rate_bits_per_key"] == pytest.approx(
            2.5359400011538495
        )

    def test_trivial_regime_is_exit_one_with_parseable_error(self, capsys):
        rc, out, err = run(capsys, "optimal", "binary", "--eps-k", "0.6", "--eps-n", "0.5")
        assert rc == 1
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "trivial-regime"
        assert doc["message"]

    def test_nan_budget_is_domain_error(self, capsys):
        for family in ("binary", "logloss"):
            rc, _, err = run(capsys, "optimal", family, "--eps-k", "nan", "--eps-n", "0.1")
            assert rc == 1
            assert json.loads(err)["error"] == "domain"


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        rc, _, err = run(capsys, "optimal", "binary", "--eps-k", "0.1")
        assert rc == 2
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        rc, _, _ = run(capsys, "bogus")
        assert rc == 2

    def test_bad_metric_choice(self, capsys):
        rc, _, _ = run(
            capsys,
            "frontier",
            "--p",
            "0.1",
            "--metric-k",
            "hinge",
            "--eps-k",
            "0.1",
            "--eps-n",
            "0.1",
        )
        assert rc == 2

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-1e-3", "-1e400", "-0.5", "-2"])
    @pytest.mark.parametrize(
        "command,option",
        [
            ("frontier", "--eps-k"),
            ("frontier", "--eps-n"),
            ("frontier", "--p"),
            ("filter build", "--eps-k"),
            ("filter build", "--eps-n"),
        ],
    )
    def test_negative_float_spellings_reach_one_refusal(
        self, capsys, tmp_path, keys_file, command, option, value
    ):
        blob = tmp_path / "f.bin"
        options = {"--eps-k": "0", "--eps-n": "0.5"}
        if command == "frontier":
            options["--p"] = "0.1"
            extra = []
        else:
            extra = ["--keys", str(keys_file), "--out", str(blob)]
        del options[option]
        base = [*command.split(), *itertools.chain(*options.items()), *extra]
        separate = run(capsys, *base, option, value)
        joined = run(capsys, *base, f"{option}={value}")
        assert separate == joined
        rc, out, err = joined
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == "domain"
        assert not blob.exists()

    def test_words_after_double_dash_are_not_joined(self):
        argv = ["frontier", "--p", "-inf", "--", "--p", "-inf"]
        assert cli._join_negative_floats(argv) == ["frontier", "--p=-inf", "--", "--p", "-inf"]


class TestFrontier:
    def test_csv_on_stdout(self, capsys):
        rc, out, _ = run(
            capsys, "frontier", "--p", "0.1", "--eps-k", "0.1", "--eps-n", "0.1"
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == FRONTIER_CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.1
        assert cells[6] == "true"

    def test_sweep_csv_and_sidecar_reproducible(self, capsys, tmp_path):
        out_path = tmp_path / "frontier.csv"
        argv = (
            "frontier",
            "--p",
            "sweep:0.001,0.1,3,log",
            "--eps-k",
            "0.1",
            "--eps-n",
            "0.1",
            "--out",
            str(out_path),
        )
        rc, _, _ = run(capsys, *argv)
        assert rc == 0
        first_csv = out_path.read_bytes()
        sidecar = tmp_path / "frontier.csv.dists.json"
        first_sidecar = sidecar.read_bytes()
        rc, _, _ = run(capsys, *argv)
        assert rc == 0
        assert out_path.read_bytes() == first_csv
        assert sidecar.read_bytes() == first_sidecar
        lines = first_csv.decode().splitlines()
        assert lines[0] == FRONTIER_CSV_HEADER
        assert len(lines) == 4
        doc = json.loads(first_sidecar)
        assert len(doc["points"]) == 3

    def test_json_document(self, capsys):
        doc = run_json(
            capsys,
            "frontier",
            "--p",
            "sweep:0.01,0.1,2,linear",
            "--eps-k",
            "0.1",
            "--eps-n",
            "0.1",
        )
        assert len(doc["points"]) == 2
        for point in doc["points"]:
            assert point["converged"] is True
            assert point["rate_bits_per_key"] > 0
            assert point["mu_K"]["atoms"]

    def test_malformed_sweep_is_domain_error(self, capsys):
        # 10^15 points would need 8 PB for the p values alone.
        oversized = "sweep:0.001,0.1,1000000000000000,log"
        for spec in ("sweep:1,2", "sweep:0.001,0.1,3,cubic", "sweep:a,b,3,log", "huh", oversized):
            rc, _, err = run(
                capsys, "frontier", "--p", spec, "--eps-k", "0.1", "--eps-n", "0.1"
            )
            assert rc == 1
            assert json.loads(err)["error"] == "domain"

    def test_readme_logloss_line(self, capsys):
        rc, out, _ = run(
            capsys, "frontier", "--p", "0.001", "--metric-k", "logloss",
            "--metric-n", "logloss", "--eps-k", "0.1", "--eps-n", "0.2",
        )
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        assert cells[:3] == ["0.001", "0.1", "0.2"]
        rate, dual_K, dual_N = (float(c) for c in cells[3:6])
        assert rate == pytest.approx(3.548182296485591, abs=1e-12)
        assert dual_K == pytest.approx(5.8012027636323555, abs=1e-12)
        assert dual_N == pytest.approx(7.171344803082738, abs=1e-12)
        # f_p of the feasible closed-form pair delta_{x*} against
        # (1-q*) delta_0 + q* delta_{x*} at this p.
        assert rate == pytest.approx(3.5481822961, abs=1e-8)
        assert cells[6] == "true"

    def test_nan_budget_is_domain_error(self, capsys):
        for eps_k, eps_n in (("nan", "0.1"), ("0.1", "nan")):
            rc, out, err = run(
                capsys, "frontier", "--p", "0.1", "--eps-k", eps_k, "--eps-n", eps_n
            )
            assert rc == 1
            assert out == ""
            assert json.loads(err)["error"] == "domain"


class TestFrontierSerialization:
    BUDGETS = ((0.1, 0.1), (0.05, 0.25))
    P_VALUES = (0.01, 0.1)  # exactly the points of sweep:0.01,0.1,2,linear

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """Per budget pair: the argv, and the CSV and sidecar that
        ``frontier --out`` wrote for a two-point sweep."""
        out = []
        for eps_k, eps_n in self.BUDGETS:
            path = tmp_path_factory.mktemp("frontier") / "f.csv"
            argv = [
                "frontier", "--p", "sweep:0.01,0.1,2,linear",
                "--eps-k", repr(eps_k), "--eps-n", repr(eps_n),
            ]
            assert cli.main(argv + ["--out", str(path)]) == 0
            sidecar = Path(str(path) + ".dists.json").read_text(encoding="utf-8")
            out.append((argv, path.read_text(encoding="utf-8"), sidecar))
        return out

    def solved(self, eps_k, eps_n):
        fnr, fpr = ErrorMetric.fnr(), ErrorMetric.fpr()
        return [solve_rp(p, fnr, fpr, eps_k, eps_n) for p in self.P_VALUES]

    def test_csv_header_and_shape(self, written):
        for _, text, _ in written:
            lines = text.splitlines()
            assert lines[0] == FRONTIER_CSV_HEADER
            assert len(lines) == 1 + len(self.P_VALUES)
            assert text.endswith("\n")

    def test_csv_round_trips_full_precision(self, written):
        for (eps_k, eps_n), (_, text, _) in zip(self.BUDGETS, written):
            lines = text.splitlines()[1:]
            for line, pt in zip(lines, self.solved(eps_k, eps_n), strict=True):
                cells = line.split(",")
                assert float(cells[0]) == pt.p
                assert float(cells[1]) == pt.eps_K
                assert float(cells[2]) == pt.eps_N
                assert float(cells[3]) == pt.rate_bits_per_key
                assert float(cells[4]) == pt.dual_K
                assert float(cells[5]) == pt.dual_N
                assert cells[6] == ("true" if pt.converged else "false")

    def test_csv_reproducible(self, capsys, written):
        # Without --out the same CSV goes to stdout, byte for byte.
        for argv, text, _ in written:
            rc, out, err = run(capsys, *argv)
            assert (rc, out, err) == (0, text, "")

    def test_sidecar_structure(self, written):
        for (eps_k, eps_n), (_, _, sidecar) in zip(self.BUDGETS, written):
            doc = json.loads(sidecar)
            assert sidecar == json.dumps(doc, indent=2, sort_keys=True) + "\n"
            points = self.solved(eps_k, eps_n)
            assert len(doc["points"]) == len(points)
            for entry, pt in zip(doc["points"], points):
                assert sorted(entry) == ["eps_K", "eps_N", "mu_K", "mu_N", "p"]
                assert (entry["p"], entry["eps_K"], entry["eps_N"]) == (
                    pt.p, pt.eps_K, pt.eps_N
                )
                assert [tuple(a) for a in entry["mu_K"]["atoms"]] == list(pt.mu_K.atoms)
                assert [tuple(a) for a in entry["mu_N"]["atoms"]] == list(pt.mu_N.atoms)


class TestFilterLifecycle:
    def test_build_then_query_accepts_keys(self, capsys, tmp_path):
        keys = tmp_path / "small.txt"
        keys.write_bytes(b"alpha\nbeta\ngamma\n")
        blob = tmp_path / "small.bin"
        rc, out, err = run(
            capsys,
            "filter",
            "build",
            "--keys",
            str(keys),
            "--eps-k",
            "0",
            "--eps-n",
            "0.5",
            "--seed",
            "7",
            "--out",
            str(blob),
        )
        assert rc == 0, err
        report = dict(line.split(": ", 1) for line in out.splitlines())
        assert report["success"] == "true"
        assert report["n"] == "3"
        assert report["satisfied_keys"] == "3"
        assert blob.exists()
        for elem in ("alpha", "beta", "gamma"):
            rc, out, _ = run(capsys, "filter", "query", "--state", str(blob), "--elem", elem)
            assert rc == 0
            assert out.strip() == "1"

    def test_build_report_json(self, capsys, keys_file, tmp_path):
        blob = tmp_path / "f.bin"
        doc = run_json(
            capsys,
            "filter",
            "build",
            "--keys",
            str(keys_file),
            "--eps-k",
            "0",
            "--eps-n",
            "0.5",
            "--seed",
            "5",
            "--out",
            str(blob),
        )
        assert doc["success"] is True
        assert doc["n"] == 100
        assert doc["q"] == 2
        assert doc["m"] == 122
        assert doc["satisfied_keys"] == 100
        assert doc["candidates_tried"] == 0
        assert doc["bits_per_key"] == pytest.approx(doc["bits_payload"] / 100)
        state = deserialize(blob.read_bytes())
        assert state.params.m == 122

    def test_bench_hits_design_rates(self, capsys, keys_file, built_filter):
        doc = run_json(
            capsys,
            "filter",
            "bench",
            "--state",
            str(built_filter),
            "--keys",
            str(keys_file),
            "--trials",
            "100000",
        )
        assert doc["fnr_hat"] == 0.0  # one-sided build: never above eps_K = 0
        assert doc["target_fpr"] == 0.5
        lo, hi = doc["fpr_ci99"]
        assert lo <= 0.5 <= hi
        assert abs(doc["fpr_hat"] - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)
        assert doc["trials"] == 100000

    def test_bench_refuses_oversized_trials(self, capsys, keys_file, built_filter):
        start = time.perf_counter()
        rc, out, err = run(
            capsys,
            "filter",
            "bench",
            "--state",
            str(built_filter),
            "--keys",
            str(keys_file),
            "--trials",
            "1000000000000",
        )
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    def test_bench_text_report(self, capsys, keys_file, built_filter):
        rc, out, _ = run(
            capsys,
            "filter",
            "bench",
            "--state",
            str(built_filter),
            "--keys",
            str(keys_file),
            "--trials",
            "1000",
        )
        assert rc == 0
        report = dict(line.split(": ", 1) for line in out.splitlines())
        assert report["fnr_hat"] == "0"
        assert report["target_fpr"] == "0.5"
        assert report["trials"] == "1000"

    def test_two_sided_failure_is_domain_error(self, capsys, keys_file, tmp_path, monkeypatch):
        # With one seeded subset allowed, 88 of the 90 keys needed is the best.
        monkeypatch.setattr(filter_mod, "_MAX_ATTEMPTS", 1)
        blob = tmp_path / "f.bin"
        rc, out, err = run(
            capsys, "filter", "build", "--keys", str(keys_file), "--eps-k", "0.1",
            "--eps-n", "0.5", "--seed", "0", "--out", str(blob),
        )
        assert (rc, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "domain"
        assert doc["message"] == "no vector found in 2 attempts: the best satisfied 88 keys of 90 needed"
        assert not blob.exists()

    def test_missing_keys_file_is_io_error(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            "filter",
            "build",
            "--keys",
            str(tmp_path / "absent.txt"),
            "--eps-k",
            "0",
            "--eps-n",
            "0.5",
            "--out",
            str(tmp_path / "f.bin"),
        )
        assert rc == 1
        assert json.loads(err)["error"] == "io"

    def test_non_prime_reciprocal_eps_n(self, capsys, keys_file, tmp_path):
        rc, _, err = run(
            capsys,
            "filter",
            "build",
            "--keys",
            str(keys_file),
            "--eps-k",
            "0",
            "--eps-n",
            "0.3",
            "--out",
            str(tmp_path / "f.bin"),
        )
        assert rc == 1
        assert json.loads(err)["error"] == "domain"

    @pytest.mark.parametrize(
        "eps_k,eps_n",
        [("inf", "0.5"), ("-inf", "0.5"), ("1e400", "0.5"), ("0", "inf"), ("0", "-inf")],
    )
    def test_non_finite_eps_is_domain_error(self, capsys, keys_file, tmp_path, eps_k, eps_n):
        blob = tmp_path / "f.bin"
        rc, out, err = run(
            capsys, "filter", "build", "--keys", str(keys_file),
            f"--eps-k={eps_k}", f"--eps-n={eps_n}", "--out", str(blob),
        )
        assert (rc, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "domain"
        assert not blob.exists()

    def test_corrupt_state_is_file_format_error(self, capsys, tmp_path, built_filter):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XX" + built_filter.read_bytes()[2:])
        rc, _, err = run(capsys, "filter", "query", "--state", str(bad), "--elem", "x")
        assert rc == 1
        assert json.loads(err)["error"] == "file-format"


class TestOracles:
    def test_tiny_frontier_json(self, capsys):
        doc = run_json(capsys, "oracle", "tiny", "--u", "4", "--n", "1", "--bits", "1")
        eps = [(tuple(p["eps_K"]), tuple(p["eps_N"])) for p in doc["points"]]
        assert eps == [
            ((0, 1), (1, 3)),
            ((1, 4), (1, 4)),
            ((1, 2), (1, 6)),
            ((3, 4), (0, 1)),
        ]
        first = doc["points"][0]
        assert first["eps_K_float"] == 0.0
        assert first["eps_N_float"] == pytest.approx(1 / 3)
        assert len(first["table"]) == 2  # one acceptance row per state

    def test_tiny_frontier_text(self, capsys):
        rc, out, _ = run(capsys, "oracle", "tiny", "--u", "4", "--n", "1", "--bits", "1")
        assert rc == 0
        assert out.splitlines()[0] == "eps_K: 0 (0)  eps_N: 1/3 (0.333333)"

    def test_tiny_too_large(self, capsys):
        rc, _, err = run(capsys, "oracle", "tiny", "--u", "8", "--n", "1", "--bits", "3")
        assert rc == 1
        assert json.loads(err)["error"] == "enumeration-too-large"

    def test_exhaustive_fpr_small_filter(self, capsys, tmp_path):
        keys = tmp_path / "ten.txt"
        keys.write_bytes(b"".join(b"k%d\n" % i for i in range(10)))
        blob = tmp_path / "ten.bin"
        rc, _, err = run(
            capsys,
            "filter",
            "build",
            "--keys",
            str(keys),
            "--eps-k",
            "0",
            "--eps-n",
            "0.5",
            "--out",
            str(blob),
        )
        assert rc == 0, err
        doc = run_json(capsys, "oracle", "fpr", "--state", str(blob))
        assert doc["fpr_exact"] == [1, 2]
        assert doc["fpr_float"] == 0.5
        assert doc["matches_target"] is True

    def test_exhaustive_fpr_rejects_large_state(self, capsys, built_filter):
        # m = 122 at q = 2 is far beyond the 2**24-row enumeration limit.
        rc, _, err = run(capsys, "oracle", "fpr", "--state", str(built_filter))
        assert rc == 1
        assert json.loads(err)["error"] == "enumeration-too-large"


class TestEstimateKl:
    @pytest.fixture()
    def score_files(self, tmp_path):
        facts = tmp_path / "facts.txt"
        facts.write_text("0.25\n0.75\n0.75\n0.75\n")
        nonfacts = tmp_path / "nonfacts.txt"
        nonfacts.write_text("0.25\n0.25\n0.25\n0.75\n")
        return facts, nonfacts

    def test_two_bin_kl(self, capsys, score_files):
        facts, nonfacts = score_files
        doc = run_json(capsys, "estimate-kl", str(facts), str(nonfacts), "--bins", "2")
        # Histograms are (1/4, 3/4) vs (3/4, 1/4):
        # KL = 0.25*log2(1/3) + 0.75*log2(3) = 0.5*log2(3).
        assert doc["kl_bits"] == pytest.approx(0.7924812503605781, rel=1e-12)
        eps_k_hat = (-math.log(0.25) + 3 * -math.log(0.75)) / 4
        eps_n_hat = (3 * -math.log(0.75) + -math.log(0.25)) / 4
        assert doc["eps_k_hat_nats"] == pytest.approx(eps_k_hat, rel=1e-12)
        assert doc["eps_n_hat_nats"] == pytest.approx(eps_n_hat, rel=1e-12)
        assert doc["x_star"] == pytest.approx(math.exp(-eps_k_hat), rel=1e-12)

    def test_text_report(self, capsys, score_files):
        facts, nonfacts = score_files
        rc, out, _ = run(capsys, "estimate-kl", str(facts), str(nonfacts), "--bins", "2")
        assert rc == 0
        report = dict(line.split(": ", 1) for line in out.splitlines())
        assert report["kl_bits"] == "0.792481"

    def test_single_bin_kl_is_zero(self, capsys, score_files):
        # One bin holds every score on both sides, so the two laws are equal.
        facts, nonfacts = score_files
        doc = run_json(capsys, "estimate-kl", str(facts), str(nonfacts), "--bins", "1")
        assert doc["kl_bits"] == 0.0

    def test_infeasible_budgets_are_trivial_regime(self, capsys, tmp_path):
        # Scores this poor give budgets so loose that one score value meets
        # both, so the log-loss rate is 0 and there is no optimum to report.
        facts = tmp_path / "facts.txt"
        facts.write_text("0.25\n0.25\n0.75\n0.75\n")
        nonfacts = tmp_path / "nonfacts.txt"
        nonfacts.write_text("0.25\n0.75\n0.75\n0.75\n")
        rc, _, err = run(capsys, "estimate-kl", str(facts), str(nonfacts))
        assert rc == 1
        assert json.loads(err)["error"] == "trivial-regime"

    def test_malformed_score_file(self, capsys, tmp_path, score_files):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5\nnot-a-number\n")
        rc, _, err = run(capsys, "estimate-kl", str(bad), str(score_files[1]))
        assert rc == 1
        assert json.loads(err)["error"] == "file-format"

    def test_non_utf8_score_file(self, capsys, tmp_path, score_files):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xb70.5\n")
        rc, _, err = run(capsys, "estimate-kl", str(bad), str(score_files[1]))
        assert rc == 1
        doc = json.loads(err)
        assert doc["error"] == "file-format"
        assert str(bad) in doc["message"]

    def test_out_of_range_score(self, capsys, tmp_path, score_files):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5\n1.5\n")
        rc, _, err = run(capsys, "estimate-kl", str(bad), str(score_files[1]))
        assert rc == 1
        doc = json.loads(err)
        assert doc["error"] == "file-format"
        assert ":2:" in doc["message"]

    def test_oversized_bins_refused_before_allocating(self, capsys, score_files):
        facts, nonfacts = score_files
        rc, _, err = run(
            capsys, "estimate-kl", str(facts), str(nonfacts), "--bins", "1000000000000000"
        )
        assert rc == 1
        assert json.loads(err)["error"] == "domain"


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def _strict_json_commands(tmp_path):
    """argv (without ``--json``) for every subcommand that takes ``--json``,
    with the two inputs that make non-finite floats: a KL of inf and an
    infinite budget.  The files named are in ``tmp_path``."""
    keys, blob = tmp_path / "keys.txt", tmp_path / "f.bin"
    facts, nonfacts = tmp_path / "facts.txt", tmp_path / "nonfacts.txt"
    build = ["filter", "build", "--keys", str(keys), "--eps-k", "0", "--eps-n", "0.5"]
    return {
        "optimal-binary": ["optimal", "binary", "--eps-k", "0.1", "--eps-n", "0.1"],
        "optimal-logloss": ["optimal", "logloss", "--eps-k", "0.1", "--eps-n", "0.2"],
        "frontier": ["frontier", "--p", "0.1", "--eps-k", "0.1", "--eps-n", "0.1"],
        "frontier-inf-budget": ["frontier", "--p", "0.1", "--eps-k", "0.1", "--eps-n", "inf"],
        "filter-build": build + ["--out", str(blob)],
        "filter-bench": ["filter", "bench", "--state", str(blob), "--keys", str(keys), "--trials", "100"],
        "oracle-tiny": ["oracle", "tiny", "--u", "4", "--n", "1", "--bits", "1"],
        "oracle-fpr": ["oracle", "fpr", "--state", str(blob)],
        "estimate-kl": ["estimate-kl", str(facts), str(nonfacts), "--bins", "2"],
        "estimate-kl-inf": ["estimate-kl", str(facts), str(nonfacts), "--bins", "10"],
    }


@pytest.mark.parametrize("case", list(_strict_json_commands(Path("."))))
def test_every_json_output_parses_strictly(capsys, tmp_path, case):
    (tmp_path / "keys.txt").write_bytes(b"".join(b"k%d\n" % i for i in range(10)))
    (tmp_path / "facts.txt").write_text("0.95\n0.96\n")
    (tmp_path / "nonfacts.txt").write_text("0.05\n0.06\n0.5\n")
    commands = _strict_json_commands(tmp_path)
    if case in ("filter-bench", "oracle-fpr"):
        assert run(capsys, *commands["filter-build"])[0] == 0
    rc, out, err = run(capsys, *commands[case], "--json")
    assert (rc, err) == (0, "")
    doc = json.loads(out, parse_constant=_refuse_constant)
    if case == "frontier-inf-budget":
        assert doc["points"][0]["eps_N"] == "inf"
    if case == "estimate-kl-inf":
        assert doc["kl_bits"] == "inf" and float(doc["kl_bits"]) == math.inf


def test_frontier_sidecar_parses_strictly(capsys, tmp_path):
    out = tmp_path / "inf.csv"
    rc, _, err = run(
        capsys, "frontier", "--p", "0.1", "--eps-k", "0.1", "--eps-n", "inf",
        "--out", str(out),
    )
    assert (rc, err) == (0, "")
    assert out.read_text().splitlines()[1].split(",")[2] == "inf"
    sidecar = Path(str(out) + ".dists.json").read_text()
    doc = json.loads(sidecar, parse_constant=_refuse_constant)
    assert doc["points"][0]["eps_N"] == "inf"


def _readme_console_examples():
    """(argv, shown stdout) for each ``$ membound`` command in README's
    console block that is followed by its output."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```console\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()  # join continued lines
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ membound "):
            shown = itertools.takewhile(
                lambda s: s and not s.startswith("$"), lines[i + 1 :]
            )
            output = "".join(s + "\n" for s in shown)
            if output:
                argv = shlex.split(line[len("$ membound ") :], comments=True)
                examples.append((argv, output))
    return examples


def test_readme_console_examples_print_what_readme_shows(capsys):
    # `filter query` reads f.bin, built from a keys.txt whose contents the
    # README does not give, so only commands that read no files are run.
    runnable = [
        (argv, shown) for argv, shown in _readme_console_examples()
        if "--state" not in argv
    ]
    assert [argv[:2] for argv, _ in runnable] == [
        ["optimal", "binary"], ["frontier", "--p"], ["oracle", "tiny"]
    ]
    for argv, shown in runnable:
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, ""), argv
        assert out == shown, argv
