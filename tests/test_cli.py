import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from phiring import cli, oracle, phi, rograde, superalg
from phiring.charspace import GroupContext, enumerate_lines


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_proc(argv, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop(cli.BUDGET_ENV, None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "phiring.cli", *argv],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


class TestSeries:
    def test_csv_is_the_bare_coefficient_row(self, capsys):
        code, out, _ = run_cli(["series", "--p", "3", "--n", "2", "--cutoff", "5"], capsys)
        assert code == 0
        assert out == "1,4,7,10,13,16\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            ["series", "--p", "3", "--n", "2", "--cutoff", "5", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["coeffs"] == [1, 4, 7, 10, 13, 16]
        assert json.loads(json.dumps(report)) == report


class TestVerify:
    def test_rank_one_all_equal_exit_zero(self, capsys):
        code, out, _ = run_cli(["phi-verify", "--p", "3", "--n", "1", "--cutoff", "8"], capsys)
        assert code == 0
        assert "equal,true,true,true,true,true,true,true,true,true" in out

    def test_verbatim_flags_weight_one_and_exits_nonzero(self, capsys):
        code, out, _ = run_cli(
            ["phi-verify", "--p", "3", "--n", "2", "--verbatim", "--cutoff", "2", "--format", "json"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert report["presentation"][1] == 8
        assert report["closed_form"][1] == 4
        assert report["oracle"][1] == 4
        assert 1 in report["mismatched_weights"]
        assert report["ok"] is False

    def test_report_round_trips_through_json(self, capsys):
        code, out, _ = run_cli(
            ["phi-verify", "--p", "3", "--n", "2", "--cutoff", "3", "--format", "json"], capsys
        )
        assert code == 0
        config = cli.config_from_args(
            ["phi-verify", "--p", "3", "--n", "2", "--cutoff", "3", "--format", "json"]
        )
        _, text = cli.run(config)
        assert json.loads(out) == json.loads(text)

    def test_large_prime_rank_one_finishes(self):
        # one line out of p - 1 characters: the line is built, not searched for
        argv = ["phi-verify", "--p", "67108879", "--n", "1", "--cutoff", "4", "--format", "json"]
        start = time.monotonic()
        proc = run_proc(argv, timeout=60)
        assert time.monotonic() - start < 5
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["equal"] == [True] * 5

    def test_p7_n2_cutoff7_is_all_equal_within_10s(self):
        # 3432 columns at the top weight; the presentation's Macaulay
        # elimination dominates
        argv = ["phi-verify", "--p", "7", "--n", "2", "--cutoff", "7", "--format", "json"]
        start = time.monotonic()
        proc = run_proc(argv, timeout=120)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["equal"] == [True] * 8
        assert elapsed < 10, "took %.1f s" % elapsed


    @pytest.mark.parametrize(
        "argv",
        [
            ["phi-verify", "--p", "7", "--n", "2", "--cutoff", "5"],
            ["localize", "--p", "3", "--n", "3", "--cutoff", "5", "--lines",
             "1,0,0;0,1,0;1,1,0;1,1,1"],
            ["relation-check", "--p", "3", "--n", "3"],
            ["relation-check", "--p", "3", "--n", "3", "--verbatim"],
        ],
        ids=["phi-verify", "localize", "relation-check", "relation-check-verbatim"],
    )
    def test_routes_construct_no_monomial_objects(self, argv, capsys, monkeypatch):
        # both routes and the relation check, presentation building
        # included, read monomials as code rows only: no SuperMonomial and
        # no PolyExtElement is built
        built = {"SuperMonomial": 0, "PolyExtElement": 0}
        post_init = superalg.SuperMonomial.__post_init__
        init = oracle.PolyExtElement.__init__

        def counting_post_init(m):
            built["SuperMonomial"] += 1
            post_init(m)

        def counting_init(el, *args, **kwargs):
            built["PolyExtElement"] += 1
            init(el, *args, **kwargs)

        monkeypatch.setattr(superalg.SuperMonomial, "__post_init__", counting_post_init)
        monkeypatch.setattr(oracle.PolyExtElement, "__init__", counting_init)
        code, _, _ = run_cli(argv, capsys)
        assert code in (0, 1)
        assert built == {"SuperMonomial": 0, "PolyExtElement": 0}


class TestUsageErrors:
    def test_invalid_prime(self, capsys):
        code, _, err = run_cli(["lines", "--p", "4", "--n", "2"], capsys)
        assert code == 2
        assert "odd prime" in err

    def test_zero_character_named(self, capsys):
        code, _, err = run_cli(
            ["localize", "--p", "3", "--n", "2", "--cutoff", "2", "--lines", "0,0"], capsys
        )
        assert code == 2
        assert "--lines" in err and "zero" in err

    def test_wrong_length_character(self, capsys):
        code, _, err = run_cli(
            ["ro-dim", "--p", "3", "--n", "2", "--mult", "1,0,1:1", "--k", "2"], capsys
        )
        assert code == 2
        assert "--mult" in err

    def test_missing_cutoff(self, capsys):
        code, _, err = run_cli(["series", "--p", "3", "--n", "2"], capsys)
        assert code == 2
        assert "--cutoff" in err

    def test_budget_refusal_names_the_estimate(self, capsys):
        os.environ[cli.BUDGET_ENV] = "10"
        try:
            code, _, err = run_cli(
                ["phi-verify", "--p", "3", "--n", "2", "--cutoff", "8"], capsys
            )
        finally:
            del os.environ[cli.BUDGET_ENV]
        assert code == 2
        assert "165" in err  # the weight-8 column count for 4 generator pairs
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["localize", "--p", "94906297", "--n", "2", "--cutoff", "3", "--lines", "1,0;0,1;1,1"],
            ["ro-dim", "--p", "94906297", "--n", "2", "--mult", "1,0:1;0,1:1", "--k", "3"],
            ["ro-table", "--p", "94906297", "--n", "2", "--max-mult", "1"],
            # one column, but (p-1)^2 >= 2^53: the float64 bound refuses it first
            ["ro-dim", "--p", "2147483659", "--n", "2", "--mult", "1,0:1", "--k", "1"],
            # one column and (p-1)^2 + p < 2^53, but an entry of the oracle's
            # products gathers n products and n*(p-1)^2 + p >= 2^53
            ["localize", "--p", "94906249", "--n", "1025", "--cutoff", "0",
             "--lines", ",".join(["1"] + ["0"] * 1024)],
            ["localize", "--p", "67108879", "--n", "2", "--cutoff", "1", "--lines", "1,0"],
        ],
    )
    def test_prime_too_large_for_exact_elimination_refused(self, argv):
        start = time.monotonic()
        proc = run_proc(argv)
        assert time.monotonic() - start < 5
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"too large for exact elimination" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [["phi-verify", "--p", "3", "--n", "5", "--cutoff", "1"],
         ["phi-verify", "--p", "3", "--n", "5", "--cutoff", "1", "--verbatim"],
         ["phi-verify", "--p", "3", "--n", "4", "--cutoff", "3"],
         ["phi-verify", "--p", "5", "--n", "4", "--cutoff", "1"],
         ["localize", "--p", "3", "--n", "4", "--cutoff", "3", "--lines",
          ";".join(",".join(map(str, line.rep.coords))
                   for line in enumerate_lines(GroupContext(3, 4)))]],
    )
    def test_oracle_block_over_budget_refused_before_any_work(self, argv, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in ((oracle, "span_rank"), (phi, "build_phi_presentation"),
                             (rograde, "localized_hilbert")):
            monkeypatch.setattr(module, name, no_work)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "oracle" in err and "budget" in err

    @pytest.mark.parametrize("shape", [(3, 4, 1), (7, 3, 3), (3, 3, 7), (7, 2, 7), (3, 3, 5)])
    def test_oracle_blocks_within_budget_pass(self, shape):
        p, n, cutoff = shape
        ctx = GroupContext(p, n)
        config = cli.config_from_args(["phi-verify", "--p", str(p), "--n", str(n)])
        cli._check_oracle_blocks(ctx.num_lines, cutoff, ctx, config)

    @pytest.mark.parametrize("item", ["1,0", "1,x:1", "1,0:z", "1,0,0:1"])
    def test_malformed_mult_refused_before_any_work(self, item, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("ro_dimension called")

        monkeypatch.setattr(rograde, "ro_dimension", no_work)
        code, out, err = run_cli(["ro-dim", "--p", "3", "--n", "2", "--mult", item, "--k", "2"],
                                 capsys)
        assert (code, out) == (2, "")
        assert "--mult" in err

    @pytest.mark.parametrize(
        "argv",
        [["series", "--cutoff", "3"], ["lines"], ["fn-enum"], ["phi-verify", "--cutoff", "3"],
         ["phi-basis", "--weight", "2"], ["e1-table", "--cutoff", "3"],
         ["e2-table", "--cutoff", "3"], ["collapse-check", "--cutoff", "3"],
         ["ro-dim", "--mult", "1,0:1", "--k", "2"], ["ro-table"], ["relation-check"]],
        ids=lambda argv: argv[0],
    )
    def test_seed_only_on_localize(self, argv, capsys):
        # only localize draws a --sample; no other command takes --seed
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], "--p", "3", "--n", "2", *argv[1:], "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_ro_table_budget_refusal(self, capsys):
        os.environ[cli.BUDGET_ENV] = "10"
        try:
            code, _, err = run_cli(["ro-table", "--p", "3", "--n", "2", "--max-mult", "4"], capsys)
        finally:
            del os.environ[cli.BUDGET_ENV]
        assert code == 2
        assert "budget" in err


class TestParserReuse:
    # the parser is built once per process; parses share no state

    def test_two_parses_are_independent(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"p": 3, "n": 2, "lines": [[1, 0]]}), encoding="utf-8")
        argv = ["localize", "--p", "3", "--n", "2", "--cutoff", "2"]
        first = cli.config_from_args(argv + ["--arrangement", str(path)])
        os.environ[cli.BUDGET_ENV] = "77"
        try:
            second = cli.config_from_args(argv + ["--lines", "0,1"])
        finally:
            del os.environ[cli.BUDGET_ENV]
        assert first is not second
        assert (first.column_budget, second.column_budget) == (cli.DEFAULT_COLUMN_BUDGET, 77)
        assert first.arrangement == (3, 2, [[1, 0]]) and second.arrangement is None
        assert (first.lines_spec, second.lines_spec) == ("", "0,1")
        assert cli._build_parser() is cli._build_parser()

    def test_refused_parse_then_valid_parse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["series", "--p", "3", "--n", "2", "--cutoff", "3", "--seed", "1"])
        assert exc.value.code == 2
        code, out, _ = run_cli(["series", "--p", "3", "--n", "2", "--cutoff", "3"], capsys)
        assert (code, out) == (0, "1,4,7,10\n")


class TestArrangementFile:
    def test_characters_canonicalized_and_deduplicated(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"p": 3, "n": 2, "lines": [[2, 0], [1, 0]]}))
        code, out, _ = run_cli(
            ["localize", "--cutoff", "3", "--arrangement", str(path), "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"][0]["lines"] == [[1, 0]]  # one line after dedup
        assert report["results"][0]["oracle"] == [1, 1, 1, 1]

    def test_conflicting_flags_rejected(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"p": 3, "n": 2, "lines": [[1, 0]]}))
        code, _, err = run_cli(
            ["localize", "--p", "5", "--cutoff", "2", "--arrangement", str(path)], capsys
        )
        assert code == 2
        assert "--p" in err

    def test_missing_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"p": 3, "lines": []}))
        code, _, err = run_cli(["localize", "--cutoff", "2", "--arrangement", str(path)], capsys)
        assert code == 2
        assert "'n'" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"p": 3, "n": 2, "lines": 5},
            {"p": 3, "n": 2, "lines": [5]},
            {"p": "x", "n": 2, "lines": [[1, 0]]},
            {"p": None, "n": 2, "lines": [[1, 0]]},
            {"p": 3, "n": 2, "lines": []},
            {"p": 3.5, "n": 2, "lines": [[1, 0]]},
            {"p": True, "n": 2, "lines": [[1, 0]]},
            {"p": 3, "n": 2.0, "lines": [[1, 0]]},
            {"p": 3, "n": 2, "lines": [[1, None]]},
            [3, 2, [[1, 0]]],
        ],
        ids=["lines-int", "lines-int-row", "p-str", "p-null", "lines-empty", "p-float",
             "p-bool", "n-float", "null-coordinate", "not-an-object"],
    )
    def test_malformed_file_is_a_usage_error(self, data, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["localize", "--cutoff", "2", "--arrangement", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: arrangement file ")


class TestDefaults:
    # each flag's default is defined once, in the command table
    @pytest.mark.parametrize(
        "argv,defaults",
        [
            (["ro-table", "--p", "3", "--n", "2"],
             ["--max-mult", "2", "--k-min", "0", "--k-max", "4"]),
            (["localize", "--p", "3", "--n", "3", "--cutoff", "3", "--sample", "2"],
             ["--seed", "0", "--sample-max-size", "4"]),
        ],
        ids=["ro-table", "localize"],
    )
    def test_defaults_spelled_out_change_nothing(self, argv, defaults, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert (code, out) == run_cli(argv + defaults, capsys)[:2]
        assert out


class TestSampling:
    def test_seeded_sampling_is_reproducible(self, capsys):
        argv = [
            "localize", "--p", "3", "--n", "3", "--cutoff", "2",
            "--sample", "3", "--sample-max-size", "3", "--seed", "42",
        ]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2
        assert out1 == out2

    def test_different_seed_changes_arrangements(self, capsys):
        base = ["localize", "--p", "3", "--n", "3", "--cutoff", "1", "--sample", "4"]
        _, out1, _ = run_cli(base + ["--seed", "1"], capsys)
        _, out2, _ = run_cli(base + ["--seed", "2"], capsys)
        assert out1 != out2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--sample", "-2", "--lines", "1,0"], "--sample must be a nonnegative integer"),
            (["--sample", "2", "--sample-max-size", "0"], "--sample-max-size must be >= 1"),
            (["--sample", "2", "--sample-max-size", "-4"], "--sample-max-size must be >= 1"),
        ],
        ids=["sample-negative", "max-size-zero", "max-size-negative"],
    )
    def test_bad_sample_sizes_are_refused(self, flags, message, capsys):
        argv = ["localize", "--p", "3", "--n", "2", "--cutoff", "2", *flags]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", "error: %s\n" % message)


class TestMiscCommands:
    def test_fn_enum_counts(self, capsys):
        code, out, _ = run_cli(["fn-enum", "--p", "3", "--n", "2", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 8

    def test_phi_basis_weight_two(self, capsys):
        code, out, _ = run_cli(
            ["phi-basis", "--p", "3", "--n", "2", "--weight", "2"], capsys
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_ro_table_csv_header(self, capsys):
        code, out, _ = run_cli(
            ["ro-table", "--p", "3", "--n", "1", "--max-mult", "1", "--k-min", "0", "--k-max", "2"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "multidegree,k,dimension"

    def test_relation_check_exit_zero(self, capsys):
        code, out, _ = run_cli(["relation-check", "--p", "3", "--n", "2"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "20,20,true"

    def test_e1_table_header(self, capsys):
        code, out, _ = run_cli(["e1-table", "--p", "3", "--n", "2", "--cutoff", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "s,0,1,2"


class TestRoTableGolden:
    # SHA-256 of stdout.  The n = 2 digests were recorded before the
    # generator keys cached their hashes, the n = 3 ones (supports of rank
    # 3) before ro_dimension became a binomial of the support's rank.  At
    # p = 5 the labels include 2*line, which p = 3 never has.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "--p 3 --n 2 --max-mult 3 --k-max 6 --format csv",
                "b35977157b94531856b6fa8d1fc7abd92533a3ea837103f56ad313b2f725a614",
            ),
            (
                "--p 3 --n 2 --max-mult 3 --k-max 6 --format json",
                "512eb2be5171452a288aca5f717e8efab25428481486d84688d0a08c49a9dde2",
            ),
            (
                "--p 5 --n 2 --max-mult 2 --k-max 4 --format csv",
                "bfa08a3efb3f42c431000cbbbb334978c219b381789271151594c0dfc9e25467",
            ),
            (
                "--p 5 --n 2 --max-mult 2 --k-max 4 --format json",
                "74d974ea96a987beb04a5f60d6b9d148be8364bb843903c6e4920e98a8806b45",
            ),
            (
                "--p 3 --n 3 --max-mult 3 --k-max 6 --format csv",
                "62f77ebf72455ea37a700646a5199b220d640b5facb3681a455a9b64c7078951",
            ),
            (
                "--p 3 --n 3 --max-mult 3 --k-max 6 --format json",
                "9b0002fdb88e11e30816edc343b946f5f419be2f39301582e2825d281e8ab1aa",
            ),
        ],
    )
    def test_stdout_digest(self, argv, digest, capsys):
        code, out, _ = run_cli(["ro-table", *argv.split()], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("csv", "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
            ("json", "6bfb66718dfab0ad33e3d4b0fcac88a0d5d16319e9e2fbd2d26559cd7545e1f7"),
        ],
    )
    def test_ro_dim_two_labels_on_one_line(self, fmt, digest, capsys):
        argv = "--p 5 --n 2 --mult 1,0:1;2,0:1 --k 3 --format %s" % fmt
        code, out, _ = run_cli(["ro-dim", *argv.split()], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRelationCheckGolden:
    # SHA-256 of stdout, recorded while the oracle's fraction arithmetic
    # (PolyExtElement, embed) still lived in src/phiring/oracle.py
    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("--p 3 --n 2", "fdb825a2cc6e6442ea2dc81e6e58dbb2717b582e47b73e23542a0e1fa6311f8b"),
            ("--p 3 --n 2 --format json",
             "d0c5d0a0352c97e637b54830519fdccb05c63116c1e2aa0b02aef9dc5a6cda0d"),
            ("--p 3 --n 2 --verbatim",
             "f6349c2526ea9d27b01d0bcd523e287da6117a70244f6f469adecb6f8c840607"),
            ("--p 3 --n 2 --verbatim --format json",
             "445083b7ceae53ece2ba61cbac3c7e1ab9a441f3b99cd07a35dead4e79744a24"),
            ("--p 5 --n 2", "5738d00fa92a4138193cf518f4a76d8b014f8daa58b8bea7bdc7e4dfa59a579d"),
            ("--p 5 --n 2 --format json",
             "7ba703ab3b7ac3a46afd7150bfdc66b51d30a4a9f3e9b5378e81eb256f71311c"),
            ("--p 5 --n 2 --verbatim",
             "cd9ed725b497fd2a2418ff1dcac26914e535396690123d157be0e78b864888d2"),
            ("--p 5 --n 2 --verbatim --format json",
             "ea31be69177287bd6f44ebf304046217a77732d093a549dc95c8e37572938ac4"),
            ("--p 3 --n 3", "7d4d66c475fa92a6ff4323bf327f99c055d8cb1a20c817915e20c7f0bee7c8b9"),
            ("--p 3 --n 3 --format json",
             "014d114772fc1430635492cc9fb21d06666d6d2dadd6f338e6b4b5b764f172f6"),
            ("--p 3 --n 3 --verbatim",
             "f6f627a55868b90c0d1cda1432d23e7d101d95a88f008d29911ab7007593743c"),
            ("--p 3 --n 3 --verbatim --format json",
             "b8492adf249c7cc87e4710e7aa9c8fb5460cefdd289a04600ea0d7b360e97030"),
        ],
    )
    def test_stdout_digest(self, argv, digest, capsys):
        code, out, _ = run_cli(["relation-check", *argv.split()], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPhiBasisGolden:
    # SHA-256 of stdout, recorded while free_monomials still sorted its
    # output; phi-basis prints the kept monomials in that order.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "--p 3 --n 3 --weight 4",
                "d89737f217d2780694654a1a6e99ec893d718f283372a7c67cd1b6feca9f7bd5",
            ),
            (
                "--p 3 --n 3 --weight 4 --format json",
                "f25509d4ff08f6394b7c9ffdc676343314da0484d29f6f0f33ad0d6764bb6180",
            ),
            (
                "--p 7 --n 2 --weight 5",
                "c8fec2bc932c2a150e9f5e4eb68cf6485fa0dad62ab70ea634d8c822146390e0",
            ),
            (
                "--p 3 --n 2 --weight 3 --verbatim",
                "fc6cd920b31fc06a57a7baa251ad38946f5e1a60198406bcb61e2ceef8647acf",
            ),
            (
                "--p 5 --n 2 --weight 6 --format json",
                "86a1b452606632e76509e2c1be0a7cf46e467a6f5051bf488b1dcb3f22c87420",
            ),
        ],
    )
    def test_stdout_digest(self, argv, digest, capsys):
        code, out, _ = run_cli(["phi-basis", *argv.split()], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["phi-verify", "--p", "3", "--n", "2", "--cutoff", "4"],
            ["localize", "--p", "3", "--n", "2", "--cutoff", "3", "--lines", "1,0;0,1;1,1"],
        ],
    )
    def test_byte_identical_across_runs_and_hash_seeds(self, argv):
        outputs = set()
        for seed in ("0", "1"):
            for _ in range(2):
                proc = run_proc(argv, {"PYTHONHASHSEED": seed})
                assert proc.returncode == 0
                outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_json_identical_across_hash_seeds(self):
        argv = ["collapse-check", "--p", "3", "--n", "2", "--cutoff", "5", "--format", "json"]
        a = run_proc(argv, {"PYTHONHASHSEED": "0"})
        b = run_proc(argv, {"PYTHONHASHSEED": "1"})
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0
