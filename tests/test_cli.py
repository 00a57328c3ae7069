import json
import math
import os
import subprocess
import sys

import pytest

import divkit
from divkit.bayes_poisson import poisson_k0
from divkit.bounds import (
    CATALOG,
    c_gamma,
    chi2_lower_from_tv,
    crossover_d,
    degroot_upper,
    egamma_upper,
    kl_upper_log_chi2,
    pinsker_bh_switch,
    straight_line_egamma_ub,
    tv_kl_frontier,
)
from divkit.cli import main
from divkit.generators import KINDS


@pytest.fixture
def dist_files(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text("[0.7, 0.3]")
    q.write_text("[0.5, 0.5]")
    return str(p), str(q)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_interpreter(code: str, *options: str) -> str:
    """stdout of ``code`` run by a fresh interpreter, with ``options``, on
    this checkout's divkit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(divkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *options, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestDiv:
    def test_tv(self, capsys, dist_files):
        p, q = dist_files
        code, out, _ = run_cli(capsys, "div", "--kind", "tv", "--p", p, "--q", q)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "tv"
        assert payload["value_nats"] == pytest.approx(0.4, abs=1e-11)

    def test_parameterized_kind(self, capsys, dist_files):
        p, q = dist_files
        code, out, _ = run_cli(capsys, "div", "--kind", "hellinger:2", "--p", p, "--q", q)
        assert code == 0
        assert json.loads(out)["value_nats"] == pytest.approx(0.16, abs=1e-11)

    def test_csv_input(self, capsys, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        p.write_text("0.7\n0.3\n")
        q.write_text("0.5\n0.5\n")
        code, out, _ = run_cli(capsys, "div", "--kind", "tv", "--p", str(p), "--q", str(q))
        assert code == 0
        assert json.loads(out)["value_nats"] == pytest.approx(0.4, abs=1e-11)

    def test_object_schema(self, capsys, tmp_path, dist_files):
        _, q = dist_files
        p = tmp_path / "p2.json"
        p.write_text('{"alphabet_size": 2, "masses": [0.7, 0.3]}')
        code, out, _ = run_cli(capsys, "div", "--kind", "kl", "--p", str(p), "--q", q)
        assert code == 0
        assert json.loads(out)["value_nats"] == pytest.approx(0.082283, abs=1e-6)

    def test_alphabet_size_mismatch(self, capsys, tmp_path, dist_files):
        _, q = dist_files
        p = tmp_path / "bad.json"
        p.write_text('{"alphabet_size": 3, "masses": [0.7, 0.3]}')
        code, _, err = run_cli(capsys, "div", "--kind", "kl", "--p", str(p), "--q", q)
        assert code == 2
        assert "alphabet_size" in err

    def test_malformed_json(self, capsys, tmp_path, dist_files):
        _, q = dist_files
        p = tmp_path / "broken.json"
        p.write_text("[0.7,\n 0.3")
        code, _, err = run_cli(capsys, "div", "--kind", "kl", "--p", str(p), "--q", q)
        assert code == 2
        assert "line" in err and "column" in err

    def test_unknown_kind(self, capsys, dist_files):
        p, q = dist_files
        code, _, err = run_cli(capsys, "div", "--kind", "nope", "--p", p, "--q", q)
        assert code == 2
        assert "unknown" in err

    def test_missing_file(self, capsys, dist_files):
        p, _ = dist_files
        code, _, err = run_cli(capsys, "div", "--kind", "kl", "--p", p, "--q", "/no/such.json")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["div", "--kind", "hellinger:abc", "--p", "{p}", "--q", "{q}"],
            ["div", "--kind", "hellinger:nan", "--p", "{p}", "--q", "{q}"],
            ["div", "--kind", "hellinger:inf", "--p", "{p}", "--q", "{q}"],
            ["bounds", "--name", "egamma_ub_kl", "--args", "gamma=abc,kl=1"],
            ["bounds", "--name", "pinsker_lb_kl", "--args", "kl=1"],
        ],
        ids=["hellinger_abc", "hellinger_nan", "hellinger_inf", "gamma_abc", "pinsker_kl"],
    )
    def test_malformed_parameters_exit_2(self, capsys, dist_files, argv):
        p, q = dist_files
        code, out, err = run_cli(capsys, *(a.format(p=p, q=q) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("divkit:") and "internal error" not in err

    @pytest.mark.parametrize(
        "text, index",
        [
            ('{"masses": ["a", 1]}', 0),
            ("[null, 1]", 0),
            ("[[1], 1]", 0),
            ('[1, {"a": 1}]', 1),
            ("[true, 1]", 0),
            ('{"alphabet_size": 1, "masses": 5}', None),
        ],
        ids=["string", "null", "array", "object", "true", "not_an_array"],
    )
    def test_mass_that_is_not_a_number(self, capsys, tmp_path, dist_files, text, index):
        _, q = dist_files
        p = tmp_path / "bad_mass.json"
        p.write_text(text)
        code, out, err = run_cli(capsys, "div", "--kind", "tv", "--p", str(p), "--q", q)
        assert code == 2
        assert out == ""
        assert err.startswith("divkit:") and "internal error" not in err
        if index is not None:
            assert f"mass {index} is not a number" in err

    def test_integer_weight_past_the_float_range(self, capsys, tmp_path, dist_files):
        _, q = dist_files
        p = tmp_path / "huge_int.json"
        p.write_text(f"[{10**400}, 1]")
        code, _, err = run_cli(capsys, "div", "--kind", "tv", "--p", str(p), "--q", q)
        assert code == 2
        assert "float range" in err

    def test_weights_whose_sum_overflows(self, capsys, tmp_path, dist_files):
        _, q = dist_files
        p = tmp_path / "huge.json"
        p.write_text("[1e308, 1e308]")
        code, out, _ = run_cli(capsys, "div", "--kind", "tv", "--p", str(p), "--q", q)
        assert code == 0
        assert json.loads(out)["value_nats"] == 0.0

    @pytest.mark.parametrize(
        "kind, expected", [("renyi:3000", pytest.approx(0.336353305329)), ("hellinger:3000", "inf")]
    )
    def test_large_order(self, capsys, dist_files, kind, expected):
        p, q = dist_files
        code, out, _ = run_cli(capsys, "div", "--kind", kind, "--p", p, "--q", q)
        assert code == 0
        assert json.loads(out)["value_nats"] == expected

    def test_deterministic_output(self, capsys, dist_files):
        p, q = dist_files
        _, out1, _ = run_cli(capsys, "div", "--kind", "js", "--p", p, "--q", q)
        _, out2, _ = run_cli(capsys, "div", "--kind", "js", "--p", p, "--q", q)
        assert out1 == out2


class TestRepresent:
    @pytest.mark.parametrize("engine", ["general", "named", "inverse-g", "degroot-weight"])
    def test_engines_agree_with_direct(self, capsys, dist_files, engine):
        p, q = dist_files
        code, out, _ = run_cli(
            capsys,
            "represent", "--kind", "kl", "--p", p, "--q", q, "--engine", engine
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["abs_diff"] <= 1e-6

    def test_no_shift_option(self, capsys, dist_files):
        # the general engine's c selects nothing, so the CLI has no --c
        p, q = dist_files
        code, out, err = run_cli(
            capsys,
            "represent", "--kind", "kl", "--p", p, "--q", q, "--engine", "general", "--c", "1",
        )
        assert code == 2
        assert out == "" and "--c" in err

    # one in-domain value per parameter name that KINDS uses
    PARAM_VALUES = {"alpha": 0.5, "s": 2.0, "theta": 0.3, "gamma": 1.2, "omega": 0.3}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_named_engine_covers_every_kind(self, capsys, dist_files, kind):
        p, q = dist_files
        pname = KINDS[kind][1]
        spec = kind if pname is None else f"{kind}:{self.PARAM_VALUES[pname]}"
        code, out, _ = run_cli(
            capsys, "represent", "--kind", spec, "--p", p, "--q", q, "--engine", "named"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["abs_diff"] <= 1e-11 * max(1.0, payload["direct_value"])

    def test_named_degroot(self, capsys, dist_files):
        p, q = dist_files
        code, out, _ = run_cli(
            capsys, "represent", "--kind", "degroot:0.45", "--p", p, "--q", q
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.04, abs=1e-11)

    def test_kinked_general_taken(self, capsys, dist_files):
        # TV's kink at 1 and E_1.2's lie among the pair's ratios 1.4 and 0.6
        p, q = dist_files
        for kind in ("tv", "e_gamma:1.2"):
            for engine in ("general", "inverse-g"):
                code, out, _ = run_cli(
                    capsys, "represent", "--kind", kind, "--p", p, "--q", q, "--engine", engine
                )
                assert code == 0
                payload = json.loads(out)
                assert payload["direct_value"] > 0.0
                assert payload["abs_diff"] <= 1e-15, (kind, engine, payload)

    def test_degroot_weight_refuses_a_ratio_past_the_float_range(self, capsys, tmp_path):
        # e^x of the breakpoint ~713 raised a raw OverflowError, exit 1; the
        # prior cut is now taken from e^-x, and a node's omega^3 underflows
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text("[0.5, 0.5]")
        q.write_text("[1e-310, 1]")
        code, _, err = run_cli(
            capsys, "represent", "--kind", "kl", "--p", str(p), "--q", str(q),
            "--engine", "degroot-weight",
        )
        assert code == 2
        assert "cube underflows" in err

    def test_degroot_weight_answers_triangular_past_the_float_range(self, capsys, tmp_path):
        # the prior cut 1/(1 + e^x) of the breakpoint ~713 refused it, exit 2
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text("[0.5, 0.5]")
        q.write_text("[1e-310, 1]")
        code, out, _ = run_cli(
            capsys, "represent", "--kind", "triangular", "--p", str(p), "--q", str(q),
            "--engine", "degroot-weight",
        )
        assert code == 0
        assert json.loads(out)["abs_diff"] <= 1e-6

    def test_named_renyi_keeps_a_jump_below_an_ulp(self, capsys, tmp_path):
        # the named value read 0.405 against the direct 23.01
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text("[0.6, 0.4, 1e-20]")
        q.write_text("[0.4, 0.6, 1e-30]")
        code, out, _ = run_cli(
            capsys, "represent", "--kind", "renyi:3000", "--p", str(p), "--q", str(q),
            "--engine", "named",
        )
        assert code == 0
        assert json.loads(out)["abs_diff"] == 0


class TestSpectrum:
    def test_fields(self, capsys, dist_files):
        p, q = dist_files
        code, out, _ = run_cli(capsys, "spectrum", "--p", p, "--q", q)
        assert code == 0
        payload = json.loads(out)
        assert payload["cum_masses"] == [0.3, 1.0]
        assert payload["singular_mass_p"] == 0.0
        assert payload["breakpoints"][1] == pytest.approx(math.log(1.4), abs=1e-11)


# DeGroot inputs whose four divergences differ, so that a bound reading the
# wrong one, or the wrong side for its omega, reads another value
_DEGROOT = dict(d_pq=0.02, d_qp=0.03, chi_pq=0.04, chi_qp=0.05)
_DEGROOT_ARGS = ",".join(f"{k}={v}" for k, v in _DEGROOT.items())

# catalog name -> (--args, direction, the public call it stands for)
_WIRING = {
    "pinsker_lb_kl": ("tv=0.4", "lower", lambda: tv_kl_frontier("pinsker_lb_kl", 0.4)),
    "bh_lb_kl": ("tv=0.4", "lower", lambda: tv_kl_frontier("bh_lb_kl", 0.4)),
    "vajda_lb_kl": ("tv=1.3", "lower", lambda: tv_kl_frontier("vajda_lb_kl", 1.3)),
    "bh_ub_tv": ("kl=0.3", "upper", lambda: tv_kl_frontier("bh_ub_tv", 0.3)),
    "vajda_ub_tv": ("kl=0.3", "upper", lambda: tv_kl_frontier("vajda_ub_tv", 0.3)),
    "egamma_ub_chi2": ("gamma=2,chi2=0.5", "upper", lambda: egamma_upper("chi2", 2.0, 0.5)),
    "egamma_ub_kl": ("gamma=2,kl=0.5", "upper", lambda: egamma_upper("kl", 2.0, 0.5)),
    "straight_line_egamma_ub": (
        "gamma=2,kl=0.5", "upper", lambda: straight_line_egamma_ub(2.0, 0.5)
    ),
    "chi2_lb_tv_tight": ("tv=1.2", "lower", lambda: chi2_lower_from_tv("tight", 1.2)),
    "chi2_lb_tv_jensen": ("tv=1.2", "lower", lambda: chi2_lower_from_tv("jensen", 1.2)),
    "kl_ub_log_chi2": ("chi2=0.9", "upper", lambda: kl_upper_log_chi2(0.9)),
    "degroot_ub_from_chi2": (
        f"omega=0.7,{_DEGROOT_ARGS}", "upper", lambda: degroot_upper("chi2", 0.7, **_DEGROOT)
    ),
    "degroot_ub_kl_line": (
        f"omega=0.3,{_DEGROOT_ARGS}", "upper", lambda: degroot_upper("kl_line", 0.3, **_DEGROOT)
    ),
    "degroot_ub_kl_bh": (
        f"omega=0.7,{_DEGROOT_ARGS}", "upper", lambda: degroot_upper("kl_bh", 0.7, **_DEGROOT)
    ),
    "c_gamma": ("gamma=3", "upper", lambda: c_gamma(3.0)),
    "crossover_d": ("gamma=2", "upper", lambda: crossover_d(2.0)),
    "pinsker_bh_switch": ("", "upper", pinsker_bh_switch),
}


class TestBounds:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--list")
        assert code == 0
        assert json.loads(out)["bounds"] == [
            "bh_lb_kl",
            "bh_ub_tv",
            "c_gamma",
            "chi2_lb_tv_jensen",
            "chi2_lb_tv_tight",
            "crossover_d",
            "degroot_ub_from_chi2",
            "degroot_ub_kl_bh",
            "degroot_ub_kl_line",
            "egamma_ub_chi2",
            "egamma_ub_kl",
            "kl_ub_log_chi2",
            "pinsker_bh_switch",
            "pinsker_lb_kl",
            "straight_line_egamma_ub",
            "vajda_lb_kl",
            "vajda_ub_tv",
        ]

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_entry_calls_its_function(self, capsys, name):
        kv, direction, call = _WIRING[name]
        code, out, _ = run_cli(capsys, "bounds", "--name", name, "--args", kv)
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_value"] == float(format(call(), ".12g"))
        assert payload["direction"] == direction

    def test_degroot_entry_needs_every_input(self, capsys):
        args = "omega=0.3,d_pq=0.02,d_qp=0.03,chi_pq=0.04"
        code, out, err = run_cli(capsys, "bounds", "--name", "degroot_ub_kl_bh", "--args", args)
        assert code == 2
        assert out == ""
        assert "missing chi_qp" in err

    @pytest.mark.parametrize("args", ["tv=0.1,tv=0.4", "tv=0.4,certified=0.1,certified=0.2"])
    def test_repeated_key(self, capsys, args):
        code, out, err = run_cli(capsys, "bounds", "--name", "pinsker_lb_kl", "--args", args)
        assert code == 2
        assert out == ""
        assert "repeated --args key" in err

    def test_named_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--name", "pinsker_lb_kl", "--args", "tv=0.4")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_value"] == pytest.approx(0.08, abs=1e-11)
        assert payload["direction"] == "lower"
        assert payload["slack"] is None

    def test_with_certified(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--name", "pinsker_lb_kl", "--args", "tv=0.4,certified=0.0822828785"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["slack"] == pytest.approx(0.0022828785, abs=1e-9)

    @pytest.mark.parametrize("gamma", ["1.0001", "1e300"])
    def test_crossover_past_the_old_bracket(self, capsys, gamma):
        code, out, _ = run_cli(capsys, "bounds", "--name", "crossover_d", "--args", f"gamma={gamma}")
        assert code == 0
        assert json.loads(out)["bound_value"] > 0.0

    def test_unknown_bound(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--name", "nope", "--args", "tv=0.1")
        assert code == 2

    def test_missing_name(self, capsys):
        code, _, err = run_cli(capsys, "bounds")
        assert code == 2


class TestFigure1:
    def test_header_and_monotonicity(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure1", "--gammas", "1.1,2", "--d-max", "2.0", "--steps", "50"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "D,gamma,straight_line,bh_curve"
        assert len(lines) == 1 + 2 * 50
        by_gamma = {}
        for line in lines[1:]:
            d, g, s, b = (float(x) for x in line.split(","))
            by_gamma.setdefault(g, []).append((d, s, b))
        for rows in by_gamma.values():
            straights = [s for _, s, _ in rows]
            assert all(a < b for a, b in zip(straights, straights[1:]))

    def test_d_max_near_the_float_range(self, capsys):
        # d_max i / steps passed the float range before the division
        code, out, _ = run_cli(
            capsys, "figure1", "--gammas", "2", "--d-max", "1e308", "--steps", "3"
        )
        assert code == 0
        ds = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        assert len(ds) == 3 and all(map(math.isfinite, ds))
        assert ds == sorted(ds) and ds[-1] == 1e308

    def test_bad_gamma(self, capsys):
        code, _, _ = run_cli(capsys, "figure1", "--gammas", "0.9", "--steps", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--gammas", "abc"],
            ["--gammas", "2,abc"],
            ["--gammas", "1e400"],
            ["--gammas", "inf"],
            ["--gammas", "nan"],
            ["--d-max", "nan"],
            ["--d-max", "0"],
            ["--d-max", "-1"],
            ["--d-max", "inf"],
            ["--d-max", "1e400"],
        ],
        ids=[
            "abc", "second_abc", "1e400", "inf", "nan", "d_max_nan", "d_max_0", "d_max_neg",
            "d_max_inf", "d_max_1e400",
        ],
    )
    def test_bad_option_writes_nothing(self, capsys, argv):
        code, out, err = run_cli(capsys, "figure1", "--steps", "2", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("divkit:") and "internal error" not in err


class TestPoisson:
    def test_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "poisson", "--mu", "101", "--lambda", "99", "--omega", "0.1"
        )
        assert code == 0
        assert '"k0":209' in out
        payload = json.loads(out)
        assert payload["kl"] == pytest.approx(0.0200677, abs=1e-6)
        assert len(payload["bounds"]) == 3
        rounded = [b["bound_value_2sig"] for b in payload["bounds"]]
        assert rounded == ["4.6e-04", "5.8e-04", "2.2e-03"]

    def test_bad_rate(self, capsys):
        code, _, _ = run_cli(
            capsys, "poisson", "--mu", "-1", "--lambda", "2", "--omega", "0.5"
        )
        assert code == 2

    def test_example_exact_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "poisson", "--mu", "101", "--lambda", "99", "--omega", "0.1"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["exact_degroot"] == pytest.approx(4.0824100341660e-24, rel=1e-10)
        assert [b["certified_quantity"] for b in payload["bounds"]] == [
            payload["exact_degroot"]
        ] * 3
        assert "truncation_epsilon" not in payload
        assert "exact_degroot_error_budget" not in payload

    def test_equal_rates(self, capsys):
        code, out, _ = run_cli(
            capsys, "poisson", "--mu", "5", "--lambda", "5", "--omega", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k0"] is None
        assert payload["exact_degroot"] == 0.0

    def test_tiny_prior(self, capsys):
        # 1 - omega rounds to 1 here; the threshold takes it exactly
        code, out, _ = run_cli(
            capsys, "poisson", "--mu", "1", "--lambda", "2", "--omega", "5e-324"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k0"] == -1073
        assert all(b["slack"] >= 0.0 for b in payload["bounds"])

    def test_swapped_roles_at_a_small_prior(self, capsys):
        # mu < lam: the threshold is the swapped one's, at the prior 1 - omega
        code, out, _ = run_cli(
            capsys, "poisson", "--mu", "0.1", "--lambda", "99", "--omega", "1e-6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k0"] == poisson_k0(0.1, 99.0, 1.0 - 1e-6) == 12
        names = [b["name"] for b in payload["bounds"]]
        assert names == ["degroot_ub_from_chi2", "degroot_ub_kl_line", "degroot_ub_kl_bh"]
        assert all(b["slack"] >= 0.0 for b in payload["bounds"])

    @pytest.mark.parametrize("mu", ["inf", "1e300", "nan"])
    def test_rate_outside_the_domain(self, capsys, mu):
        code, out, err = run_cli(
            capsys, "poisson", "--mu", mu, "--lambda", "2", "--omega", "0.5"
        )
        assert code == 2
        assert out == ""
        assert "rate" in err and "internal error" not in err


class TestLocal:
    def test_kl(self, capsys, dist_files):
        p, q = dist_files
        code, out, _ = run_cli(capsys, "local", "--f", "kl", "--p", p, "--q", q)
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == pytest.approx(0.08, abs=1e-11)
        assert abs(payload["extrapolated"] - 0.08) <= 1e-12


class TestSelftestAndPlumbing:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out

    def test_runtime_is_standard_library_only(self):
        # a fresh interpreter without site-packages: import the package and
        # the CLI, run selftest, and list the test oracles that got loaded
        code = (
            "import contextlib, io, sys\n"
            "import divkit, divkit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = divkit.cli.main(['selftest'])\n"
            "print(rc, sorted({'numpy', 'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))\n"
        )
        assert _fresh_interpreter(code, "-S").split() == ["0", "[]"]

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_format_only_from_argv(self, capsys, dist_files, monkeypatch):
        # the environment does not change stdout: JSON unless --format csv
        p, q = dist_files
        args = ("div", "--kind", "tv", "--p", p, "--q", q)
        monkeypatch.delenv("DIVKIT_FORMAT", raising=False)
        code, plain, _ = run_cli(capsys, *args)
        assert code == 0
        monkeypatch.setenv("DIVKIT_FORMAT", "csv")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out == plain
        assert json.loads(out)["kind"] == "tv"
        code, out, _ = run_cli(capsys, "--format", "csv", *args)
        assert code == 0
        header, row = out.strip().split("\n")
        assert "value_nats" in header.split(",")

    def test_infinite_value_serialization(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text("[0.5, 0.5]")
        q.write_text("[1, 0]")
        code, out, _ = run_cli(capsys, "div", "--kind", "kl", "--p", str(p), "--q", str(q))
        assert code == 0
        assert json.loads(out)["value_nats"] == "inf"


_LOADED = "sorted(m for m in sys.modules if m == 'divkit' or m.startswith('divkit.'))"
_DIV_MODULES = {"cli", "errors", "distributions", "divergences", "generators", "terms"}


class TestLazyLoading:
    # the divkit modules each subcommand loads, besides the package itself
    EXPECTED = {
        "spectrum": {"cli", "errors", "distributions"},
        "poisson": {"cli", "errors", "bayes_poisson", "bounds", "terms"},
        "bounds": {"cli", "errors", "bounds", "terms"},
        "figure1": {"cli", "errors", "bounds", "terms"},
        "div": _DIV_MODULES,
        "represent": _DIV_MODULES | {"spectrum_repr", "quadrature"},
        "selftest": _DIV_MODULES | {"spectrum_repr", "quadrature"},
        "local": _DIV_MODULES | {"local"},
    }

    @staticmethod
    def _argv(command, p, q):
        return {
            "spectrum": ["--p", p, "--q", q],
            "poisson": ["--mu", "101", "--lambda", "99", "--omega", "0.1"],
            "bounds": ["--name", "pinsker_lb_kl", "--args", "tv=0.4"],
            "figure1": ["--steps", "2"],
            "div": ["--kind", "kl", "--p", p, "--q", q],
            "represent": ["--kind", "kl", "--p", p, "--q", q],
            "selftest": [],
            "local": ["--f", "kl", "--p", p, "--q", q],
        }[command]

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_subcommand_loads_only_its_modules(self, dist_files, command):
        argv = [command, *self._argv(command, *dist_files)]
        out = _fresh_interpreter(
            "import contextlib, io, sys\n"
            "import divkit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = divkit.cli.main({argv!r})\n"
            f"print(rc, 'dataclasses' in sys.modules, *{_LOADED})\n"
        )
        rc, dataclasses_loaded, *loaded = out.split()
        assert rc == "0"
        assert loaded == sorted({"divkit"} | {f"divkit.{m}" for m in self.EXPECTED[command]})
        # the records are NamedTuples and __slots__ classes; only the local
        # estimate is still a dataclass
        assert dataclasses_loaded == str(command == "local")

    def test_import_divkit_loads_no_submodule(self):
        out = _fresh_interpreter(f"import sys\nimport divkit\nprint(*{_LOADED})\n")
        assert out.split() == ["divkit"]

    def test_every_export_resolves(self):
        for name in divkit.__all__:
            assert getattr(divkit, name) is not None
        assert set(divkit.__all__) <= set(dir(divkit))
        namespace: dict = {}
        exec("from divkit import *", namespace)
        assert set(divkit.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            divkit.no_such_name  # noqa: B018
        assert not hasattr(divkit, "poisson_degroot_minsum")
