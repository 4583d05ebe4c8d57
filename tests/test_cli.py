import argparse
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dshierarchy import cli
from dshierarchy.cli import main
from dshierarchy.hierarchy import DSHierarchy


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_derive_text_translation(capsys):
    code, out, _ = run(capsys, "derive", "--type", "a1_1",
                       "--flows", "1:0", "--format", "text")
    assert code == 0
    assert "u_t = -u_x" in out


def test_derive_text_kdv_regression(capsys):
    code, out, _ = run(capsys, "derive", "--type", "a1_1",
                       "--flows", "1:0,1:1", "--format", "text")
    assert code == 0
    assert "u_t = 3/2*u*u_x - 1/4*eps^2*u_xxx" in out


def test_derive_empty_flow_set(capsys):
    code, out, _ = run(capsys, "derive", "--type", "a1_1",
                       "--flows", "", "--format", "text")
    assert code == 0
    assert out == ""


def test_derive_json_deterministic(capsys):
    args = ("derive", "--type", "a1_1", "--flows", "1:0,1:1")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["flows"][0]["components"][0]["lhs"] == "u_t"


def test_verify_passes_sl2(capsys):
    code, out, _ = run(capsys, "verify", "--type", "a1_1", "--max-k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    names = {c["check"] for c in payload["checks"]}
    assert {"d10_is_minus_d", "omega_symmetry", "tau_symmetry",
            "omega_gauge_invariance", "flow_commutator",
            "resolvent_commutator", "tau_coordinates"} <= names


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--type", "a1_1", "--max-k", "1",
                       "--self-test-corrupt")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    failed = [c["check"] for c in payload["checks"]
              if not c.get("residual_zero", True)]
    assert "tau_symmetry" in failed


def test_verify_corrupts_a_copy_of_the_cached_table(capsys, monkeypatch):
    built = []

    def build(cfg):
        built.append(real_build(cfg))
        return built[-1]

    real_build = cli._build_hierarchy
    monkeypatch.setattr(cli, "_build_hierarchy", build)
    code, out, _ = run(capsys, "verify", "--type", "a1_1", "--max-k", "1",
                       "--self-test-corrupt")
    assert code == 1
    failed = {c["check"] for c in json.loads(out)["checks"]
              if not c["residual_zero"]}
    assert "tau_symmetry" in failed
    (cached,) = built[0]._omega.values()
    fresh = DSHierarchy("a1_1", max_flow_k=1, omega_max_k=1).omega_table(1, 1)
    assert cached.entries == fresh.entries
    assert (cached.max_a, cached.max_k, cached.depth) == \
        (fresh.max_a, fresh.max_k, fresh.depth)


COMMON_FLAGS = {"--config", "--type", "--vertex", "--flows", "--eps-order",
                "--jet-depth", "--depth", "--t-degree", "--bgw", "--format", "--max-a",
                "--max-k"}
EXTRA_FLAGS = {"derive": set(), "omega": set(), "verify": {"--self-test-corrupt"},
               "solve": set(), "resolvent": {"--exponent"}, "gauge-fix": set(),
               "discrete": {"--samples", "--seed"}}


def _subcommand_parsers(monkeypatch) -> dict:
    """The parser of each subcommand, as main builds them."""
    seen = []

    def capture(self, args=None, namespace=None):
        seen.append(self)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        main([])
    (sub,) = [a for a in seen[0]._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def test_each_subcommand_has_exactly_its_options(monkeypatch):
    parsers = _subcommand_parsers(monkeypatch)
    assert list(parsers) == list(EXTRA_FLAGS)
    assert len(COMMON_FLAGS) == 12
    for name, p in parsers.items():
        got = {s for a in p._actions for s in a.option_strings}
        assert got == {"-h", "--help"} | COMMON_FLAGS | EXTRA_FLAGS[name], name
        # the flags copied from the shared parent parse on every subcommand
        args = p.parse_known_args(["--max-k", "3", "--flows", "2:1"])[0]
        assert (args.max_k, args.flows, args.type) == (3, [(2, 1)], None), name


def test_fresh_config_has_every_option_at_its_default():
    cfg = cli.RunConfig()
    assert vars(cfg) == {
        "type": "a1_1", "vertex": 0, "flows": None, "eps_order": 4,
        "jet_depth": 8, "depth": None, "t_degree": 2, "bgw": None,
        "format": "json", "max_a": None, "max_k": 1, "exponent": 1,
        "samples": 100, "seed": 7, "self_test_corrupt": False}
    # each config owns its values: setting one leaves the next fresh one alone
    cfg.max_k = 5
    assert cli.RunConfig().max_k == 1


def test_every_option_reaches_the_program():
    # an option that is parsed and never read (as a flag checked and then
    # dropped) fails here: each key must be read as cfg.<key> in the CLI or
    # in a command module
    assert set(cli.RunConfig.DEFAULTS) == set(cli._OPTIONS)
    commands = sorted((Path(cli.__file__).parent / "commands").glob("*.py"))
    assert len(commands) == 8  # the package and one module per subcommand
    source = "".join(p.read_text() for p in [Path(cli.__file__), *commands])
    unread = [key for key in cli.RunConfig.DEFAULTS
              if not re.search(rf"\bcfg\.{key}\b", source)]
    assert unread == []


ROOT = Path(__file__).parents[1]
# every module of the package except the CLI itself
ENGINE = {f"dshierarchy.{p.stem}" for p in (ROOT / "src" / "dshierarchy").glob("*.py")
          if not p.stem.startswith("_") and p.stem != "cli"}


def _fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _fresh_modules(stmt: str) -> tuple[set, set]:
    """Run ``stmt`` in a fresh interpreter, its stdout discarded.

    Returns the modules that have run (a lazily registered module is not a
    plain ``ModuleType`` until it runs, and ``type`` does not run it) and the
    package's modules that are in ``sys.modules`` at all.
    """
    code = ("import io, sys, types; out, sys.stdout = sys.stdout, io.StringIO(); "
            f"{stmt}; sys.stdout = out; "
            "print(' '.join(n for n, m in sys.modules.items() "
            "if type(m) is types.ModuleType)); "
            "print(' '.join(n for n in sys.modules if n.startswith('dshierarchy')))")
    done = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded, registered = done.stdout.splitlines()
    return set(loaded.split()), set(registered.split())


def test_import_path_loads_no_dataclasses_or_inspect():
    # each dshier run is a fresh process, so what the import loads is paid on
    # every run; compared with a bare interpreter, so that site's imports do not count
    loaded, registered = _fresh_modules("import dshierarchy.cli")
    added = loaded - _fresh_modules("pass")[0]
    assert "dshierarchy.cli" in added
    assert not added & {"dataclasses", "inspect"}
    # every engine module is in sys.modules, and none has been compiled or run
    assert len(ENGINE) >= 12 and ENGINE <= registered
    assert not loaded & ENGINE
    # nor has any subcommand's module
    assert {n for n in loaded if n.startswith("dshierarchy.commands.")} == set()


# What each subcommand's hierarchy holds afterwards: whether the canonical
# form was built (None: the subcommand builds no hierarchy).
BUILDS_CANFORM = {"discrete": None, "verify": True, "gauge-fix": True}


@pytest.mark.parametrize("argv, unrun", [
    (["discrete", "--samples", "5", "--eps-order", "1"],
     {"kacmoody", "resolvent", "gauge", "hierarchy", "solution", "ratfunc"}),
    (["derive", "--type", "a1_1"], {"solution", "ratfunc", "discrete", "miura"}),
    (["omega", "--type", "a1_1", "--max-k", "0"], {"solution", "ratfunc", "discrete", "miura"}),
    (["solve", "--type", "a1_1", "--flows", "1:0", "--t-degree", "0", "--eps-order", "0"],
     {"discrete", "miura", "render"}),
    (["resolvent", "--type", "a1_1", "--depth", "2"],
     {"solution", "ratfunc", "discrete", "miura", "render"}),
    (["verify", "--type", "a1_1", "--max-k", "0"], {"solution", "ratfunc", "discrete"}),
    (["gauge-fix", "--type", "a1_1"], {"solution", "ratfunc", "discrete", "miura"}),
])
def test_subcommand_runs_only_its_modules(argv, unrun):
    canform = BUILDS_CANFORM.get(argv[0], False)
    held = [] if canform is None else [canform]
    loaded, registered = _fresh_modules(
        "from dshierarchy import cli; built = []; build = cli._build_hierarchy; "
        "cli._build_hierarchy = lambda cfg: built.append(build(cfg)) or built[-1]; "
        f"assert cli.main({argv!r}) == 0; "
        "held = ['canform' in vars(h) for h in built]; "
        f"assert held == {held!r}, f'canonical form built: {{held}}'")
    unrun = {f"dshierarchy.{m}" for m in unrun}
    assert "dshierarchy.diffalg" in loaded
    assert unrun <= registered and not unrun & loaded
    commands = {n for n in loaded if n.startswith("dshierarchy.commands.")}
    assert commands == {f"dshierarchy.commands.{argv[0].replace('-', '_')}"}


def test_main_leaves_the_collector_unfrozen(capsys):
    # main also runs in-process (here, and in the benchmark's traced run),
    # where collection must go on; only the process entry point freezes
    for _ in range(2):
        assert main(["derive", "--type", "a1_1", "--flows", "1:0"]) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["verify", "--self-test-corrupt"], 1),
    (["derive", "--type", "nosuch"], 2),
])
def test_module_entry_point_keeps_the_exit_code(argv, code):
    done = subprocess.run([sys.executable, "-m", "dshierarchy.cli", *argv],
                          env=_fresh_env(), capture_output=True, text=True)
    assert done.returncode == code, done.stderr


def test_entry_point_freezes_after_main():
    code = ("import gc, sys; from dshierarchy import cli; "
            "sys.argv[1:] = ['derive', '--type', 'a1_1', '--flows', '1:0']; "
            "rc = cli.run(); sys.stderr.write(f'{rc} {gc.get_freeze_count() > 0}')")
    done = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True)
    assert done.stderr == "0 True"


def test_traced_job_prints_what_the_cli_prints(tmp_path):
    # the benchmark's traced run wraps the lazily registered modules from
    # outside, before main imports the command module; its stdout must stay
    # the plain run's, and the command's calls into the engine must be spanned
    for argv, spans in [
        (["discrete", "--samples", "5"],
         {"discrete.embed", "discrete.invert", "serialize.dumps"}),
        (["derive", "--type", "a1_1"],
         {"hierarchy.flow", "resolvent.canonical", "serialize.dumps"}),
    ]:
        plain = subprocess.run([sys.executable, "-m", "dshierarchy.cli", *argv],
                               env=_fresh_env(), capture_output=True, check=True)
        trace = tmp_path / "trace.json"
        traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_job.py"),
                                 str(trace), "1", "--", *argv],
                                env=_fresh_env(), capture_output=True, check=True)
        assert traced.stdout == plain.stdout, argv
        assert json.loads(plain.stdout).get("all_pass", True) is True  # derive has no verdict
        summary = json.loads(trace.read_text())["summary"]
        assert spans <= set(summary), argv


def test_solve_t_zero_echo(capsys):
    code, out, _ = run(capsys, "solve", "--type", "a1_1", "--flows", "1:0",
                       "--t-degree", "0", "--eps-order", "0", "--bgw", "1")
    assert code == 0
    payload = json.loads(out)
    rows = [r for r in payload["coefficients"] if sum(r["t_exponents"]) == 0]
    assert rows[0]["value"]["num"] == ["1"]
    assert payload["all_pass"] is True


def test_solve_gbgw_table(capsys):
    code, out, _ = run(capsys, "solve", "--type", "a1_1", "--flows", "1:0,1:1",
                       "--t-degree", "2", "--eps-order", "2", "--bgw", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert all(r["residual_zero"] for r in payload["cross_derivatives"])
    assert any(sum(r["t_exponents"]) == 2 for r in payload["coefficients"])
    assert payload["two_point"]


def test_config_file_and_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "type": "a1_1", "flows": "1:0,1:1", "format": "json"}))
    code, out_json, _ = run(capsys, "derive", "--config", str(cfgfile))
    assert code == 0 and json.loads(out_json)
    code, out_text, _ = run(capsys, "derive", "--config", str(cfgfile),
                            "--format", "text", "--flows", "1:0")
    assert code == 0
    assert "u_t = -u_x" in out_text and "eps" not in out_text


def test_config_errors(capsys, tmp_path):
    code, _, err = run(capsys, "derive", "--type", "nosuch")
    assert code == 2 and "unsupported" in err
    code, _, err = run(capsys, "derive", "--type", "a1_1", "--flows", "3:0")
    assert code == 2 and "out of range" in err
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"no_such_key": 1}))
    code, _, err = run(capsys, "derive", "--config", str(cfgfile))
    assert code == 2 and "unknown config key" in err
    for max_a in ("5", "0"):
        code, _, err = run(capsys, "omega", "--type", "a1_1", "--max-a", max_a)
        assert code == 2 and "--max-a" in err
    code, _, err = run(capsys, "omega", "--type", "a1_1", "--max-k", "-1")
    assert code == 2 and "--max-k" in err
    for bad in ({"max_k": "1"}, {"max_k": True}, {"flows": [[1]]},
                {"flows": [[1.5, 0]]}, {"bgw": [1, True]}):
        cfgfile.write_text(json.dumps(bad))
        code, _, err = run(capsys, "derive", "--config", str(cfgfile))
        key = next(iter(bad))
        assert code == 2 and f"config key {key!r}" in err
    # a value out of range names the config key and the flag, however it came
    for bad in ({"max_k": -1}, {"max_a": 5}, {"eps_order": -1}, {"depth": -3}):
        cfgfile.write_text(json.dumps({"type": "a1_1", **bad}))
        code, _, err = run(capsys, "omega", "--config", str(cfgfile))
        key = next(iter(bad))
        assert code == 2 and f"{key} (--{key.replace('_', '-')})" in err
    code, out, err = run(capsys, "resolvent", "--type", "a1_1", "--depth", "-1")
    assert code == 2 and not out and "depth (--depth) must be non-negative" in err
    # no embedding sample would run, so the check must not pass vacuously
    for samples in ("0", "-5"):
        code, out, err = run(capsys, "discrete", "--samples", samples, "--eps-order", "1")
        assert code == 2 and not out and "samples (--samples) must be positive" in err
    cfgfile.write_text(json.dumps({"samples": 0}))
    code, _, err = run(capsys, "discrete", "--config", str(cfgfile))
    assert code == 2 and "samples (--samples) must be positive" in err
    # a config file that cannot be read, or holds no JSON object
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run(capsys, "derive", "--config", str(path))
        assert code == 2 and not out
        assert err.startswith(f"error: cannot read config file (--config) {path}: ")
    cfgfile.write_text("[1]")
    code, out, err = run(capsys, "derive", "--config", str(cfgfile))
    assert code == 2 and not out and "must hold a JSON object" in err


def test_json_only_subcommands_reject_text_format(capsys, tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"format": "text"}))
    for name in ("resolvent", "gauge-fix", "discrete"):
        for flags in (["--format", "text"], ["--config", str(cfgfile)]):
            code, out, err = run(capsys, name, "--type", "a1_1", *flags)
            assert code == 2 and not out
            assert f"format (--format) 'text' is not available for {name}" in err


def test_config_file_list_and_string_forms(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    outs = []
    for values in ({"flows": "1:0,1:1", "bgw": "1"},
                   {"flows": [[1, 0], [1, 1]], "bgw": [1]}):
        cfgfile.write_text(json.dumps({"type": "a1_1", "t_degree": 1,
                                       "eps_order": 1, **values}))
        code, out, _ = run(capsys, "solve", "--config", str(cfgfile))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_resolvent_subcommand(capsys):
    code, out, _ = run(capsys, "resolvent", "--type", "a1_1",
                       "--exponent", "1", "--depth", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["exponent"] == 1
    assert all(c["residual_zero"] for c in payload["checks"])
    degrees = [s["degree"] for s in payload["slices"]]
    assert degrees == list(range(1, 1 - 5, -1))
    # depth 0 is the leading slice alone, not the default depth
    code, out, _ = run(capsys, "resolvent", "--type", "a2_2", "--exponent", "2",
                       "--depth", "0")
    payload = json.loads(out)
    assert code == 0 and payload["depth"] == 0
    assert [s["degree"] for s in payload["slices"]] == [5]
    assert all(c["residual_zero"] for c in payload["checks"])


def test_resolvent_reaches_any_depth(capsys):
    # loop elements are finite, so --depth needs nothing sized for it
    code, out, _ = run(capsys, "resolvent", "--type", "a1_1", "--depth", "15")
    payload = json.loads(out)
    assert code == 0 and payload["depth"] == 15
    assert [s["degree"] for s in payload["slices"]] == list(range(1, -15, -1))
    assert [c["residual_zero"] for c in payload["checks"]] == [True, True]


def test_stdout_digests_of_the_quick_commands():
    import stdout_digests
    assert stdout_digests.mismatches(quick_only=True) == []


def test_gauge_fix_subcommand(capsys):
    code, out, _ = run(capsys, "gauge-fix", "--type", "a1_1")
    assert code == 0
    payload = json.loads(out)
    exprs = {e["u"]: e["expr_text"] for e in payload["invariant_coordinates"]}
    assert exprs[1] == "q1 + q2^2 - q2_x"


def test_discrete_subcommand(capsys):
    code, out, _ = run(capsys, "discrete", "--eps-order", "2",
                       "--samples", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    names = {c["check"] for c in payload["checks"]}
    assert "embedding_intertwines_shift" in names
    assert "discrete_miura_round_trip" in names
    # the toy family's tau check needs a shift window of +-9 even where
    # t_degree + eps_order + 6 is smaller
    code, out, _ = run(capsys, "discrete", "--eps-order", "0", "--t-degree", "0",
                       "--samples", "10")
    payload = json.loads(out)
    assert code == 0 and payload["all_pass"] is True
    assert payload["shift_window"] == [-9, 9]


def test_omega_subcommand(capsys):
    code, out, _ = run(capsys, "omega", "--type", "a1_1", "--max-k", "1")
    assert code == 0
    payload = json.loads(out)
    assert all(r["residual_zero"] for r in payload["symmetry"])
    entries = {(tuple(e["i"]), tuple(e["j"])): e["value_text"]
               for e in payload["entries"]}
    assert entries[((1, 0), (1, 0))] == "-1/2*u"


def test_omega_text_mode(capsys):
    code, out, _ = run(capsys, "omega", "--type", "a1_1", "--max-k", "0",
                       "--format", "text")
    assert code == 0
    assert "Omega[(1, 0);(1, 0)] = -1/2*u" in out


def test_verify_text_mode_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--type", "a1_1", "--max-k", "0",
                       "--format", "text")
    assert code == 0
    assert "all_pass: True" in out
    code, out, _ = run(capsys, "verify", "--type", "a1_1", "--max-k", "1",
                       "--format", "text", "--self-test-corrupt")
    assert code == 1
    assert "FAIL" in out


def test_solve_wrong_bgw_count(capsys):
    code, _, err = run(capsys, "solve", "--type", "a2_1", "--flows", "1:0",
                       "--bgw", "1")
    assert code == 2 and "bgw" in err.lower()


def test_solve_without_the_translation_flow_names_it(capsys):
    code, out, err = run(capsys, "solve", "--type", "a1_1", "--flows", "1:1",
                         "--t-degree", "2", "--eps-order", "2")
    assert (code, out) == (2, "")
    assert err == ("error: two-point functions need the flow (1, 0) among the "
                   "solution's flows, got [(1, 1)]\n")


def test_verify_rejects_max_a_below_ell(capsys):
    code, out, err = run(capsys, "verify", "--type", "a2_1", "--max-k", "1",
                         "--max-a", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: max_a (--max-a) 1 is below ell = 2 for A2^(1): "
                          "the tau-coordinate check reads")
    # at the twisted vertex ell = 1, so one family is enough
    code, out, _ = run(capsys, "verify", "--type", "a2_2", "--max-a", "1")
    assert code == 0 and json.loads(out)["all_pass"] is True


def test_twisted_verify_reports_skips(capsys):
    # nothing is skipped at the twisted vertex; tau-coordinates are checked
    code, out, _ = run(capsys, "verify", "--type", "a2_2", "--max-k", "0",
                       "--flows", "1:0")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert not any("skipped" in c for c in payload["checks"])
    tau = [c for c in payload["checks"] if c["check"] == "tau_coordinates"]
    assert len(tau) == 1 and tau[0]["miura_type"]
    assert tau[0]["reconstruction_matches"] == {"[1, 0]": True}


def test_verify_checks_every_label_without_flows(capsys):
    code, out, _ = run(capsys, "verify", "--type", "a1_1", "--max-k", "2")
    assert code == 0
    checks = json.loads(out)["checks"]
    triples = [c["triple"] for c in checks if c["check"] == "tau_symmetry"]
    assert len(triples) == 27
    assert triples[0] == [[1, 0], [1, 0], [1, 0]]
    assert triples[-1] == [[1, 2], [1, 2], [1, 2]]


def test_verify_a2_1_golden(capsys):
    # the benchmark's verify job; the file holds its exact stdout
    code, out, _ = run(capsys, "verify", "--type", "a2_1", "--max-k", "1",
                       "--max-a", "2", "--flows", "1:0,1:1,2:0,2:1",
                       "--eps-order", "4", "--jet-depth", "8")
    assert code == 0
    golden = Path(__file__).parent / "data" / "verify-a2_1.json"
    assert out.encode() == golden.read_bytes()


# The other benchmark jobs; each file holds the job's exact stdout.
BENCH_GOLDENS = {
    "derive-a2_1": ("derive", "--type", "a2_1", "--flows", "1:0,2:0,1:1,2:1",
                    "--max-k", "1", "--eps-order", "4"),
    "omega-a2_2": ("omega", "--type", "a2_2", "--max-k", "1", "--max-a", "2",
                   "--flows", "1:0,1:1"),
    "solve-a1_1": ("solve", "--type", "a1_1", "--flows", "1:0,1:1,1:2",
                   "--t-degree", "2", "--eps-order", "2", "--max-k", "1",
                   "--bgw", "1"),
    "discrete-seed1": ("discrete", "--eps-order", "4", "--t-degree", "2",
                       "--samples", "100", "--seed", "1"),
}


@pytest.mark.parametrize("name", sorted(BENCH_GOLDENS))
def test_bench_job_golden(capsys, name):
    code, out, _ = run(capsys, *BENCH_GOLDENS[name])
    assert code == 0
    golden = Path(__file__).parent / "data" / f"{name}.json"
    assert out.encode() == golden.read_bytes()


def test_omega_a2_2_max_k_2_digest(capsys):
    # the resolvents at depth 38, deeper than any benchmark job goes; the
    # digest was recorded when every power R_1^k was still formed by
    # convolution (commit 3036954)
    code, out, _ = run(capsys, "omega", "--type", "a2_2", "--max-k", "2")
    assert code == 0
    data = out.encode()
    assert len(data) == 1_124_213
    assert hashlib.sha1(data).hexdigest() == "4b39746c60d612a5d3a3af52f54ea4be9eff5a82"


def test_traced_run_spans_resolve(monkeypatch):
    # the benchmark's traced run wraps each SPANS entry, looked up exactly as
    # its install() does; a renamed or deleted entry point must fail here
    import importlib.util
    import sys
    path = Path(__file__).parents[1] / "perfbench" / "traced_job.py"
    spec = importlib.util.spec_from_file_location("traced_job", path)
    traced_job = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(traced_job)
    assert traced_job.SPANS
    for mod_name, attr_path, _ in traced_job.SPANS:
        owner = sys.modules[f"dshierarchy.{mod_name}"]
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{mod_name}.{attr_path}"
