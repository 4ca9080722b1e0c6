"""Tests for the command-line interface."""
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from trifocal import cli, geometry, pipeline, seeds, slices, witness


def data_path(name):
    return resources.files("trifocal.data").joinpath(name)


def make_fake_witness(path, n_points=7, certified=True, locus="cal"):
    """A structurally valid witness file whose points are junk."""
    rng = seeds.child_rng(99, "cli-test", locus)

    def unit(n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return v / np.linalg.norm(v)

    alpha, beta, chart = unit(4), unit(4), unit(27)
    var = witness.trifocal_variety(locus, alpha, beta, chart)
    slc = witness.random_slice(var, rng)
    pts = rng.normal(size=(n_points, 13)) + 1j * rng.normal(size=(n_points, 13))
    pws = witness.PseudoWitnessSet(
        variety=var,
        patches={"alpha": alpha, "beta": beta},
        slc=slc,
        points=pts,
        certified=certified,
        meta={"locus": locus, "build_seed": 0, "degree": n_points, "loops": 1},
    )
    doc = witness.witness_to_dict(pws)
    doc["meta"]["content_hash"] = cli.witness_content_hash(doc)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def make_solution_file(path, corrupt=False):
    """Solution document built from a known-good synthetic configuration."""
    config = geometry.random_configuration(seeds.child_rng(5, "cli-sol"), real=True)
    w = slices.ProblemWeights(1, 4, 0, 0, 0)
    instance = slices.synthetic_consistent_instance(config, w, seed=13)
    params = config.params.copy()
    if corrupt:
        params[4] += 0.3
    doc = {
        "instance": slices.instance_to_dict(w, 13, instance),
        "solutions": [
            {
                "params": [[float(z.real), float(z.imag)] for z in params],
                "is_real": True,
            }
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_unbalanced_problem_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--witness", str(tmp_path / "w.json"), "--problem", "0,1,2,0,7"])
    assert exc.value.code == 2


def test_weight_ordering_is_usage_error(tmp_path):
    # point-point-line counts may not be smaller than point-line-point counts
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--witness", str(tmp_path / "w.json"), "--problem", "0,1,2,0,5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--rows", "-1"],
        ["table", "--max-attempts", "0"],
        ["solve", "--problem", "1,4,0,0,0", "--max-attempts", "0"],
        ["witness", "--budget", "0"],
    ],
)
def test_out_of_range_count_is_usage_error(tmp_path, capsys, argv):
    argv = argv + ["--out", str(tmp_path / "out.json")]
    if argv[0] != "witness":
        argv += ["--witness", str(tmp_path / "w.json")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_missing_witness_file_fails(tmp_path):
    rc = cli.main(["solve", "--witness", str(tmp_path / "none.json"), "--problem", "1,4,0,0,0"])
    assert rc == 1


def test_table_errors_before_tracking_on_missing_witness(tmp_path):
    rc = cli.main(["table", "--witness", str(tmp_path / "none.json")])
    assert rc == 1


def test_config_from_args_serializes_every_field():
    args = cli.build_parser().parse_args(["witness", "--locus", "01", "--seed", "3"])
    cfg = cli.config_from_args(args)
    d = cfg.to_dict()
    assert d["command"] == "witness"
    assert d["locus"] == "01"
    assert d["seed"] == 3
    assert set(d) == set(cli.RunConfig.__dataclass_fields__)


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "trifocal.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "trace-test" in proc.stdout


# ---------------------------------------------------------------------------
# witness caching
# ---------------------------------------------------------------------------

def test_cached_witness_is_reused(tmp_path, capsys):
    out = tmp_path / "w.json"
    make_fake_witness(out, n_points=7)
    rc = cli.main(["witness", "--locus", "cal", "--out", str(out), "--log", "quiet"])
    assert rc == 0
    assert capsys.readouterr().out == "7\n"


def test_tampered_witness_is_not_reused(tmp_path):
    out = tmp_path / "w.json"
    doc = make_fake_witness(out, n_points=7)
    doc["slice_constants"][0][0] += 1.0
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    cfg = cli.RunConfig(command="witness", log="quiet")
    assert cli._reusable_witness(out, cfg, None) is None


def test_uncertified_witness_is_not_reused(tmp_path):
    out = tmp_path / "w.json"
    make_fake_witness(out, certified=False)
    cfg = cli.RunConfig(command="witness", log="quiet")
    assert cli._reusable_witness(out, cfg, None) is None


def test_locus_mismatch_is_not_reused(tmp_path):
    out = tmp_path / "w.json"
    make_fake_witness(out, locus="01")
    cfg = cli.RunConfig(command="witness", locus="cal", log="quiet")
    assert cli._reusable_witness(out, cfg, None) is None


@pytest.mark.parametrize("degree", [None, "seven", 7.5])
def test_malformed_degree_is_rebuilt(tmp_path, degree):
    out = tmp_path / "w.json"
    doc = make_fake_witness(out)
    if degree is None:
        del doc["meta"]["degree"]
    else:
        doc["meta"]["degree"] = degree
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    said = []
    cfg = cli.RunConfig(command="witness")
    assert cli._reusable_witness(out, cfg, said.append) is None
    assert said == [f"{out} is unreadable; rebuilding"]


def test_uncertified_witness_rejected_by_solve(tmp_path):
    out = tmp_path / "w.json"
    make_fake_witness(out, certified=False)
    rc = cli.main(
        ["solve", "--witness", str(out), "--problem", "1,4,0,0,0", "--log", "quiet"]
    )
    assert rc == 1


# ---------------------------------------------------------------------------
# trace-test command
# ---------------------------------------------------------------------------

def test_trace_test_update_marks_certified(tmp_path, monkeypatch):
    out = tmp_path / "w.json"
    make_fake_witness(out, certified=False)

    def fake_trace(pws, **kwargs):
        return witness.TraceResult(True, 3e-12, False)

    monkeypatch.setattr(witness, "trace_test", fake_trace)
    rc = cli.main(["trace-test", "--witness", str(out), "--update", "--log", "quiet"])
    assert rc == 0
    assert json.loads(out.read_text())["certified"] is True


def test_trace_test_failure_is_nonzero(tmp_path, monkeypatch):
    out = tmp_path / "w.json"
    make_fake_witness(out, certified=True)
    monkeypatch.setattr(
        witness, "trace_test", lambda pws, **kw: witness.TraceResult(False, 0.5, False)
    )
    before = out.read_text()
    rc = cli.main(["trace-test", "--witness", str(out), "--log", "quiet"])
    assert rc == 1
    assert out.read_text() == before


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_published_fixture(capsys):
    rc = cli.main(
        [
            "verify",
            "--solution", str(data_path("reference_solution.json")),
            "--instance", str(data_path("reference_instance.json")),
            "--tol-verify", "5e-2",
            "--log", "quiet",
        ]
    )
    assert rc == 0
    assert "passed=1/1" in capsys.readouterr().out


def test_verify_self_produced_solution(tmp_path):
    sol = tmp_path / "sol.json"
    make_solution_file(sol)
    rc = cli.main(["verify", "--solution", str(sol), "--log", "quiet"])
    assert rc == 0


def test_verify_corrupted_params_fails_with_named_check(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    make_solution_file(sol, corrupt=True)
    rc = cli.main(["verify", "--solution", str(sol)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "record 0 failed" in err
    assert "multiview" in err


def test_verify_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"solutions": [,]}')
    rc = cli.main(["verify", "--solution", str(bad)])
    assert rc == 1
    assert f"{bad}:1:" in capsys.readouterr().err


def test_verify_unusable_camera_chart_is_malformed(tmp_path, capsys):
    doc = json.loads(data_path("reference_solution.json").read_text())
    doc["camera_matrices"]["B"][2][3] = 0
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(doc))
    rc = cli.main(
        [
            "verify",
            "--solution", str(sol),
            "--instance", str(data_path("reference_instance.json")),
            "--log", "quiet",
        ]
    )
    assert rc == 1
    assert f"error: {sol}: malformed (" in capsys.readouterr().err


def test_verify_without_instance_fails(tmp_path):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"solutions": []}))
    rc = cli.main(["verify", "--solution", str(sol)])
    assert rc == 1


# ---------------------------------------------------------------------------
# output determinism
# ---------------------------------------------------------------------------

def test_witness_file_roundtrips_byte_identical(tmp_path):
    out = tmp_path / "w.json"
    make_fake_witness(out)
    pws = witness.load_witness(out)
    doc = witness.witness_to_dict(pws)
    doc["meta"]["content_hash"] = cli.witness_content_hash(doc)
    assert json.dumps(doc, indent=1, sort_keys=True) + "\n" == out.read_text()


# ---------------------------------------------------------------------------
# every accepted option is read; input files fail with one named error
# ---------------------------------------------------------------------------

READ_OPTIONS = {
    "witness": {"--log", "--seed", "--width", "--out", "--tol-trace", "--locus", "--budget", "--force"},
    "solve": {"--log", "--seed", "--width", "--out", "--witness", "--problem", "--instance",
              "--max-attempts"},
    "table": {"--log", "--seed", "--width", "--out", "--witness", "--rows", "--max-attempts"},
    "verify": {"--log", "--tol-verify", "--tol-epipole", "--solution", "--instance"},
    "trace-test": {"--log", "--seed", "--width", "--tol-trace", "--witness", "--update"},
}


def test_each_subcommand_accepts_exactly_the_options_it_reads():
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, cli.argparse._SubParsersAction)
    )
    accepted = {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert accepted == READ_OPTIONS
    assert sum(map(len, accepted.values())) == 34


def _usage_probe(cmd, tmp_path):
    required = {
        "witness": ["--budget", "1"],
        "solve": ["--witness", str(tmp_path / "w.json"), "--problem", "1,4,0,0,0"],
        "table": ["--witness", str(tmp_path / "w.json")],
        "verify": ["--solution", str(tmp_path / "sol.json")],
        "trace-test": ["--witness", str(tmp_path / "w.json")],
    }
    return [cmd] + required[cmd]


@pytest.mark.parametrize(
    "cmd, extra",
    [
        ("verify", ["--width", "2"]),
        ("verify", ["--seed", "1"]),
        ("verify", ["--out", "x.json"]),
        ("solve", ["--tol-epipole", "1e-3"]),
        ("table", ["--tol-trace", "1e-5"]),
        ("trace-test", ["--out", "x.json"]),
        ("witness", ["--tol-verify", "1"]),
    ]
    + [(cmd, ["--log", "debug"]) for cmd in READ_OPTIONS],
)
def test_unread_option_is_usage_error(tmp_path, capsys, monkeypatch, cmd, extra):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(_usage_probe(cmd, tmp_path) + extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert extra[0] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "cmd, option",
    [("verify", "--tol-verify"), ("verify", "--tol-epipole"), ("trace-test", "--tol-trace")],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, monkeypatch, cmd, option, value):
    """A NaN, infinite or non-positive tolerance would decide every record
    (or certify any witness set) instead of testing it."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(_usage_probe(cmd, tmp_path) + [f"{option}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {option}: must be a finite number > 0, got {value}" in err
    assert list(tmp_path.iterdir()) == []


def test_tolerances_parse_to_floats():
    args = cli.build_parser().parse_args(
        ["verify", "--solution", "s.json", "--tol-verify", "5e-2", "--tol-epipole", "1e-3"]
    )
    cfg = cli.config_from_args(args)
    assert (cfg.tol_verify, cfg.tol_epipole) == (5e-2, 1e-3)
    args = cli.build_parser().parse_args(["trace-test", "--witness", "w.json", "--tol-trace", "1e-9"])
    assert cli.config_from_args(args).tol_trace == 1e-9


def _malformed_instance(tmp_path):
    doc = json.loads(data_path("reference_instance.json").read_text())
    del doc["correspondences"]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("cmd", ["solve", "verify"])
@pytest.mark.parametrize("broken", ["missing", "malformed"])
def test_bad_instance_file_is_one_named_error(tmp_path, capsys, cmd, broken):
    inst = tmp_path / "none.json" if broken == "missing" else _malformed_instance(tmp_path)
    if cmd == "solve":
        argv = ["solve", "--witness", str(data_path("witness_cal.json.gz")),
                "--out", str(tmp_path / "sol.json")]
    else:
        argv = ["verify", "--solution", str(data_path("reference_solution.json"))]
    rc = cli.main(argv + ["--instance", str(inst), "--log", "quiet"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {inst}:")
    assert not (tmp_path / "sol.json").exists()


def _instance_with_vector(tmp_path, pairs):
    """The reference instance with its first correspondence's second vector
    replaced by ``pairs`` ([re, im] per coordinate)."""
    doc = json.loads(data_path("reference_instance.json").read_text())
    doc["correspondences"][0]["vectors"][1] = pairs
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("cmd", ["solve", "verify"])
@pytest.mark.parametrize(
    "pairs",
    [[[float("nan"), 0.0], [1.0, 0.0], [0.5, 0.0]],
     [[1.0, 0.0], [float("inf"), 0.0], [0.5, 0.0]],
     [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
    ids=["nan", "inf", "zero"],
)
def test_non_finite_or_zero_instance_vector_is_malformed(tmp_path, capsys, cmd, pairs):
    inst = _instance_with_vector(tmp_path, pairs)
    if cmd == "solve":
        witness_file = tmp_path / "w.json"
        make_fake_witness(witness_file)
        argv = ["solve", "--witness", str(witness_file), "--out", str(tmp_path / "sol.json")]
    else:
        argv = ["verify", "--solution", str(data_path("reference_solution.json"))]
    rc = cli.main(argv + ["--instance", str(inst), "--log", "quiet"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {inst}: malformed (")
    assert "non-finite or zero" in lines[0]
    assert not (tmp_path / "sol.json").exists()


# ---------------------------------------------------------------------------
# a stored instance goes through the same attempts as a random one
# ---------------------------------------------------------------------------

def _solve_stored(tmp_path, monkeypatch, outcome, extra=()):
    """``solve --instance`` on the reference instance with
    ``pipeline.solve_instance`` replaced by ``outcome(attempt)``, which
    raises or returns a record count: the exit status, and the (seed,
    instance) of each attempt."""
    witness_file = tmp_path / "w.json"
    make_fake_witness(witness_file)
    calls = []

    def fake_solve(pws, instance, seed=0, cfg=None):
        calls.append((seed, instance))
        count = outcome(len(calls))
        report = pipeline.FilterReport(
            total_paths=count, stage_counts=(count,) * 7, verdicts=()
        )
        return [None] * count, report

    monkeypatch.setattr(pipeline, "solve_instance", fake_solve)
    argv = ["solve", "--witness", str(witness_file), "--seed", "4",
            "--instance", str(data_path("reference_instance.json")),
            "--out", str(tmp_path / "sol.json"), "--log", "quiet", *extra]
    rc = cli.main(argv)
    return rc, calls


def _flaky(attempt):
    if attempt == 1:
        raise pipeline.ReliabilityError("flaky tracking")
    return 0


def test_stored_instance_retries_a_reliability_failure(tmp_path, monkeypatch):
    rc, calls = _solve_stored(tmp_path, monkeypatch, _flaky)
    assert rc == 0
    assert [seed for seed, _ in calls] == [4, 1004]
    _, _, stored = slices.load_instance(data_path("reference_instance.json"))
    for _, instance in calls:
        assert [c.kind for c in instance] == [c.kind for c in stored]
        for c, d in zip(instance, stored):
            assert all(np.array_equal(u, v) for u, v in zip(c.vectors, d.vectors))
    doc = json.loads((tmp_path / "sol.json").read_text())
    assert (doc["attempts"], doc["seed"], doc["degree"]) == (2, 4, 0)


def test_max_attempts_bounds_stored_instance_retries(tmp_path, monkeypatch, capsys):
    def always_fails(attempt):
        raise pipeline.ReliabilityError("flaky tracking")

    rc, calls = _solve_stored(tmp_path, monkeypatch, always_fails, ["--max-attempts", "2"])
    assert rc == 1
    assert [seed for seed, _ in calls] == [4, 1004]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "in 2 attempts" in lines[0] and "flaky tracking" in lines[0]
    assert not (tmp_path / "sol.json").exists()


def test_stored_instance_count_not_divisible_by_eight_is_an_error(tmp_path, monkeypatch, capsys):
    rc, calls = _solve_stored(tmp_path, monkeypatch, lambda attempt: 7)
    assert rc == 1
    assert len(calls) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "not divisible by 8" in lines[0]
    assert not (tmp_path / "sol.json").exists()


def test_degenerate_stored_instance_is_one_error(tmp_path, capsys):
    doc = json.loads(data_path("reference_instance.json").read_text())
    doc["correspondences"][2] = doc["correspondences"][1]
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(doc))
    witness_file = tmp_path / "w.json"
    make_fake_witness(witness_file)
    rc = cli.main(["solve", "--witness", str(witness_file), "--instance", str(inst),
                   "--out", str(tmp_path / "sol.json"), "--log", "quiet"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: stored instance of (1, 4, 0, 0, 0) is degenerate: "
        "assembled slice has codimension 10, expected 12"
    ]
    assert not (tmp_path / "sol.json").exists()


def test_verify_stacks_the_instance_once(tmp_path, monkeypatch, capsys):
    sol = tmp_path / "sol.json"
    make_solution_file(sol)
    doc = json.loads(sol.read_text())
    doc["solutions"] *= 4
    sol.write_text(json.dumps(doc))
    built = []
    of = geometry.CorrespondenceStack.of
    monkeypatch.setattr(
        geometry.CorrespondenceStack, "of",
        lambda corrs: built.append(corrs) or of(corrs),
    )
    assert cli.main(["verify", "--solution", str(sol), "--log", "quiet"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "passed=4/4"
    assert sum(isinstance(c, list) for c in built) == 1


@pytest.mark.parametrize("doc", [{}, {"solutions": []}])
def test_unusable_solution_file_is_one_named_error(tmp_path, capsys, doc):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(doc))
    rc = cli.main(["verify", "--solution", str(sol), "--log", "quiet"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {sol}:")


# ---------------------------------------------------------------------------
# an unwritable --out is one error line
# ---------------------------------------------------------------------------

def _no_work(*args, **kwargs):
    pytest.fail("work began before --out was checked")


@pytest.mark.parametrize("cmd", ["witness", "solve", "table"])
def test_out_in_a_missing_directory_is_refused_before_any_work(tmp_path, capsys, monkeypatch, cmd):
    monkeypatch.setattr(witness, "build_witness", _no_work)
    monkeypatch.setattr(pipeline, "solve_problem", _no_work)
    witness_file = tmp_path / "w.json"
    make_fake_witness(witness_file)
    extra = {
        "witness": ["--budget", "1"],
        "solve": ["--witness", str(witness_file), "--problem", "1,4,0,0,0"],
        "table": ["--witness", str(witness_file), "--rows", "1"],
    }[cmd]
    out = tmp_path / "missing" / "out.json"
    rc = cli.main([cmd, *extra, "--out", str(out), "--log", "quiet"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out}: {out.parent} is not a directory"
    ]


def test_write_failure_is_one_named_error(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    witness_file = tmp_path / "w.json"
    make_fake_witness(witness_file)
    rc = cli.main(["table", "--witness", str(witness_file), "--rows", "0",
                   "--out", str(tmp_path), "--log", "quiet"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path}: Is a directory"]


def test_witness_out_naming_a_directory_builds_nothing(tmp_path, capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(witness, "build_witness", lambda *a, **k: builds.append(a))
    rc = cli.main(["witness", "--budget", "1", "--out", str(tmp_path), "--log", "quiet"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path}: Is a directory"]
    assert builds == []


def test_witness_default_file_naming_a_directory_builds_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "witness_cal.json").mkdir()
    builds = []
    monkeypatch.setattr(witness, "build_witness", lambda *a, **k: builds.append(a))
    rc = cli.main(["witness", "--budget", "1", "--log", "quiet"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: witness_cal.json: Is a directory"]
    assert builds == []


def test_solve_default_file_naming_a_directory_solves_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    make_fake_witness(tmp_path / "w.json")
    (tmp_path / "solution_14000_seed0.json").mkdir()
    solves = []
    monkeypatch.setattr(pipeline, "solve_problem", lambda *a, **k: solves.append(a))
    rc = cli.main(["solve", "--witness", "w.json", "--problem", "1,4,0,0,0", "--log", "quiet"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: solution_14000_seed0.json: Is a directory"
    ]
    assert solves == []


# ---------------------------------------------------------------------------
# wrong-shaped arrays and flags in input files
# ---------------------------------------------------------------------------

def _counted_solves(monkeypatch):
    solves = []
    monkeypatch.setattr(pipeline, "solve_problem", lambda *a, **k: solves.append(a))
    return solves


@pytest.mark.parametrize("cmd", ["solve", "verify"])
def test_instance_vectors_of_two_coordinates_are_malformed(tmp_path, capsys, monkeypatch, cmd):
    doc = json.loads(data_path("reference_instance.json").read_text())
    for corr in doc["correspondences"]:
        corr["vectors"] = [v[:2] for v in corr["vectors"]]
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(doc))
    solves = _counted_solves(monkeypatch)
    if cmd == "solve":
        witness_file = tmp_path / "w.json"
        make_fake_witness(witness_file)
        argv = ["solve", "--witness", str(witness_file), "--out", str(tmp_path / "sol.json")]
    else:
        argv = ["verify", "--solution", str(data_path("reference_solution.json"))]
    rc = cli.main(argv + ["--instance", str(inst), "--log", "quiet"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {inst}: malformed (")
    assert solves == []


def _malformed_witness(path, fault):
    """A fake witness file whose points have 12 coordinates, or whose
    ``certified`` is the string "false"."""
    doc = make_fake_witness(path, n_points=13)
    if fault == "points":
        doc["points"] = [p[:12] for p in doc["points"]]
    else:
        doc["certified"] = "false"
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("cmd", ["solve", "trace-test"])
@pytest.mark.parametrize("fault", ["points", "certified"])
def test_malformed_witness_file_is_one_named_error(tmp_path, capsys, monkeypatch, cmd, fault):
    wfile = tmp_path / "w.json"
    _malformed_witness(wfile, fault)
    solves = _counted_solves(monkeypatch)
    traces = []
    monkeypatch.setattr(witness, "trace_test", lambda *a, **k: traces.append(a))
    extra = {"solve": ["--problem", "1,4,0,0,0", "--out", str(tmp_path / "sol.json")],
             "trace-test": []}[cmd]
    rc = cli.main([cmd, "--witness", str(wfile), *extra, "--log", "quiet"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {wfile}: malformed (")
    assert solves == [] and traces == []


def test_certified_string_is_not_reused(tmp_path):
    out = tmp_path / "w.json"
    _malformed_witness(out, "certified")
    said = []
    cfg = cli.RunConfig(command="witness")
    assert cli._reusable_witness(out, cfg, said.append) is None
    assert said == [f"{out} is unreadable; rebuilding"]


# ---------------------------------------------------------------------------
# the witness build and the table, end to end
# ---------------------------------------------------------------------------

def test_witness_command_writes_an_uncertified_build(tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = cli.main(["witness", "--seed", "1", "--budget", "2", "--out", str(out), "--log", "quiet"])
    assert rc == 1
    doc = json.loads(out.read_text())
    meta = doc["meta"]
    assert meta["content_hash"] == cli.witness_content_hash(doc)
    assert meta["run_config"] == cli.RunConfig(
        command="witness", seed=1, budget=2, out_path=str(out), log="quiet"
    ).to_dict()
    assert capsys.readouterr().out == f"{meta['degree']}\n"


def _table_row(w, *cols):
    return "\t".join(map(str, (*w.as_tuple(), *cols)))


def test_table_lists_each_row_and_fails_on_an_error(tmp_path, capsys, monkeypatch):
    first, second = slices.enumerate_problems()[:2]
    expected = slices.expected_degrees()[first.as_tuple()]

    def fake_solve(pws, w, seed, cfg=None, max_attempts=3):
        if w != first:
            raise pipeline.PipelineError("no reliable run")
        report = pipeline.FilterReport(
            total_paths=expected, stage_counts=(expected,) * 7, verdicts=()
        )
        return pipeline.ProblemRun(w, expected, [], report, [], seed, 1)

    monkeypatch.setattr(pipeline, "solve_problem", fake_solve)
    witness_file = tmp_path / "w.json"
    make_fake_witness(witness_file)
    out = tmp_path / "table.tsv"
    rc = cli.main(["table", "--witness", str(witness_file), "--rows", "2", "--out", str(out),
                   "--log", "quiet"])
    assert rc == 1
    table = [
        "w1\tw2\tw3\tw4\tw5\tdegree\texpected\tmatch",
        _table_row(first, expected, expected, "yes"),
        _table_row(second, "error", slices.expected_degrees()[second.as_tuple()], "no"),
    ]
    assert capsys.readouterr().out.splitlines() == table
    text = out.read_text()
    assert text.startswith("# run_config: ")
    assert text.splitlines()[1:] == table


# ---------------------------------------------------------------------------
# one code path per input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fault", ["coordinates", "points"])
def test_cached_witness_with_malformed_points_is_rebuilt(tmp_path, fault):
    """Points cut to 12 coordinates are not an (n, 13) array; 3 of 13 points
    no longer match ``meta.degree``: either way the file is not reused."""
    out = tmp_path / "w.json"
    doc = make_fake_witness(out, n_points=13)
    if fault == "coordinates":
        doc["points"] = [p[:12] for p in doc["points"]]
    else:
        doc["points"] = doc["points"][:3]
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    said = []
    cfg = cli.RunConfig(command="witness")
    assert cli._reusable_witness(out, cfg, said.append) is None
    assert said == [f"{out} is unreadable; rebuilding"]


@pytest.mark.parametrize("sources", ["neither", "both"])
def test_solve_takes_exactly_one_problem_source(tmp_path, capsys, monkeypatch, sources):
    solves = _counted_solves(monkeypatch)
    witness_file = tmp_path / "w.json"
    make_fake_witness(witness_file)
    given = {
        "neither": [],
        "both": ["--problem", "1,4,0,0,0", "--instance", str(data_path("reference_instance.json"))],
    }[sources]
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--witness", str(witness_file), *given,
                  "--out", str(tmp_path / "sol.json"), "--log", "quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--problem" in err and "--instance" in err
    assert solves == []
    assert not (tmp_path / "sol.json").exists()


def test_solution_entry_without_params_is_malformed(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    make_solution_file(sol)
    doc = json.loads(sol.read_text())
    del doc["solutions"][0]["params"]
    doc["solutions"][0]["camera_matrices"] = json.loads(
        data_path("reference_solution.json").read_text()
    )["camera_matrices"]
    sol.write_text(json.dumps(doc))
    rc = cli.main(["verify", "--solution", str(sol), "--log", "quiet"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {sol}: malformed (")
    assert "params" in lines[0]


def test_trace_test_reports_an_inconclusive_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "w.json"
    make_fake_witness(out)
    monkeypatch.setattr(
        witness, "trace_test",
        lambda pws, **kw: witness.TraceResult(False, float("inf"), True, "1 path(s) failed"),
    )
    rc = cli.main(["trace-test", "--witness", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "deviation=inf passed=False\n"
    assert captured.err == "[trifocal] inconclusive: 1 path(s) failed\n"


def test_witness_reuses_a_cache_built_with_another_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(witness, "build_witness", _no_work)
    out = tmp_path / "w.json"
    make_fake_witness(out, n_points=7)  # built with seed 0
    rc = cli.main(["witness", "--seed", "5", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "7\n"
    assert captured.err == f"[trifocal] reusing {out} built with seed 0\n"


def test_witness_command_saves_a_certified_build(tmp_path, capsys, monkeypatch):
    built = tmp_path / "built.json"
    make_fake_witness(built, n_points=5)
    monkeypatch.setattr(witness, "build_witness", lambda *a, **k: witness.load_witness(built))
    out = tmp_path / "w.json"
    rc = cli.main(["witness", "--seed", "3", "--budget", "1", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "5\n"
    assert captured.err.splitlines() == [
        "[trifocal] building cal witness set (seed=3, budget=1)",
        f"[trifocal] certified witness set saved to {out}",
    ]
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert doc["meta"]["content_hash"] == cli.witness_content_hash(doc)
