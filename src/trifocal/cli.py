"""Command-line surface: build witness sets, solve problems, verify solutions.

Subcommands
-----------
witness     build, certify, and persist a pseudo-witness set (prints its degree)
solve       solve one minimal problem via parameter homotopy from a witness file
table       run every minimal problem and tabulate computed vs expected counts
verify      re-check a solution file against an instance's correspondences
trace-test  re-run the completeness certificate on a stored witness file

Every output file embeds the fully resolved run configuration in its meta
block, and identical configurations reproduce identical files.  Exit status
is 0 exactly when everything requested certified or passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import geometry, jsonio, pipeline, seeds, slices, tracker, witness

DEFAULT_BUDGET = 200
LOG_LEVELS = ("quiet", "info")


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for one CLI invocation (defaults for the options its
    subcommand does not accept); serialized into output meta."""

    command: str
    seed: int = 0
    locus: str = "cal"
    problem: tuple[int, ...] | None = None
    witness_path: str | None = None
    instance_path: str | None = None
    solution_path: str | None = None
    out_path: str | None = None
    rows: int | None = None
    budget: int = DEFAULT_BUDGET
    width: int = 0
    max_attempts: int = 3
    log: str = "info"
    force: bool = False
    update: bool = False
    tol_trace: float = witness.TRACE_TOL
    tol_verify: float | None = None
    tol_epipole: float = geometry.EPIPOLE_TOL

    def to_dict(self) -> dict:
        d = asdict(self)
        d["problem"] = list(self.problem) if self.problem else None
        return d

    def tracker_config(self) -> tracker.TrackerConfig:
        return tracker.TrackerConfig(width=self.width)


def _quiet(msg: str) -> None:
    """The logger at ``--log quiet``."""


def _logger(cfg: RunConfig):
    """The run's logger, a callable at every level."""
    if cfg.log == "quiet":
        return _quiet

    def log(msg: str) -> None:
        print(f"[trifocal] {msg}", file=sys.stderr, flush=True)

    return log


def _load_json(path, build=None):
    """A witness, instance or solution file's document, or the object that
    ``build`` makes of it; every failure is a CliError naming ``path``."""
    try:
        doc = jsonio.parse_json(Path(path).read_bytes())
        return build(doc) if build else doc
    except OSError as err:
        raise CliError(f"{path}: {err.strerror or err}")
    except json.JSONDecodeError as err:
        raise CliError(f"{path}:{err.lineno}:{err.colno}: {err.msg}")
    except (KeyError, ValueError, TypeError, pipeline.PipelineError) as err:
        raise CliError(f"{path}: malformed ({err!r})")


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# witness files and caching
# ---------------------------------------------------------------------------

def witness_content_hash(doc: dict) -> str:
    """Hash of the slice-defining content (patches + slice), key-order free."""
    core = {k: doc[k] for k in ("patches", "slice_rows", "slice_constants")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _reusable_witness(path: Path, cfg: RunConfig, log) -> int | None:
    """Return the cached degree when ``path`` already holds a valid build."""
    log = log or _quiet
    try:
        meta, certified, digest = _load_json(path, _cache_fields)
    except CliError:
        log(f"{path} is unreadable; rebuilding")
        return None
    if meta.get("locus") != cfg.locus or not certified:
        return None
    if meta.get("content_hash") != digest:
        log(f"{path} failed its content-hash check; rebuilding")
        return None
    if meta.get("build_seed") != cfg.seed:
        log(f"reusing {path} built with seed {meta.get('build_seed')}")
    return meta["degree"]


def _cache_fields(doc: dict) -> tuple[dict, bool, str]:
    """A witness document's meta, certified flag and content hash; KeyError,
    TypeError or ValueError when one of them or ``meta.degree`` is
    malformed."""
    meta = doc["meta"]
    if type(meta["degree"]) is not int:
        raise ValueError(f"meta.degree is {meta['degree']!r}, not an integer")
    return meta, bool(doc["certified"]), witness_content_hash(doc)


def _write_witness(path, pws: witness.PseudoWitnessSet, cfg: RunConfig) -> None:
    """Stamp the content hash and the run configuration, then write."""
    doc = witness.witness_to_dict(pws)
    doc["meta"]["content_hash"] = witness_content_hash(doc)
    doc["meta"]["run_config"] = cfg.to_dict()
    jsonio.dump_json(path, doc)


def cmd_witness(cfg: RunConfig) -> int:
    log = _logger(cfg)
    out = Path(cfg.out_path or f"witness_{cfg.locus}.json")
    if out.exists() and not cfg.force:
        degree = _reusable_witness(out, cfg, log)
        if degree is not None:
            print(degree)
            return 0
    log(f"building {cfg.locus} witness set (seed={cfg.seed}, budget={cfg.budget})")
    pws = witness.build_witness(
        cfg.locus,
        seed=cfg.seed,
        budget=cfg.budget,
        cfg=cfg.tracker_config(),
        trace_tol=cfg.tol_trace,
        log=log,
    )
    _write_witness(out, pws, cfg)
    print(pws.meta["degree"])
    if not pws.certified:
        log(f"trace test did not certify; uncertified set saved to {out}")
        return 1
    log(f"certified witness set saved to {out}")
    return 0


def cmd_trace_test(cfg: RunConfig) -> int:
    log = _logger(cfg)
    pws = _load_json(cfg.witness_path, witness.witness_from_dict)
    rng = seeds.child_rng(cfg.seed, "cli", "trace")
    result = witness.trace_test(pws, cfg=cfg.tracker_config(), tol=cfg.tol_trace, rng=rng)
    print(f"deviation={result.deviation:.3e} passed={result.passed}")
    if result.inconclusive:
        log(f"inconclusive: {result.detail}")
    if result.passed and not pws.certified and cfg.update:
        pws.certified = True
        # what `trifocal trace-test --seed <seed>` needs to re-check the file
        pws.meta["trace"] = {"seed": cfg.seed, "deviation": result.deviation, "tol": cfg.tol_trace}
        _write_witness(cfg.witness_path, pws, cfg)
        log(f"marked {cfg.witness_path} certified")
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    log = _logger(cfg)
    pws = _load_json(cfg.witness_path, witness.witness_from_dict)
    instance = None
    if cfg.instance_path:
        w, _, instance = _load_json(cfg.instance_path, slices.instance_from_dict)
        if cfg.problem and tuple(cfg.problem) != w.as_tuple():
            raise CliError(
                f"--problem {cfg.problem} does not match the stored instance's {w.as_tuple()}"
            )
    elif cfg.problem:
        w = slices.ProblemWeights(*cfg.problem)
    else:
        raise CliError("either --problem or --instance is required")
    try:
        run = pipeline.solve_problem(
            pws, w, cfg.seed, cfg.tracker_config(), max_attempts=cfg.max_attempts, instance=instance
        )
    except pipeline.PipelineError as err:
        raise CliError(str(err))
    print(f"degree={run.degree}")
    print(run.report.summary())
    print(pipeline.table_row(run))
    out = cfg.out_path or (
        "solution_" + "".join(map(str, run.weights.as_tuple())) + f"_seed{cfg.seed}.json"
    )
    doc = pipeline.solution_document(run, instance_meta={"run_config": cfg.to_dict()})
    jsonio.dump_json(out, doc)
    log(f"solution file saved to {out}")
    return 0


def cmd_table(cfg: RunConfig) -> int:
    log = _logger(cfg)
    pws = _load_json(cfg.witness_path, witness.witness_from_dict)
    problems = slices.enumerate_problems()
    if cfg.rows is not None:
        problems = problems[: cfg.rows]
    expected = slices.expected_degrees()
    lines = ["w1\tw2\tw3\tw4\tw5\tdegree\texpected\tmatch"]
    all_ok = True
    for idx, w in enumerate(problems, start=1):
        exp = expected[w.as_tuple()]
        cols = [str(x) for x in w.as_tuple()]
        try:
            run = pipeline.solve_problem(
                pws, w, cfg.seed, cfg.tracker_config(), max_attempts=cfg.max_attempts
            )
            ok = run.degree == exp
            lines.append("\t".join(cols + [str(run.degree), str(exp), "yes" if ok else "no"]))
            log(f"[{idx}/{len(problems)}] {w.as_tuple()} -> {run.degree} (expected {exp})")
        except pipeline.PipelineError as err:
            ok = False
            lines.append("\t".join(cols + ["error", str(exp), "no"]))
            log(f"[{idx}/{len(problems)}] {w.as_tuple()} failed: {err}")
        all_ok = all_ok and ok
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.out_path:
        header = "# run_config: " + json.dumps(cfg.to_dict(), sort_keys=True) + "\n"
        Path(cfg.out_path).write_text(header + text)
        log(f"table saved to {cfg.out_path}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _solution_records(doc: dict) -> list[pipeline.SolutionRecord]:
    if "solutions" in doc:
        entries = doc["solutions"]
    elif "camera_matrices" in doc:
        entries = [doc]
    else:
        raise ValueError("neither 'solutions' nor 'camera_matrices'")
    records = []
    for entry in entries:
        if "params" in entry:
            records.append(pipeline.record_from_params(jsonio.from_pairs(entry["params"])))
        else:
            cams = entry["camera_matrices"]
            records.append(
                pipeline.record_from_cameras(
                    jsonio.from_pairs(cams["B"]).reshape(3, 4),
                    jsonio.from_pairs(cams["C"]).reshape(3, 4),
                )
            )
    return records


def cmd_verify(cfg: RunConfig) -> int:
    log = _logger(cfg)

    def solution(doc):
        embedded = not cfg.instance_path and "instance" in doc
        instance = slices.instance_from_dict(doc["instance"])[2] if embedded else None
        return doc, _solution_records(doc), instance

    doc, records, instance = _load_json(cfg.solution_path, solution)
    if cfg.instance_path:
        _, _, instance = _load_json(cfg.instance_path, slices.instance_from_dict)
    elif instance is None:
        raise CliError(f"{cfg.solution_path}: embeds no instance, and no --instance was given")
    stack = geometry.CorrespondenceStack.of(instance)
    checks = ("physical", "independent_centers", "multiview", "epipole_clear")
    tallies = {name: 0 for name in checks}
    passed = 0
    for i, rec in enumerate(records):
        verdicts = pipeline.verify_solution(
            rec, stack, abs_tol=cfg.tol_verify, epipole_tol=cfg.tol_epipole
        )
        for name in checks:
            tallies[name] += bool(verdicts[name])
        passed += bool(verdicts["all"])
        if not verdicts["all"]:
            failed = [n for n in checks if not verdicts[n]]
            log(f"record {i} failed: {', '.join(failed)}")
    n = len(records)
    print(" ".join(f"{name}={tallies[name]}/{n}" for name in checks))
    print(f"passed={passed}/{n}")
    if "real_solution_count" in doc:
        log(f"stated real solution count: {doc['real_solution_count']}")
    return 0 if passed == n else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _problem_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
        slices.ProblemWeights(*parts)
    except (TypeError, ValueError) as err:
        raise argparse.ArgumentTypeError(str(err))
    return parts


def _at_least(low: int):
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return parse


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifocal",
        description="Witness sets and minimal-problem degrees for calibrated three-view geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each parent holds options that every subcommand it is attached to reads
    log, tracking, out, trace, checks = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    log.add_argument("--log", choices=LOG_LEVELS, default="info", help="stderr verbosity")
    tracking.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    tracking.add_argument("--width", type=_at_least(0), default=0,
                          help="paths tracked in lockstep per chunk (0 = all at once)")
    out.add_argument("--out", dest="out_path", default=None, help="output file path")
    trace.add_argument("--tol-trace", type=_tolerance, default=witness.TRACE_TOL,
                       help="completeness certificate tolerance")
    checks.add_argument("--tol-verify", type=_tolerance, default=None,
                        help="absolute rank tolerance for verification (default: rank-ratio test)")
    checks.add_argument("--tol-epipole", type=_tolerance, default=geometry.EPIPOLE_TOL,
                        help="minimum epipole clearance")

    p = sub.add_parser("witness", parents=[log, tracking, out, trace],
                       help="build and certify a witness set")
    p.add_argument("--locus", choices=witness.LOCI, default="cal")
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET, help="monodromy loop budget")
    p.add_argument("--force", action="store_true", help="rebuild even when a valid file exists")

    p = sub.add_parser("solve", parents=[log, tracking, out], help="solve one minimal problem")
    p.add_argument("--witness", dest="witness_path", required=True)
    p.add_argument("--problem", type=_problem_arg, default=None,
                   help="comma-separated weights, e.g. 1,4,0,0,0")
    p.add_argument("--instance", dest="instance_path", default=None,
                   help="solve this stored instance instead of a random one")
    p.add_argument("--max-attempts", type=_at_least(1), default=3)

    p = sub.add_parser("table", parents=[log, tracking, out],
                       help="tabulate all minimal-problem degrees")
    p.add_argument("--witness", dest="witness_path", required=True)
    p.add_argument("--rows", type=_at_least(0), default=None, help="only the first N problems")
    p.add_argument("--max-attempts", type=_at_least(1), default=3)

    p = sub.add_parser("verify", parents=[log, checks], help="re-check a solution file")
    p.add_argument("--solution", dest="solution_path", required=True)
    p.add_argument("--instance", dest="instance_path", default=None)

    p = sub.add_parser("trace-test", parents=[log, tracking, trace],
                       help="re-run the completeness certificate on a witness file")
    p.add_argument("--witness", dest="witness_path", required=True)
    p.add_argument("--update", action="store_true",
                   help="mark the file certified when the test passes")

    return parser


_COMMANDS = {
    "witness": cmd_witness,
    "solve": cmd_solve,
    "table": cmd_table,
    "verify": cmd_verify,
    "trace-test": cmd_trace_test,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    try:
        return _COMMANDS[cfg.command](cfg)
    except (CliError, witness.WitnessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
