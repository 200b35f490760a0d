"""onecomp benchmark: user-facing CLI jobs as fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports onecomp from
``src/`` of that checkout and from nowhere else.  Every job is one
in-process ``onecomp.cli.main([...])`` call with ``--threads 1``, run one
at a time in this process (closed loop, one client).  Its stdout is
captured and ``--out`` points into a scratch directory under
``.bench_work/``, so JSON loading and report writing are part of each job.
Every job's output is checked against the ground truth in ``checks.py``.

With ``--trace 0`` the run repeats passes over the workload's jobs and
prints the end-to-end metrics.  Every job's time is also normalized by the
reference kernel timed next to it (see ``reference.py``), which takes out
the host's drifting CPU speed; the gated time metrics are the normalized
ones.  With ``--trace 1`` it alternates an untraced pass and a traced pass
(see ``tracer.py``) and prints the per-layer metrics.
Human-readable metric lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH_DIR)
import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

# Job sizes.  classify keeps the depth its verdicts need (at depth 12
# example1 and radial_sparse are Inconclusive); the other two are scaled
# down from the acceptance sizes (levelset depth 10, construct horizon 2000
# at depth 14) so that every job takes at most about two seconds and a run
# repeats it several times.
CLASSIFY_DEPTH = 14
LEVELSET_DEPTH = 8
CONSTRUCT_HORIZON = 500
CONSTRUCT_DEPTH = 10
SETUP_REPEATS = 21

# The seeded cantor family is not classified: its job takes about 38 s, and
# a run could not repeat it.  Its measure is queried instead (see inputs.py).
CLASSIFIED = tuple(f for f in inputs.FAMILIES if f != "cantor")

WORKLOADS = ("classify-families", "levelset-acceptance", "construct-atom")

# End-to-end metrics that are printed but not listed in BENCHMARK.json, so
# no bound applies to them.  failed_frac is 0 on a correct run (the JSON's
# attempted and failed carry it).  The raw set-up and wall times follow the
# host's speed, which drifts by more than the largest bound a metric may
# have; their normalized counterparts are the gated ones.  job_norm_s.p50
# can switch between jobs of similar size from run to run, which puts its
# spread at about a third of the largest bound.
PRINTED_ONLY = {"setup_raw_s": "s", "wall_s": "s", "job_s.p50": "s",
                "job_norm_s.p50": "s", "failed_frac": "1"}


@dataclass
class Job:
    name: str
    command: str
    case: tuple
    argv: list
    out_dir: str
    report: str


def make_jobs(workload: str, paths: dict, out_root: str) -> list[Job]:
    def job(name, command, case, args, report):
        out_dir = os.path.join(out_root, name)
        argv = ["--threads", "1", command] + args + ["--out", out_dir]
        return Job(name, command, case, argv, out_dir, report)

    if workload == "classify-families":
        classify = [job("classify-" + fam, "classify", (fam,),
                        ["--inner", paths["family:" + fam],
                         "--depth", str(CLASSIFY_DEPTH)], "report.json")
                    for fam in CLASSIFIED]
        measure = []
        for turn in inputs.CANTOR_QUERY_TURNS:
            t = float(Fraction(turn))
            z = inputs.CANTOR_QUERY_RADIUS * cmath.exp(2j * math.pi * t)
            measure.append(job(
                "measure-cantor-" + turn.replace("/", "_"), "measure", (turn,),
                ["--measure", paths["measure:cantor"],
                 "--at=%r,%r" % (z.real, z.imag),
                 "--arc", "%r,%r" % (2 * math.pi * t,
                                     2 * math.pi * inputs.CANTOR_ARC_HALF_TURNS),
                 "--tol", inputs.CANTOR_TOL], "measure.json"))
        return classify + measure
    if workload == "levelset-acceptance":
        return [job("levelset-%s-%s" % (zs, eps), "levelset", (zs, eps),
                    ["--inner", paths["levelset:" + zs], "--epsilon", eps,
                     "--depth", str(LEVELSET_DEPTH), "--pgm"], "levelset.json")
                for zs in inputs.LEVELSET_ZERO_SETS
                for eps in inputs.LEVELSET_EPSILONS]
    return [job("construct-atom1", "construct", (CONSTRUCT_HORIZON,),
                ["--inner", paths["family:atom1"],
                 "--horizon", str(CONSTRUCT_HORIZON),
                 "--depth", str(CONSTRUCT_DEPTH)], "companion.json")]


def setup_once(run_dir: str, seed: int):
    """Fresh import of onecomp, seeded examples, this seed's inputs."""
    for name in [m for m in sys.modules if m == "onecomp" or m.startswith("onecomp.")]:
        del sys.modules[name]
    seeded = os.path.join(run_dir, "seeded")
    start = time.perf_counter()
    cli = importlib.import_module("onecomp.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["seed-examples", "--out", seeded])
    paths = inputs.generate(seeded, os.path.join(run_dir, "inputs"), seed)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError("seed-examples exited %d" % rc)
    return elapsed, cli, paths


@dataclass
class PassResult:
    job_s: list           # wall seconds of each job
    ref_s: list           # reference kernel seconds around the jobs
    problems: list        # (job name, problem) for each failed job
    docs: list            # (job, parsed report or None)

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)

    def normalized_job_s(self) -> list:
        """Each job's seconds at the reference kernel's nominal speed."""
        return reference.normalize(self.job_s, self.ref_s)


def run_pass(cli, jobs: list, seed: int, tracer: Tracer | None = None) -> PassResult:
    """Run every job once.  An untraced pass times the reference kernel
    before each job and after the last one."""
    for job in jobs:
        shutil.rmtree(job.out_dir, ignore_errors=True)
    outputs, ref_s = [], []
    traced = tracer if tracer is not None else contextlib.nullcontext()
    with traced:
        for i, job in enumerate(jobs):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job_id = i
                span = tracer.open_span("job")
            else:
                ref_s.append(reference.timed())
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job.argv)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close_span(span)
            outputs.append((rc, out.getvalue(), err.getvalue(), t1 - t0))
        if tracer is None:
            ref_s.append(reference.timed())
    problems, docs = [], []
    for job, (rc, stdout, stderr, _) in zip(jobs, outputs):
        problem, doc = checks.check_job(job, rc, stdout, seed)
        if problem is not None:
            detail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            problems.append((job.name, "; ".join([problem] + detail)))
        docs.append((job, doc))
    return PassResult([o[3] for o in outputs], ref_s, problems, docs)


def layer_metrics(tracer: Tracer, result: PassResult) -> dict:
    """Per-layer numbers of one traced pass."""
    sp = tracer.spans()

    def ratio(num, den):
        return num / den if den else 0.0

    levelset_docs = [d for j, d in result.docs if j.command == "levelset" and d]
    construct_docs = [d for j, d in result.docs if j.command == "construct" and d]
    sampled = tracer.calls_under("geometry.carleson_square", "classify.scan")
    outer_cells = sp.calls_under("inner.modulus", "levelset")
    return {
        "measures.poisson.calls": sp.calls("measures.poisson"),
        "measures.poisson.s": sp.seconds("measures.poisson"),
        "measures.arc_mass.calls": sp.calls("measures.arc_mass"),
        "measures.arc_mass.s": sp.seconds("measures.arc_mass"),
        "measures.herglotz.calls": sp.calls("measures.herglotz"),
        "measures.herglotz.s": sp.seconds("measures.herglotz"),
        "measures.precision_exhausted": len(tracer.raised),
        "inner.modulus.calls": sp.calls("inner.modulus"),
        "inner.modulus.s": sp.seconds("inner.modulus"),
        "inner.blaschke.calls": sp.calls("inner.blaschke"),
        "inner.blaschke.s": sp.seconds("inner.blaschke"),
        "inner.singular.s": sp.seconds("inner.singular"),
        "inner.separation.s": sp.seconds("inner.separation"),
        "inner.mu_square.calls": sp.calls("inner.mu_square"),
        "inner.mu_square.s": sp.seconds("inner.mu_square"),
        "geometry.carleson_square.calls": tracer.calls("geometry.carleson_square"),
        "geometry.pseudo_distance.calls": tracer.calls("geometry.pseudo_distance"),
        "classify.scan.calls": sp.calls("classify.scan"),
        "classify.scan.s": sp.seconds("classify.scan"),
        "classify.scan.self_s": sp.self_seconds("classify.scan"),
        "classify.scan.hit_ratio": ratio(
            sp.calls_under("inner.modulus", "classify.scan"), sampled),
        "classify.sawtooth.s": sp.seconds("classify.sawtooth"),
        "classify.radial.s": sp.seconds("classify.radial"),
        "levelset.s": sp.seconds("levelset"),
        "levelset.self_s": sp.self_seconds("levelset", "levelset.recount"),
        "levelset.recount_s": sp.seconds("levelset.recount"),
        "levelset.cells": sp.calls_under("inner.modulus", "levelset",
                                         "levelset.recount"),
        "levelset.marked_ratio": ratio(
            sum(d["marked_cells"] for d in levelset_docs), outer_cells),
        "companion.s": sp.seconds("companion"),
        "companion.self_s": sp.self_seconds("companion"),
        "companion.radii.s": sp.seconds("companion.radii"),
        "companion.march.s": sp.seconds("companion.march"),
        "companion.zeros": sum(len(d["zeros_csv"].strip().split("\n")) - 1
                               for d in construct_docs),
        "companion.spot.points": sum(d["spot_check"]["points_checked"]
                                     for d in construct_docs),
        "companion.spot.mu_queries": sum(d["spot_check"]["points_above_threshold"]
                                         for d in construct_docs),
        "cli.load_s": sp.seconds("cli.load"),
        "cli.write_s": sp.seconds("cli.dumps", "cli.export", "cli.zeros_csv"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "onecomp", "__init__.py")):
        sys.stderr.write("bench: no onecomp sources under %s; run from the "
                         "root of a source checkout\n" % (SRC,))
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(run_dir)
    try:
        _, cli, paths = setup_once(run_dir, args.seed)
        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            sys.stderr.write("bench: imported onecomp from %s, not %s\n"
                             % (cli.__file__, SRC))
            return 2
        jobs = make_jobs(args.workload, paths, os.path.join(run_dir, "out"))

        untraced, traced, layers = [], [], []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(cli, jobs, args.seed))
            if args.trace:
                tracer = Tracer()
                traced.append(run_pass(cli, jobs, args.seed, tracer))
                layers.append(layer_metrics(tracer, traced[-1]))
                tracer.write(os.path.join(WORK, "trace-%s.npz" % args.workload))
                del tracer
            elapsed = time.perf_counter() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
        # Read the peak before the repeated set-ups: each fresh import of
        # onecomp raises the allocator's high-water mark.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            setup_raw, ref_s = [], [reference.timed()]
            for _ in range(SETUP_REPEATS):
                setup_raw.append(setup_once(run_dir, args.seed)[0])
                ref_s.append(reference.timed())
            setup_s = statistics.median(reference.normalize(setup_raw, ref_s))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p.job_s) for p in passes)
    problems = [pr for p in passes for pr in p.problems]
    for name, problem in problems:
        sys.stderr.write("bench: FAILED %s: %s\n" % (name, problem))

    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced) - 1.0)
        listed = spec["per_layer"]
    else:
        # per job, the median over passes of its normalized seconds
        job_norm_s = [statistics.median(times) for times in
                      zip(*(p.normalized_job_s() for p in untraced))]
        metrics = {
            "setup_s": setup_s,
            "setup_raw_s": statistics.median(setup_raw),
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "job_s.p50": statistics.median(t for p in untraced for t in p.job_s),
            "pass_norm_s": sum(job_norm_s),
            "job_norm_s.p50": statistics.median(job_norm_s),
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": len(problems) / attempted,
        }
        listed = spec["end_to_end"]
    units = dict(PRINTED_ONLY, **{m["name"]: m["unit"] for m in listed})

    samples = sum(len(p.job_s) for p in untraced)
    print("workload %s  seed %d  passes %d untraced, %d traced  jobs %d"
          % (args.workload, args.seed, len(untraced), len(traced), attempted))
    notes = {"job_s.p50": "  (median of %d job runs)" % samples,
             "job_norm_s.p50": "  (median over %d jobs of each job's median)"
                               % len(jobs)}
    for name, value in metrics.items():
        note = notes.get(name, "")
        print("%-34s %.6g %s%s" % (name, value, units[name], note))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
