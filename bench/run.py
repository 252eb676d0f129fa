"""Pipeline benchmark for research_space.

    python3 bench/run.py --workload scientist-freq --seed 1 --seconds 32 --trace 0

Run from the root of a checkout. Each run generates seeded synthetic inputs,
times cold starts of the CLI, then runs the workload's CLI commands one at a
time, each in its own ``python -m research_space.cli`` process with
PYTHONPATH=src (a closed loop with one client), repeating the whole sequence
until ``--seconds`` are used and at least MIN_REPS times. Every output is
checked against the oracles in oracle.py, and every repetition's artifacts
must be byte-identical to the first one's.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over repetitions). With ``--trace 1`` the first repetition runs
each command under trace_cli.py and the last line carries the per-layer
metrics instead, plus the tracing overhead. ``--workload all`` runs every
workload in turn. See README.md in this directory for the metric list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import gen
import oracle as orc

HERE = Path(__file__).resolve().parent
FIT, RCA, TEST = (2000, 2012), (2010, 2012), (2013, 2015)
# Untraced repetitions per run: at least MIN_REPS, more while --seconds last.
# In the host's slow periods a repetition takes 1.6 times as long, and a run
# must still end in about 45 s.
MIN_REPS = 2
SETUP_SAMPLES = 5
PERMUTATIONS = 10000
ALPHA, P_THRESHOLD = 0.2, 0.35
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# On the 2-vCPU Xeon VM this benchmark was sized on, each vCPU's speed swings
# by +-25% over seconds to tens of seconds, independently of the other, so raw
# wall times of two runs differ by more than any useful bound. Each command is
# bracketed by calibrations: on every CPU the children may use, the median
# time of a fixed pure-Python loop run CALIBRATION_REPEATS times, averaged
# over the CPUs. The command's wall time is rescaled to the speed at which
# that loop takes REFERENCE_S, about its time on that VM at full speed.
CALIBRATION_LOOPS = 200_000
CALIBRATION_REPEATS = 3
REFERENCE_S = 0.012


def window(w):
    return f"{w[0]}:{w[1]}"


@dataclass
class Workload:
    scientists: int
    records_per_scientist: float
    fmt: str  # record file format: jsonl or zenodo
    kind: str  # entity kind: scientist or institution


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "scientist-freq": Workload(2000, 20, "jsonl", "scientist"),
    "scientist-emb": Workload(500, 10, "jsonl", "scientist"),
    "institution-developed": Workload(2000, 20, "zenodo", "institution"),
}


@dataclass
class Command:
    label: str
    argv: list
    artifacts: tuple  # files under --out that must be byte-identical per seed

    @property
    def name(self):
        return self.argv[0]

    @property
    def out(self):
        return self.argv[self.argv.index("--out") + 1]

    def artifact_paths(self):
        if not self.artifacts:
            return [self.out]
        return [f"{self.out}/{a}" for a in self.artifacts]


def commands(name, w):
    """The workload's CLI commands, with paths relative to the run directory."""
    tax = ["--taxonomy", "in/taxonomy.tsv"]
    corpus = ["--corpus", "out/corpus/corpus.jsonl"] + tax
    records = "in/records.jsonl" if w.fmt == "jsonl" else "in/records.csv"
    wins = ["--fit", window(FIT), "--rca", window(RCA), "--test", window(TEST)]
    phi = ("phi.tsv", "manifest.json")
    auroc = ("auroc.tsv", "summary.json")
    backbone = ("backbone.tsv", "communities.tsv")
    cmds = [
        Command("ingest",
                ["ingest", "--records", records, "--venue-map", "in/venues.tsv", *tax,
                 "--kind", w.kind, "--format", w.fmt, "--out", "out/corpus"],
                ("corpus.jsonl", "match_report.json", "manifest.json")),
        Command("fit_freq",
                ["fit", *corpus, "--window", window(FIT), "--model", "freq",
                 "--out", "out/phi_freq"], phi),
    ]
    freq = "out/phi_freq/phi.tsv"
    if name == "scientist-freq":
        cmds += [
            Command("predict",
                    ["predict", "--phi", freq, *corpus, "--rca-window", window(RCA),
                     "--transition", "0A", "--out", "out/predict.tsv"], ()),
            Command("evaluate_0A",
                    ["evaluate", "--phi-a", freq, *corpus, *wins, "--transition", "0A",
                     "--out", "out/eval_0A"], auroc),
        ]
    elif name == "scientist-emb":
        emb = "out/phi_emb/phi.tsv"
        cmds += [
            Command("fit_emb",
                    ["fit", *corpus, "--window", window(FIT), "--model", "emb",
                     "--dim", "100", "--epochs", "10", "--seed", "7",
                     "--out", "out/phi_emb"], phi + ("embeddings.tsv",)),
            # emb against freq: two phi of one model tag would share a label
            Command("evaluate_0A",
                    ["evaluate", "--phi-a", emb, "--phi-b", freq, *corpus, *wins,
                     "--transition", "0A", "--permutations", str(PERMUTATIONS),
                     "--out", "out/eval_0A"], auroc),
            Command("backbone_field",
                    ["backbone", "--phi", emb, *tax, "--mode", "disparity",
                     "--alpha", str(ALPHA), "--level", "field", "--out", "out/bb_field"],
                    backbone),
            Command("backbone_intermediate",
                    ["backbone", "--phi", emb, *tax, "--mode", "mst-threshold",
                     "--p", str(P_THRESHOLD), "--level", "intermediate",
                     "--out", "out/bb_intermediate"], backbone),
        ]
    else:
        cmds += [
            Command("evaluate_ND",
                    ["evaluate", "--phi-a", freq, *corpus, *wins, "--transition", "ND",
                     "--out", "out/eval_ND"], auroc),
            Command("evaluate_ID",
                    ["evaluate", "--phi-a", freq, *corpus, *wins, "--transition", "ID",
                     "--full-candidates", "--out", "out/eval_ID"], auroc),
            Command("export_stats",
                    ["export-stats", *corpus, "--out", "out/stats"],
                    ("ccdf_publications.tsv", "ccdf_active_fields.tsv")),
        ]
    return cmds


# --- running commands -----------------------------------------------------

@dataclass
class Result:
    code: int
    wall: float  # seconds as measured
    rss_mb: float
    stdout: str
    stderr: str
    seconds: float = 0.0  # wall rescaled to the reference CPU speed


def calibrate():
    """Seconds a fixed pure-Python loop takes here: the median of a few
    repeats on each CPU this process may use, averaged over those CPUs."""
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(CALIBRATION_REPEATS):
                start = time.perf_counter()
                total = 0
                for i in range(CALIBRATION_LOOPS):
                    total += i * i
                times.append(time.perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(src):
    """The parent's environment with PYTHONPATH=src and BLAS/OpenMP thread
    counts capped at nproc (nproc when unset)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    n = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        env[var] = str(min(n, int(value))) if value.isdigit() and int(value) > 0 else str(n)
    return env


def run_process(argv, cwd, env, log_stem):
    """Run to completion; wall seconds and the child's own peak RSS."""
    out_path, err_path = Path(f"{log_stem}.out"), Path(f"{log_stem}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                  out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def file_hashes(root, paths):
    """sha256 of each file, None where it is missing."""
    return {p: hashlib.sha256((root / p).read_bytes()).hexdigest()
            if (root / p).is_file() else None for p in paths}


# --- checks ---------------------------------------------------------------

class Checker:
    """Oracle checks per command, run on the first repetition's artifacts."""

    def __init__(self, kind, truth, rundir):
        self.root = rundir
        self.oracle = orc.Oracle(truth, kind)
        ids, x = self.oracle.contribution(*FIT)
        self.fit_entities = len(ids)
        self.bags, self.trainable = orc.trainable_bags(x)
        self.phi_freq = orc.phi_freq(x)
        self.rca_ids, x_rca = self.oracle.contribution(*RCA)
        self.r_before = orc.rca(x_rca)
        test_ids, x_test = self.oracle.contribution(*TEST)
        self.after = (test_ids, orc.rca(x_test))
        self.candidates = 0  # oracle candidate fields over every ranking command
        self.scored = self.ranked = 0  # entities with an AUROC / entities ranked
        self.edges_kept = self.edges_in = 0  # backbone edges kept / offered
        self.quality = {}  # metric name -> value read from the program's outputs

    def path(self, rel):
        """Where an ``out/...`` path of the first repetition now lives."""
        return self.root / Path(rel).relative_to("out")

    def check(self, cmd, res):
        if res.code != 0 or "Traceback" in res.stderr:
            return [f"{cmd.label}: exit {res.code}: {res.stderr.strip()[-300:]}"]
        return getattr(self, "check_" + cmd.name.replace("-", "_"))(cmd, res)

    def check_ingest(self, cmd, res):
        return orc.check_match_report(self.path("out/corpus/match_report.json"), self.oracle)

    def check_fit(self, cmd, res):
        phi = self.path(cmd.out) / "phi.tsv"
        if "--model" in cmd.argv and cmd.argv[cmd.argv.index("--model") + 1] == "emb":
            return orc.check_phi_emb(phi)
        return orc.check_phi_freq(phi, self.phi_freq, window(FIT))

    def _phi(self, rel):
        return orc.read_phi(self.path(rel))[2]

    def check_predict(self, cmd, res):
        self.candidates += int(orc.candidates(self.r_before, "0A").sum())
        return orc.check_predict(self.path(cmd.out), self.rca_ids, self.r_before,
                                 self._phi("out/phi_freq/phi.tsv"))

    def check_evaluate(self, cmd, res):
        argv = cmd.argv
        transition = argv[argv.index("--transition") + 1]
        full = "--full-candidates" in argv
        phis = [orc.read_phi(self.path(argv[argv.index(flag) + 1]))
                for flag in ("--phi-a", "--phi-b") if flag in argv]
        tags = [meta.get("model") for meta, _, _ in phis]
        expected = [orc.expected_auroc(self.rca_ids, self.r_before, self.after,
                                       transition, full, phi) for _, _, phi in phis]
        cand = orc.candidates(self.r_before, transition, full)
        self.candidates += len(phis) * int(cand.sum())
        errs = orc.check_evaluate(self.path(cmd.out), tags, expected, len(self.rca_ids),
                                  PERMUTATIONS)
        summary = json.loads((self.path(cmd.out) / "summary.json").read_text())
        for i, tag in enumerate(tags):
            s = summary.get(tag, {})
            self.scored += s.get("n", 0)
            self.ranked += s.get("n", 0) + s.get("excluded", 0)
            if s.get("n"):
                keys = ["auroc_mean_phi_a"] if i == 0 else []
                keys += ["auroc_mean_freq"] if tag == "frequentist" else []
                for key in keys:  # n-weighted over the workload's evaluations
                    total, n = self.quality.get(key, (0.0, 0))
                    self.quality[key] = (total + s["mean"] * s["n"], n + s["n"])
        return errs

    def check_backbone(self, cmd, res):
        phi = self._phi("out/phi_emb/phi.tsv")
        printed = None
        if "modularity" in res.stdout:
            printed = float(res.stdout.rsplit("modularity", 1)[1].split()[0])
        out = self.path(cmd.out)
        if "disparity" in cmd.argv:
            offered = phi
            errs = orc.check_backbone_disparity(out, phi, ALPHA, printed)
            ids = [gen.field_id(f) for f in range(gen.N_FIELDS)]
        else:
            offered = orc.intermediate_phi(phi)
            errs = orc.check_backbone_mst(out, phi, P_THRESHOLD, printed)
            ids = [f"I{i + 1:02d}" for i in range(len(offered))]
        edges, comm = orc.read_backbone(out, ids)
        self.edges_kept += len(edges)
        self.edges_in += int(np.triu(offered > 0, k=1).sum())
        if "disparity" in cmd.argv:
            self.quality["backbone_modularity"] = orc.modularity(len(ids), edges, comm)
        return errs

    def check_export_stats(self, cmd, res):
        # without --window the CLI spans the corpus years, here 2000:2015
        _, x_all = self.oracle.contribution(gen.FIRST_YEAR, gen.LAST_YEAR)
        out = self.path(cmd.out)
        pubs = self.oracle.publication_counts(gen.FIRST_YEAR, gen.LAST_YEAR)
        return (orc.check_ccdf(out / "ccdf_publications.tsv", pubs)
                + orc.check_ccdf(out / "ccdf_active_fields.tsv", (x_all > orc.THETA).sum(axis=1)))

    def quality_value(self, key):
        total, n = self.quality.get(key, (0.0, 0))
        return total / n if n else None


# --- one run ----------------------------------------------------------------

@dataclass
class Rep:
    results: dict = field(default_factory=dict)  # label -> Result
    hashes: dict = field(default_factory=dict)  # label -> {path: sha256}
    traced: bool = False
    elapsed: float = 0.0  # wall seconds, calibrations included


class Run:
    def __init__(self, root, name, seed, seconds, trace, scale=1.0):
        self.root, self.name, self.seed = root, name, seed
        self.seconds, self.trace = seconds, trace
        w = WORKLOADS[name]
        self.w = Workload(max(20, round(w.scientists * scale)), w.records_per_scientist,
                          w.fmt, w.kind)
        self.dir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        self.env = child_env(root / "src")
        self.cmds = commands(name, self.w)
        self.attempted = self.failed = 0
        self.errors = []
        self.last_calibration = None
        self.phases = {}  # the benchmark's own time per phase of the run

    def cli(self, argv, log, trace_json=None):
        """Run one CLI command between two calibrations (the first is shared
        with the previous command)."""
        if trace_json is None:
            prefix = [sys.executable, "-m", "research_space.cli"]
        else:
            prefix = [sys.executable, str(HERE / "trace_cli.py"), str(trace_json)]
        before = self.last_calibration or calibrate()
        res = run_process(prefix + argv, self.dir, self.env, self.dir / "logs" / log)
        self.last_calibration = calibrate()
        res.seconds = res.wall * REFERENCE_S / ((before + self.last_calibration) / 2)
        return res

    def op(self, label, errors):
        """Count one operation: a command plus its output checks."""
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += [f"{label}: {e}" for e in errors]

    def setup(self):
        """Median cold start of the CLI (``--help``), after one untimed start
        that lets bytecode caches fill."""
        samples = []
        for i in range(SETUP_SAMPLES):
            res = self.cli(["--help"], f"setup{i}")
            self.op("setup", [] if res.code == 0 else [f"--help exit {res.code}"])
            samples.append(res)
        return samples

    def rep(self, i, traced):
        start = time.perf_counter()
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        rep = Rep(traced=traced)
        for cmd in self.cmds:
            trace_json = self.dir / "logs" / f"trace_{cmd.label}.json" if traced else None
            rep.results[cmd.label] = self.cli(cmd.argv, f"rep{i}_{cmd.label}", trace_json)
            rep.hashes[cmd.label] = file_hashes(self.dir, cmd.artifact_paths())
        if i == 0:
            out.rename(self.dir / "checked")
        rep.elapsed = time.perf_counter() - start
        return rep

    def execute(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        clock = time.perf_counter()
        warm = subprocess.Popen([sys.executable, "-m", "research_space.cli", "--help"],
                                cwd=self.dir, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            truth = gen.write_inputs(self.dir / "in", self.seed, self.w.scientists,
                                     self.w.records_per_scientist, self.w.fmt)
        finally:
            warm.wait()
        self.truth = truth
        self.phases["generate_s"] = time.perf_counter() - clock
        clock = time.perf_counter()
        self.setup_samples = self.setup()
        start = time.perf_counter()
        self.phases["setup_s"] = start - clock
        reps = [self.rep(0, traced=self.trace)]
        need = 1 if self.trace else MIN_REPS
        while True:
            untraced = sum(not r.traced for r in reps)
            spent = time.perf_counter() - start
            typical = statistics.median(r.elapsed for r in reps)
            if untraced >= need and spent + typical > self.seconds:
                break
            reps.append(self.rep(len(reps), traced=False))
        self.reps = reps
        clock = time.perf_counter()
        self.phases["measure_s"] = clock - start
        self.verify()
        self.phases["check_s"] = time.perf_counter() - clock

    def verify(self):
        """Oracle checks on the first repetition, byte identity on the rest."""
        checker = Checker(self.w.kind, self.truth, self.dir / "checked")
        for cmd in self.cmds:
            res = self.reps[0].results[cmd.label]
            try:
                errs = checker.check(cmd, res)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                errs = [f"output unreadable: {type(e).__name__}: {e}"]
            self.op(cmd.label, errs)
        first = self.reps[0].hashes
        for i, rep in enumerate(self.reps[1:], start=1):
            for cmd in self.cmds:
                res = rep.results[cmd.label]
                errs = [] if res.code == 0 else [f"exit {res.code}"]
                if rep.hashes[cmd.label] != first[cmd.label]:
                    errs.append("artifacts differ from repetition 0 (same seed)")
                self.op(f"rep{i}.{cmd.label}", errs)
        self.checker = checker

    # --- metrics ------------------------------------------------------------

    def untraced(self):
        return [r for r in self.reps if not r.traced]

    def end_to_end(self):
        """name -> (value, unit, samples): medians over untraced repetitions."""
        reps = self.untraced()
        n = len(reps)
        med = statistics.median
        m = {"setup_s": (med(r.seconds for r in self.setup_samples), "s",
                         len(self.setup_samples)),
             "pipeline_s": (self.pipeline_median(), "s", n)}
        m["peak_rss_mb"] = (med(max(x.rss_mb for x in r.results.values()) for r in reps),
                            "MB", n)
        for key in ("auroc_mean_freq", "auroc_mean_phi_a"):
            m[key] = (self.checker.quality_value(key), "auroc", 1)
        return m

    def pipeline_median(self, attr="seconds"):
        """Sum over the workload's commands of each one's median time over the
        untraced repetitions. A burst that slows a different command in each
        repetition moves this less than the median of per-repetition sums."""
        reps = self.untraced()
        return sum(statistics.median(getattr(r.results[c.label], attr) for r in reps)
                   for c in self.cmds)

    def per_command(self):
        """Median rescaled time of each command kind, summed when a workload
        runs it twice. Printed only: one command's time spreads too much
        between runs on a shared host to carry a bound."""
        reps = self.untraced()
        names = {"fit_freq": "fit_freq_s", "fit_emb": "fit_emb_s"}
        out = {}
        for cmd in self.cmds:
            key = names.get(cmd.label, cmd.name.replace("-", "_") + "_s")
            out.setdefault(key, []).append(cmd.label)
        return {key: statistics.median(sum(r.results[l].seconds for l in labels)
                                       for r in reps)
                for key, labels in out.items()}

    def per_layer(self):
        spans = aggregate_traces(self.dir / "logs", self.cmds)
        c = self.checker
        traced = next(r for r in self.reps if r.traced)
        path = self.dir / "checked/corpus/match_report.json"
        report = json.loads(path.read_text()) if path.is_file() else {}
        matched = report.get("exact", 0) + report.get("approximate", 0)
        total = max(1, matched + report.get("unmatched", 0))
        steps = 10 * c.trainable if self.name == "scientist-emb" else 0
        train_s = spans.get("emb_model.train_embeddings.s", 0.0)
        compare_s = spans.get("prediction_eval.compare_models.s", 0.0)
        derived = {
            "corpus.match.hit_ratio": matched / total,
            "corpus.match.approximate_ratio": report.get("approximate", 0) / total,
            "prediction_eval.candidates": c.candidates,
            "prediction_eval.scored_ratio": c.scored / c.ranked if c.ranked else 0.0,
            "emb_model.sgd_steps": steps,
            "emb_model.us_per_step": 1e6 * train_s / steps if steps else 0.0,
            "emb_model.trainable_ratio": c.trainable / c.bags if steps else 0.0,
            "prediction_eval.permutations_per_s":
                PERMUTATIONS / compare_s if compare_s else 0.0,
            "network_analysis.edges_kept_ratio":
                c.edges_kept / c.edges_in if c.edges_in else 0.0,
            "network_analysis.modularity": c.quality.get("backbone_modularity", 0.0),
            "trace.pipeline_s": pipeline_seconds(traced),
            "trace.overhead_s": pipeline_seconds(traced) - self.pipeline_median(),
        }
        return {name: (float(derived.get(name, spans.get(name, 0.0))), unit, 1)
                for name, unit in PER_LAYER}

    def run_record(self):
        root = self.root
        git_sha = None
        if (root / ".git").exists():
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            git_sha = proc.stdout.strip() if proc.returncode == 0 else None
        src = hashlib.sha256()
        for p in sorted((root / "src").rglob("*.py")):
            src.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
        c = self.checker
        return {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "git_sha": git_sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(),
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "networkx")},
            "nproc": nproc(), "threads": {v: self.env[v] for v in THREAD_VARS},
            "repetitions": len(self.untraced()), "setup_samples": len(self.setup_samples),
            "phases": self.phases,
            "inputs": self.truth.files, "planted": c.oracle.planted,
            "sizes": {"records": c.oracle.planted["resolved_records"],
                      "entities": c.fit_entities, "bags": c.bags,
                      "trainable_bags": c.trainable, "candidates": c.candidates},
        }

    def report(self):
        """Print the human-readable table and run record; return the result."""
        metrics = self.per_layer() if self.trace else self.end_to_end()
        print(f"# {self.name} seed {self.seed}: {len(self.untraced())} untraced "
              f"repetitions{' + 1 traced' if self.trace else ''}, closed loop, 1 client")
        share = {}
        if self.trace:  # in-process times as a share of the traced commands' wall time
            traced = next(r for r in self.reps if r.traced)
            wall = sum(r.wall for r in traced.results.values())
            share = {name: f"  {100 * value / wall:5.1f}% of traced wall"
                     for name, (value, unit, _) in metrics.items()
                     if name.endswith((".s", ".self_s")) and not name.startswith("trace.")}
        for name, (value, unit, n) in metrics.items():
            print(f"  {name:48s} {value if value is not None else float('nan'):14.6g} "
                  f"{unit:6s} n={n}{share.get(name, '')}")
        if self.trace:
            setup_wall = statistics.median(r.wall for r in self.setup_samples)
            print(f"  {'(trace.pipeline_s, wall)':48s} {wall:14.6g} s      not rescaled")
            print(f"  {'(setup_s x commands, wall)':48s} {setup_wall * len(self.cmds):14.6g} "
                  f"s      {len(self.cmds)} x {setup_wall:.3g} s  "
                  f"{100 * setup_wall * len(self.cmds) / wall:5.1f}% of traced wall")
        if not self.trace:
            walls = {"setup_s": statistics.median(r.wall for r in self.setup_samples),
                     "pipeline_s": self.pipeline_median("wall")}
            for name, value in walls.items():
                print(f"  {'(' + name + ', wall)':48s} {value:14.6g} s      not rescaled")
            for name, value in self.per_command().items():
                print(f"  {'(' + name + ')':48s} {value:14.6g} s      median")
            if "backbone_modularity" in self.checker.quality:
                print(f"  {'(backbone_modularity)':48s} "
                      f"{self.checker.quality['backbone_modularity']:14.6g} Q")
        print(f"  {'(error_rate)':48s} {self.failed / self.attempted:14.6g} ratio  "
              f"{self.failed} failed of {self.attempted} operations")
        print("run_record " + json.dumps(self.run_record(), sort_keys=True))
        for e in self.errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def pipeline_seconds(rep):
    return sum(r.seconds for r in rep.results.values())


# Per-layer metrics of the traced run: <module>.<function>.<stat>.
PER_LAYER = [
    ("corpus.load_records.s", "s"), ("corpus.resolve_corpus.s", "s"),
    ("corpus.match_venue.calls", "count"), ("corpus.match.hit_ratio", "ratio"),
    ("corpus.match.approximate_ratio", "ratio"), ("corpus.rss_growth_mb", "MB"),
    ("artifacts.load_corpus.s", "s"), ("artifacts.load_corpus.calls", "count"),
    ("artifacts.save_corpus.s", "s"), ("artifacts.load_proximity.s", "s"),
    ("artifacts.save_proximity.s", "s"), ("artifacts.bytes_written", "bytes"),
    ("artifacts.rss_growth_mb", "MB"),
    ("presence.contribution_matrix.s", "s"), ("presence.contribution_matrix.calls", "count"),
    ("presence.presence_matrix.s", "s"), ("presence.nnz_x", "count"),
    ("presence.nnz_p", "count"), ("presence.rss_growth_mb", "MB"),
    ("freq_model.copresence.s", "s"), ("freq_model.proximity_freq.s", "s"),
    ("emb_model.build_bags.s", "s"), ("emb_model.train_embeddings.s", "s"),
    ("emb_model.sgd_steps", "count"), ("emb_model.us_per_step", "us"),
    ("emb_model.trainable_ratio", "ratio"), ("emb_model.final_epoch_loss", "loss"),
    ("emb_model.proximity_emb.s", "s"), ("emb_model.rss_growth_mb", "MB"),
    ("specialization.rca.s", "s"), ("specialization.indicator.s", "s"),
    ("specialization.density.s", "s"), ("specialization.rss_growth_mb", "MB"),
    ("prediction_eval.rank_candidates.s", "s"), ("prediction_eval.candidates", "count"),
    ("prediction_eval.detect_transitions.s", "s"),
    ("prediction_eval.evaluate_transition.s", "s"),
    ("prediction_eval.evaluate_transition.self_s", "s"),
    ("prediction_eval.auroc.calls", "count"), ("prediction_eval.scored_ratio", "ratio"),
    ("prediction_eval.compare_models.s", "s"),
    ("prediction_eval.permutations_per_s", "1/s"), ("prediction_eval.rss_growth_mb", "MB"),
    ("network_analysis.aggregate_to_intermediate.s", "s"),
    ("network_analysis.proximity_graph.s", "s"), ("network_analysis.disparity_filter.s", "s"),
    ("network_analysis.mst_plus_threshold.s", "s"),
    ("network_analysis.greedy_communities.s", "s"),
    ("network_analysis.greedy_communities.self_s", "s"),
    ("network_analysis.edges_kept_ratio", "ratio"), ("network_analysis.modularity", "Q"),
    ("cli.self_s", "s"), ("trace.pipeline_s", "s"), ("trace.overhead_s", "s"),
]


def aggregate_traces(log_dir, cmds):
    """Sum the traced commands' spans into ``<name>.s``, ``<name>.calls`` and,
    for spans with children, ``<name>.self_s``; growth of ru_maxrss is
    charged to the module whose span ran minus its children's growth."""
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for cmd in cmds:
        path = log_dir / f"trace_{cmd.label}.json"
        if not path.is_file():
            continue  # the command died before tracing ended; its check failed
        data = json.loads(path.read_text())
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        child_rss = [0.0] * len(spans)
        has_children = [False] * len(spans)
        for name, start, end, parent, rss0, rss1 in spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_rss[parent] += rss1 - rss0
                has_children[parent] = True
        for i, (name, start, end, parent, rss0, rss1) in enumerate(spans):
            add(name + ".s", end - start)
            add(name + ".calls", 1)
            if has_children[i]:
                add(name + ".self_s", end - start - child_time[i])
            add(name.split(".")[0] + ".rss_growth_mb", rss1 - rss0 - child_rss[i])
        for name, n in data["counts"].items():
            add(name + ".calls", n)
        for key, value in data["extras"].items():
            if key == "emb_model.final_epoch_loss":
                out[key] = value
            else:
                add(key, value)
    # the root span of every command is cli.<command>
    out["cli.self_s"] = sum(v for k, v in out.items()
                            if k.startswith("cli.") and k.endswith(".self_s"))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="Pipeline benchmark for research_space.")
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "research_space" / "cli.py").is_file():
        print("error: run from a checkout root holding src/research_space", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = Run(root, name, args.seed, args.seconds, bool(args.trace))
        try:
            run.execute()
            results[name] = run.report()
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
            try:
                run.dir.parent.rmdir()
            except OSError:
                pass
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
