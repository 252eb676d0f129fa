"""Tiny-scale self-test of the benchmark: the generator is deterministic, one
workload runs end to end (traced and untraced) with every check passing, and
the checks reject corrupted outputs.

    python3 bench/smoke.py      # from the checkout root, about a minute

Prints ``smoke: ok`` and exits 0, or names the first failure and exits 1.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gen
import run


def expect(cond, what):
    if not cond:
        print(f"smoke: FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def rewrite(path, edit):
    path = Path(path)
    path.write_text(edit(path.read_text()))


def set_cell(text, line, col, delta):
    """Add ``delta`` to one numeric cell of a TSV text."""
    lines = text.splitlines()
    cols = lines[line].split("\t")
    cols[col] = repr(float(cols[col]) + delta)
    lines[line] = "\t".join(cols)
    return "\n".join(lines) + "\n"


def check_generator(tmp):
    a = gen.write_inputs(tmp / "a", 5, 60, 10)
    b = gen.write_inputs(tmp / "b", 5, 60, 10)
    c = gen.write_inputs(tmp / "c", 6, 60, 10)
    expect(a.files == b.files, "same seed gives identical inputs")
    expect(a.files != c.files, "another seed gives other inputs")
    counts = a.counts()
    expect(counts["exact"] + counts["approximate"] + counts["unmatched"] == len(a.year),
           "every valid row has one venue-name kind")
    expect(counts["approximate"] > 0 and counts["unmatched"] > 0 and counts["invalid_rows"] > 0,
           "approximate, unmatched and invalid rows are planted")


def check_rejections(r):
    """Corrupt copies of the first repetition's outputs; each check must fail."""
    c = r.checker
    cmd = {k.label: k for k in r.cmds}
    res = r.reps[0].results

    def rejects(label, path, edit):
        original = Path(path).read_text()
        rewrite(path, edit)
        try:
            errs = c.check(cmd[label], res[label])
        finally:
            Path(path).write_text(original)
        expect(errs, f"{label} check rejects a corrupted {Path(path).name}")
        expect(not c.check(cmd[label], res[label]), f"{label} check passes once restored")

    out = r.dir / "checked"
    rejects("ingest", out / "corpus/match_report.json",
            lambda t: t.replace('"exact": ', '"exact": 1'))
    # phi.tsv: 4 comment lines and a header, then row F001; column 1 is F001 itself
    rejects("fit_freq", out / "phi_freq/phi.tsv", lambda t: set_cell(t, 5, 2, 1e-9))
    rejects("fit_emb", out / "phi_emb/phi.tsv", lambda t: set_cell(t, 5, 1, 0.5))
    rejects("evaluate_0A", out / "eval_0A/auroc.tsv", lambda t: set_cell(t, 1, 4, 0.01))
    rejects("backbone_field", out / "bb_field/backbone.tsv",
            lambda t: "\n".join(t.splitlines()[1:]) + "\n")
    rejects("backbone_intermediate", out / "bb_intermediate/backbone.tsv",
            lambda t: "\n".join(t.splitlines()[1:]) + "\n")


def check_spec(root, r, traced_result):
    """BENCHMARK.json names exactly the workloads and metrics the runner emits."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json lists every workload")
    units = {k: v["unit"] for k, v in traced_result["metrics"].items()}
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == units,
           "BENCHMARK.json per_layer matches the traced result")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == {k: u for k, (_, u, _) in r.end_to_end().items()},
           "BENCHMARK.json end_to_end matches the untraced metrics")


def main():
    root = Path.cwd()
    tmp = root / ".bench_work" / "smoke"
    shutil.rmtree(tmp, ignore_errors=True)
    r = run.Run(root, "scientist-emb", 5, seconds=0, trace=True, scale=0.05)
    try:
        check_generator(tmp)
        r.execute()
        result = r.report()
        expect(result["correct"] and result["failed"] == 0, f"all checks pass: {r.errors[:3]}")
        names = {name for name, _ in run.PER_LAYER}
        expect(set(result["metrics"]) == names, "traced result holds every per-layer metric")
        expect(result["metrics"]["emb_model.sgd_steps"]["value"] > 0, "SGD steps counted")
        expect(result["metrics"]["corpus.match_venue.calls"]["value"] > 0, "venue matches counted")
        expect(len(r.untraced()) >= 1, "an untraced repetition ran next to the traced one")
        end_to_end = r.end_to_end()
        expect(all(v is not None and v > 0 for v, _, _ in end_to_end.values()),
               "every end-to-end metric is positive")
        check_spec(root, r, result)
        check_rejections(r)
    finally:
        shutil.rmtree(r.dir, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({k: round(v, 4) for k, (v, _, _) in end_to_end.items()}))
    print("smoke: ok")


if __name__ == "__main__":
    main()
