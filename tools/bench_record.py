"""Record a benchmark comparison of two commits as one JSON file.

    python3 tools/bench_record.py BEFORE AFTER OUT

BEFORE and AFTER are directories (or single files) of `*.result.json`
written by perfbench/run.py, as for perfbench/compare.py.  For each
workload and each end-to-end metric of BENCHMARK.json, OUT gets both
sides' medians and quartiles, the pairs AFTER won (runs paired by seed,
or by rank of seed when no seed is on both sides) and compare.py's
verdict, with the git SHA and the `src/` line count each side's runs
recorded.  Only untraced runs count for these.  Where both sides also
have traced runs (--trace 1) of a workload, its `traced` rows give each
per-layer metric either side reads nonzero as the two medians, the
lines compare.py prints for them.  The statistics are compare.py's own
functions.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from compare import load, quartiles, verdict  # noqa: E402


def _meta(runs) -> dict:
    """The distinct git SHAs and src/ line counts the runs recorded."""
    return {key: sorted({r["meta"][key] for by_seed in runs.values()
                         for r in by_seed.values()})
            for key in ("git_sha", "src_lines")}


def _side(values) -> dict:
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values)}


def _traced(bench: dict, b_runs: dict, a_runs: dict) -> dict:
    """The per-layer medians of two sides' traced runs, nonzero rows only."""
    rows = {}
    for layer in bench["per_layer"]:
        name = layer["name"]
        mb = statistics.median(r["metrics"][name]["value"] for r in b_runs.values())
        ma = statistics.median(r["metrics"][name]["value"] for r in a_runs.values())
        if mb or ma:
            rows[name] = {"unit": layer["unit"], "before": mb, "after": ma,
                          "runs": [len(b_runs), len(a_runs)]}
    return rows


def record(before_path: str, after_path: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    before, after = load(before_path), load(after_path)
    out = {"before": _meta(before), "after": _meta(after), "workloads": {}}
    untraced = {w for (w, t) in before if t == 0} & {w for (w, t) in after if t == 0}
    for w in sorted(untraced):
        b_runs, a_runs = before[(w, 0)], after[(w, 0)]
        common = sorted(set(b_runs) & set(a_runs))
        seeds = ([(s, s) for s in common] if common
                 else list(zip(sorted(b_runs), sorted(a_runs))))
        metrics = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            av = [r["metrics"][name]["value"] for r in a_runs.values()]
            pairs = [(b_runs[sb]["metrics"][name]["value"],
                      a_runs[sa]["metrics"][name]["value"]) for sb, sa in seeds]
            v, won = verdict(bv, av, pairs, m["bound"], m["better"] == "higher")
            metrics[name] = {"unit": m["unit"], "better": m["better"],
                             "bound": m["bound"], "before": _side(bv),
                             "after": _side(av), "won": won, "pairs": len(pairs),
                             "verdict": v}
        out["workloads"][w] = {
            "seeds": seeds,
            "failed": {"before": sum(r["failed"] for r in b_runs.values()),
                       "after": sum(r["failed"] for r in a_runs.values())},
            "attempted": {"before": sum(r["attempted"] for r in b_runs.values()),
                          "after": sum(r["attempted"] for r in a_runs.values())},
            "metrics": metrics,
        }
        if (w, 1) in before and (w, 1) in after:
            out["workloads"][w]["traced"] = _traced(bench, before[(w, 1)], after[(w, 1)])
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        raise SystemExit(__doc__)
    with open(argv[2], "w") as fh:
        json.dump(record(argv[0], argv[1]), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
