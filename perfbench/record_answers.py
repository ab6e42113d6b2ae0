"""Write perfbench/answers.json: one answer record per catalog entry.

    python3 perfbench/record_answers.py

Run it on the commit whose answers are the reference (the records in the
repository were made on the seed commit).  Each operation must pass the
identity checks of the gate before its record is stored; the command
fails otherwise.  Records keep only fields that do not depend on how
maps are stored (see workloads.ANSWER_FIELDS).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import workloads as wl  # noqa: E402


def record(workload, workdir) -> dict:
    facts = wl.bounds_setup(workdir) if workload == "bounds" else None
    out = {}
    for spec in wl.catalog(workload):
        if workload == "corpus":
            ans = wl.corpus_op(spec)
            problems = wl.check_corpus(spec, ans)
        elif workload == "covers":
            ans = wl.covers_op(spec)
            if ans is None:
                continue
            problems = wl.check_covers(spec, ans)
        else:
            ans = wl.bounds_op(spec, workdir)
            problems = wl.check_bounds(spec, ans, facts)
        if problems:
            raise SystemExit(f"{spec['key']}: {problems}")
        out[spec["key"]] = wl.answer_record(workload, ans)
        print(spec["key"], out[spec["key"]], flush=True)
    return out


def main():
    workdir = os.path.join(BENCH_DIR, "out", "record.work")
    os.makedirs(workdir, exist_ok=True)
    try:
        answers = {w: record(w, workdir) for w in wl.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(BENCH_DIR, "answers.json"), "w") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
