"""Write golden/cli-mix.json: every seed-0 cli-mix --json record.

    python3 perfbench/capture_golden.py

Run it only at a commit whose records are the contract (records must stay
byte-identical across changes). A record is kept only when its job passes
its reference check; the listed seed defects get no golden copy.
"""

import json
import sys
import warnings

import run


def main():
    workloads = run.import_workloads()
    warnings.simplefilter("ignore")
    with run.workdir() as wd:
        jobs = workloads.build("cli-mix", 0, wd)
        golden, problems = {}, []
        for job in jobs:
            raw = job.run()
            _, problem = job.inspect(raw)
            if job.known_wrong:
                continue
            if problem is not None:
                problems.append(f"{job.id}: {problem}")
            golden[job.id] = raw[1]
    if problems:
        print("nothing written; wrong answers:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} records to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
