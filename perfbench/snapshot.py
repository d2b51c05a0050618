"""Regenerate snapshot.json: the answer to every closed_form catalog query.

    python3 perfbench/snapshot.py

Run from the root of a checkout.  Each query is sent exactly as the
closed_form workload sends it; a query that fails is stored as its
exception class, so later runs can tell failures known at the snapshot's
commit from new ones.  The snapshot pins the answers of the commit it was
taken at; regenerate it only on purpose.
"""

import json
import random
import sys

import run
from workloads import SNAPSHOT_PATH, ClosedForm


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pkg, specs, _ = run.set_up(ClosedForm)
    workload = ClosedForm(pkg, specs, random.Random(0), snapshot={})
    answers = {}
    for op in workload.catalog_ops():
        try:
            result = workload.execute(op)
        except Exception as exc:  # the failure class is the recorded answer
            answers[op.key] = {"error": type(exc).__name__}
        else:
            answers[op.key] = list(result) if isinstance(result, tuple) else result
    doc = {"package_commit": run.package_commit(), "answers": answers}
    with open(SNAPSHOT_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=0, sort_keys=True)
        handle.write("\n")
    failed = sum(isinstance(v, dict) for v in answers.values())
    print(f"{len(answers)} answers ({failed} failures) written to {SNAPSHOT_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
