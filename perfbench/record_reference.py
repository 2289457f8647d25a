"""Record the output references the benchmark checks against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Run once, at the commit whose outputs define "correct", from the root of
the checkout.  For each workload and each workload seed 1..REF_SEEDS it
runs one pass at ``workers=1`` and stores the observations and counts the
benchmark compares (minus the workload's ``unpinned`` keys, which are
checked only between passes of one run).  ``theory-battery`` does not
depend on the seed; it is recorded for two seeds, required to agree, and
stored once under ``"any"``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import bootstrap


def strip(d: dict, unpinned) -> dict:
    return {k: v for k, v in d.items() if k not in unpinned}


def record(wl, seed: int, out_dir) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    state = wl.setup(seed)
    outcome = wl.observe(state, out_dir, wl.run_pass(state, out_dir, 1))
    bad = {op: o for op, o in outcome.ops.items() if isinstance(o, str)}
    if bad:
        raise RuntimeError(f"{wl.name} seed {seed}: {bad}")
    return {"ops": {op: strip(o, wl.unpinned)
                    for op, o in outcome.ops.items()},
            "counts": strip(outcome.counts, wl.unpinned)}


def main(argv=None) -> int:
    bootstrap.prepare()
    import workloads
    from run import OUT, git_sha

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", default=list(workloads.WORKLOADS),
                   choices=list(workloads.WORKLOADS))
    args = p.parse_args(argv)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        wl = workloads.WORKLOADS[name]()
        out_dir = OUT / "reference" / name
        if name == "theory-battery":
            a, b = (record(wl, s, out_dir) for s in (1, 2))
            if a != b:
                raise RuntimeError("theory-battery output depends on seed")
            seeds = {"any": a}
        else:
            seeds = {}
            for s in range(1, workloads.REF_SEEDS + 1):
                seeds[str(s)] = record(wl, s, out_dir)
                print(f"{name} seed {s} recorded", flush=True)
        doc = {"workload": name, "recorded_at": git_sha(),
               "rel_tol": workloads.REL_TOL, "seeds": seeds}
        workloads.reference_path(name).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {workloads.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
