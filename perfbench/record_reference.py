"""Record the reference outputs that every benchmark pass is checked against.

Run from the root of a checkout, at the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

It runs every workload once per seed base and writes the sha256, the parsed
rows and ``summary.passed`` of each job to ``perfbench/reference.json.gz``.
Re-record only when a change to the outputs is intended, and name the drift.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import bench
import run


def main():
    cli = run.import_cli()
    out_dir = run.ROOT / ".perfbench_tmp" / "record"
    reference = {}
    try:
        for workload in bench.WORKLOADS:
            reference[workload] = {}
            for seed_base in range(bench.SEED_BASES):
                docs = bench.job_docs(run.ROOT, workload, seed_base, out_dir)
                wall, _, errors = bench.run_pass(cli, docs)
                if errors:
                    for tb in errors.values():
                        print(tb, file=sys.stderr)
                    return 1
                reference[workload][str(seed_base)] = {
                    doc["experiment"]: bench.record(*bench.read_job(doc["output_dir"]))
                    for doc in docs}
                print(f"{workload} seed_base={seed_base}: {wall:.2f} s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with gzip.GzipFile(bench.REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True).encode())
    print(f"wrote {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
