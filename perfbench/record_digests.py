"""Re-record ``digests.json``: every workload's per-operation output
digests for seed 1 and the held-out seed 2.

Run from the repository root, only when a change is meant to alter the
simulated results::

    python3 perfbench/record_digests.py
"""

import json
import sys

import harness
import run

SEEDS = (1, 2)


def main():
    run.import_repro()
    digests = {}
    for name, workload in sorted(harness.WORKLOADS.items()):
        for seed in SEEDS:
            _, output = run.one_pass(workload, seed)
            bad = workload.sanity(output)
            if bad:
                raise SystemExit("{} seed {}: sanity failed for {}".format(
                    name, seed, ", ".join(bad)
                ))
            digests.setdefault(name, {})[str(seed)] = {
                key: harness.digest(record)
                for key, (_, record) in sorted(output.records.items())
            }
            print("{} seed {}: {} operation(s)".format(
                name, seed, len(output.records)
            ))
    run.DIGESTS.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
