"""Re-record the benchmark's stored expectations.

Writes perfbench/cli_pool.json (the cli-requests pool with the canonical
answers of the current code) and perfbench/fingerprints.json (the traffic
fingerprint of each harness workload).  Run it from the repository root,
only in a change that redefines the benchmark:

    python3 perfbench/record.py
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cli_pool  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20260317


def main():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        path = os.path.join(tmp, "doc.json")

        def request(cmd, argv, doc):
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return workloads.run_request([cmd, "--input", path] + argv)

        pool, refused = cli_pool.make_pool(POOL_SEED, request)
    with open(os.path.join(HERE, "cli_pool.json"), "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in pool) + "\n]\n")
    prints = {name: workloads.harness_traffic(cfg) for name, cfg in workloads.HARNESS_CONFIGS.items()}
    with open(os.path.join(HERE, "fingerprints.json"), "w") as fh:
        json.dump(prints, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(pool)} pool requests; refused and left out: {refused}; fingerprints {prints}")


if __name__ == "__main__":
    main()
