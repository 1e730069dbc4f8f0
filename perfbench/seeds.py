#!/usr/bin/env python3
"""Checks (or records) the simulated metrics at the benchmark's default and
held-out seeds against perfbench/seeds.json: the `simulated {...}` line each
workload prints before its result line.

Simulated metrics are deterministic, so a change made only for speed must
reproduce them exactly at both seeds. Host metrics (cpu_s, setup_s,
peak_rss_mib) are not compared.

    python3 perfbench/seeds.py            # compare, exit 1 on any difference
    python3 perfbench/seeds.py --record   # rewrite seeds.json

Run from the repository root.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS_FILE = HERE / "seeds.json"
WORKLOADS = ["fig17", "fleet8_chaos", "fleet512_stream", "reveng"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def simulated(workload, seed):
    cmd = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", str(HERE / "Cargo.toml"), "--",
           "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    prefix = "simulated "
    line = next(l for l in out.splitlines() if l.startswith(prefix))
    return json.loads(line[len(prefix):])


def main():
    record = "--record" in sys.argv[1:]
    seeds = {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED}
    measured = {
        w: {role: simulated(w, seed) for role, seed in seeds.items()} for w in WORKLOADS
    }
    if record:
        SEEDS_FILE.write_text(json.dumps({"seeds": seeds, "simulated": measured}, indent=2) + "\n")
        print(f"wrote {SEEDS_FILE}")
        return 0
    recorded = json.loads(SEEDS_FILE.read_text())
    if recorded["seeds"] != seeds:
        print(f"seeds.json records seeds {recorded['seeds']}, this script uses {seeds}")
        return 1
    differences = [
        f"{w} {role} {name}: recorded {recorded['simulated'][w][role].get(name)}, now {value}"
        for w in WORKLOADS
        for role in seeds
        for name, value in measured[w][role].items()
        if recorded["simulated"][w][role].get(name) != value
    ]
    differences += [
        f"{w} {role} {name}: recorded but not reported"
        for w in WORKLOADS
        for role in seeds
        for name in recorded["simulated"][w][role]
        if name not in measured[w][role]
    ]
    for d in differences:
        print(d)
    print("simulated metrics identical at both seeds" if not differences else "DIFFERENT")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
