"""Run one workload over several seeds and print each end-to-end
metric's median and quartile spread (IQR / median).

    python3 perfbench/spread.py WORKLOAD SEED... [--seconds S]
"""
import json, statistics, subprocess, sys, time

args = sys.argv[1:]
seconds = "10"
if "--seconds" in args:
    i = args.index("--seconds")
    seconds = args[i + 1]
    del args[i:i + 2]
workload, seeds = args[0], args[1:]
runs = []
walls = []
for seed in seeds:
    t0 = time.monotonic()
    out = subprocess.run(["sh", "perfbench/run.sh", "--workload", workload, "--seed", seed,
                          "--seconds", seconds, "--trace", "0"], capture_output=True, text=True)
    walls.append(time.monotonic() - t0)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
    res = json.loads(last) if last.startswith("{") else {}
    if out.returncode != 0 or not res.get("correct"):
        print("seed", seed, "FAILED rc", out.returncode, out.stderr[-2000:])
    runs.append(res.get("metrics", {}))
names = sorted({n for r in runs for n in r})
for n in names:
    vals = [r[n]["value"] for r in runs if n in r]
    if len(vals) < 2:
        continue
    q = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    spread = (q[2] - q[0]) / med if med else float("inf")
    print(f"{n:20s} median={med:14.4f} spread={spread:6.3f}  " + " ".join(f"{v:.4g}" for v in vals))
print("run wall seconds: " + " ".join(f"{w:.1f}" for w in walls))
