#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that a planted wrong expected answer is counted as a failed item,
that every workload prints exactly the metrics BENCHMARK.json declares (with
--trace 0 and 1) under well-formed names, and that in a directory holding only
BENCHMARK.json and bench/ the benchmark fails without printing a result.
Takes a minute or two.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def planted_wrong_profile() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    wl = workloads.Homology(0)
    wl.items = [r for r in wl.items if r.name in ("s2", "rp2")]
    if wl.run_pass().failures:
        return ["the unplanted rungs failed"]
    s2 = next(r for r in wl.items if r.name == "s2")
    s2.expected = ((1, 0, 0, 1), ((),) * 4)  # the answer for S^3, not S^2
    failed_frac = len(wl.run_pass().failures) / len(wl.items)
    return [] if failed_frac > 0 else ["a planted wrong profile left failed_frac at 0"]


def declared_metrics_printed() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    problems += [f"malformed name {n!r}" for n in names if not NAME.fullmatch(n)]
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(ROOT, workload["name"], trace)
            tag = f"{workload['name']} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{tag}: exit {out.returncode}: {out.stderr.strip()[-300:]}")
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[key]}
            if printed != declared:
                problems.append(f"{tag}: printed metrics differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} items failed")
    return problems


def bare_directory_fails() -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(Path(tmp), "suite", 0)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["without the library sources the benchmark did not fail cleanly"]
    return []


def main() -> int:
    problems = planted_wrong_profile() + declared_metrics_printed() + bare_directory_fails()
    for p in problems:
        print(f"FAIL: {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
