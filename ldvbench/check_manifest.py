"""Validate BENCHMARK.json against the benchmark manifest contract.

Usage: python3 ldvbench/check_manifest.py [BENCHMARK.json]

Exits non-zero and lists every violation found: the exact key sets, the
name, unit and path alphabets, the length limits, the counts of
workloads and metrics, the bounds, and the required set-up metric.
"""

import json
import os
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check(manifest_path):
    errors = []

    def err(msg):
        errors.append(msg)

    if os.path.getsize(manifest_path) > 64 * 1024:
        err("file larger than 64 KiB")
    with open(manifest_path) as f:
        m = json.load(f)
    if set(m) != TOP_KEYS:
        err(f"top-level keys {sorted(m)} != {sorted(TOP_KEYS)}")
        return errors

    paths = m["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        err("paths: 1 to 16 entries")
    for p in paths:
        if not (isinstance(p, str) and PATH.match(p)) or p.startswith("/") or ".." in p.split("/"):
            err(f"paths: bad path {p!r}")
        elif not os.path.isdir(os.path.join(os.path.dirname(os.path.abspath(manifest_path)), p)):
            err(f"paths: {p!r} is not a directory")

    cmd = m["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32):
        err("command: 1 to 32 strings")
    for c in cmd:
        if not (isinstance(c, str) and len(c) <= 200):
            err(f"command: bad argument {c!r}")
        elif c.startswith("/") or ".." in c.split("/"):
            err(f"command: absolute or escaping path {c!r}")
        elif "/" in c and not any(c == p or c.startswith(p.rstrip("/") + "/") for p in paths):
            err(f"command: {c!r} lies outside paths")

    rs = m["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        err("run_seconds: whole number from 1 to 60")

    names = []
    wl = m["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        err("workloads: 2 to 8")
    for w in wl:
        if set(w) != {"name", "why"}:
            err(f"workload keys {sorted(w)}")
            continue
        names.append(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            err(f"workload {w['name']!r}: why must be one line of at most 200 characters")

    def metrics(key, lo, hi, keys):
        ms = m[key]
        if not (isinstance(ms, list) and lo <= len(ms) <= hi):
            err(f"{key}: {lo} to {hi} metrics")
            return []
        for x in ms:
            if set(x) != keys:
                err(f"{key}: metric keys {sorted(x)} != {sorted(keys)}")
                continue
            names.append(x["name"])
            if not (isinstance(x["unit"], str) and UNIT.match(x["unit"])):
                err(f"{key}: bad unit {x['unit']!r} of {x['name']!r}")
            if x["better"] not in ("higher", "lower"):
                err(f"{key}: better must be higher or lower ({x['name']!r})")
        return ms

    e2e = metrics("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    metrics("per_layer", 1, 128, {"name", "unit", "better"})
    for x in e2e:
        b = x.get("bound")
        if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
            err(f"end_to_end: bound of {x.get('name')!r} must be in (0, 0.25]")
    setup = [x for x in e2e if x.get("name") == "setup_s"]
    if not (setup and setup[0].get("unit") == "s" and setup[0].get("better") == "lower"):
        err("end_to_end: setup_s with unit s and better lower is required")
    elif any(x.get("bound", 0) > setup[0]["bound"] for x in e2e):
        err("end_to_end: setup_s must have the largest bound")

    for n in names:
        if not (isinstance(n, str) and NAME.match(n)):
            err(f"bad name {n!r}")
    dups = sorted({n for n in names if names.count(n) > 1})
    if dups:
        err(f"names used more than once: {dups}")
    return errors


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCHMARK.json"
    errors = check(path)
    for e in errors:
        print(f"{path}: {e}", file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"{path}: ok")


if __name__ == "__main__":
    main()
