#!/usr/bin/env python3
"""Print the share of sampled program counters per symbol.

Usage: tools/profile_report.py PROFILE [--top N] [--modules]

PROFILE is a file written by `wfc verify --profile PROFILE`: a header with
the executable's path and load base, then one hexadecimal PC per line. Each
PC minus the load base is looked up in `nm -n --defined-only EXE`; the
sample is charged to the nearest symbol at or below it. OCaml symbols are
grouped by function (the `_NNN` stamp is dropped), or by OCaml module with
--modules.
"""
import argparse
import bisect
import collections
import re
import subprocess
import sys


def read_profile(path):
    header, pcs = {}, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("0x"):
                pcs.append(int(line, 16))
            else:
                key, _, val = line.partition(" ")
                header[key] = val
    return header, pcs


def symbols(exe):
    out = subprocess.run(
        ["nm", "-n", "--defined-only", exe], capture_output=True, text=True, check=True
    ).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


def function(name):
    return re.sub(r"_\d+$", "", name)


def module(name):
    m = re.match(r"(caml[A-Za-z0-9_]+?)\.", name)
    return m.group(1) if m else name


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--modules", action="store_true", help="group samples by OCaml module")
    args = ap.parse_args()
    header, pcs = read_profile(args.profile)
    if not pcs:
        sys.exit("%s: no samples" % args.profile)
    exe = header["exe"]
    base = int(header["load_base"], 16)
    addrs, names = symbols(exe)
    counts = collections.Counter()
    for pc in pcs:
        i = bisect.bisect_right(addrs, pc - base) - 1
        name = names[i] if i >= 0 else "?"
        key = module(name) if args.modules else function(name)
        counts[key] += 1
    total = len(pcs)
    print("%d samples (%s taken) from %s" % (total, header.get("taken", "?"), exe))
    for name, n in counts.most_common(args.top):
        print("%6.1f%%  %6d  %s" % (100.0 * n / total, n, name))


if __name__ == "__main__":
    main()
