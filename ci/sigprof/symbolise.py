#!/usr/bin/env python3
"""Turns sigprof sample files into three tables of function names.

    symbolise.py <executable> <PROF_OUT.pid>... [--top N] [--under NAME]

Every address is resolved with `addr2line -f -i -C -a`, which lists the
inlined functions at an address from the innermost out, ending with the
physical function that holds the instruction. The tables count samples by:

  leaf inlined   the innermost function at the interrupted instruction
                 (where the CPU was, as the source reads);
  leaf physical  the outermost function at that instruction (where it was,
                 as the symbol table reads);
  inclusive      every function, inlined or not, on any of the sample's
                 frames, once a sample.

Return addresses are looked up one byte back, inside the call instruction.
`--under NAME` keeps only samples with a frame whose function contains NAME
and reports shares of those. Frames outside the executable (libc, the vDSO)
resolve to `??` and are listed as such.
"""
import argparse
import collections
import subprocess
import sys


def read_samples(paths):
    samples = []
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.startswith("#") or not line.strip():
                    continue
                samples.append([int(word, 16) for word in line.split()])
    return samples


def resolve(exe, addresses):
    """address -> function names, innermost first."""
    addresses = sorted(addresses)
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", exe],
        input="".join(f"{a:#x}\n" for a in addresses),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    names, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = names.setdefault(int(out[i], 16), [])
            i += 1
        else:
            current.append(out[i])  # the function; out[i + 1] is file:line
            i += 2
    return names


def table(title, counts, total, top):
    print(f"\n{title} ({total} samples)")
    for name, n in counts.most_common(top):
        print(f"  {100.0 * n / total:6.2f} %  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("exe")
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--under", default=None)
    args = ap.parse_args()

    samples = read_samples(args.profiles)
    if not samples:
        sys.exit("no samples (was PROF_OUT set, and did the process exit normally?)")
    lookups = set()
    for stack in samples:
        lookups.add(stack[0])
        lookups.update(max(ret - 1, 0) for ret in stack[1:])
    names = resolve(args.exe, lookups)

    leaf_inlined = collections.Counter()
    leaf_physical = collections.Counter()
    inclusive = collections.Counter()
    kept = 0
    for stack in samples:
        frames = [names.get(stack[0], ["??"])]
        frames += [names.get(max(ret - 1, 0), ["??"]) for ret in stack[1:]]
        on_stack = {fn for frame in frames for fn in frame}
        if args.under and not any(args.under in fn for fn in on_stack):
            continue
        kept += 1
        leaf_inlined[frames[0][0]] += 1
        leaf_physical[frames[0][-1]] += 1
        inclusive.update(on_stack)
    if not kept:
        sys.exit(f"no sample has a frame matching {args.under!r}")
    scope = f" under {args.under!r}" if args.under else ""
    table(f"leaf, inlined function{scope}", leaf_inlined, kept, args.top)
    table(f"leaf, physical function{scope}", leaf_physical, kept, args.top)
    table(f"inclusive{scope}", inclusive, kept, args.top)


if __name__ == "__main__":
    main()
