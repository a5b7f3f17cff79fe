#!/usr/bin/env python3
"""Symbolise a scripts/prof/shim.c dump: flat by function, by crate per thread,
inclusive by function for the busiest thread, by source line.
Usage: symbolise.py PROF_OUT [top N, default 30]"""
import bisect, collections, functools, re, subprocess, sys

path, top = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 30
samples, maps = [], []  # (tid, [addr..]) ; (lo, hi, file offset, path)
for line in open(path):
    kind, rest = line[0], line[2:].split()
    if kind == "S":
        samples.append((rest[0], [int(a, 16) for a in rest[1:]]))
    elif len(rest) >= 6 and rest[5].startswith("/"):
        lo, hi = (int(x, 16) for x in rest[0].split("-"))
        maps.append((lo, hi, int(rest[2], 16), rest[5]))
if not samples:
    sys.exit("no samples in " + path)

symtabs = {}  # path -> (sorted symbol starts, names)


def symtab(obj):
    if obj not in symtabs:
        out = subprocess.run(["nm", "-C", "--defined-only", obj], capture_output=True, text=True).stdout
        if not out.strip():  # stripped shared object: its dynamic symbols are what there is
            out = subprocess.run(["nm", "-DC", "--defined-only", obj], capture_output=True, text=True).stdout
        syms = sorted(
            (int(p[0], 16), p[2])
            for p in (l.split(None, 2) for l in out.splitlines())
            if len(p) == 3 and p[1] in "tTwW"
        )
        symtabs[obj] = ([s[0] for s in syms], [s[1].strip() for s in syms])
    return symtabs[obj]


bias = {}  # object path -> load bias: where its file offset 0 is mapped
for lo, _, off, obj in maps:
    bias[obj] = min(bias.get(obj, lo - off), lo - off)


def locate(addr):
    """(object path, address inside the object file) or None."""
    for lo, hi, _, obj in maps:
        if lo <= addr < hi:
            return obj, addr - bias[obj]
    return None


@functools.lru_cache(maxsize=None)
def function(addr):
    where = locate(addr)
    if not where:
        return "[unmapped]", None
    starts, names = symtab(where[0])
    i = bisect.bisect_right(starts, where[1]) - 1
    return (names[i] if i >= 0 else "[" + where[0].rsplit("/", 1)[-1] + "]"), where


def crate_of(name, where):
    if where and "libc" in where[0]:
        for call in ("send", "recv", "poll"):
            if re.search(r"\b_*(libc_)?" + call + r"\b", name):
                return "libc:" + call
        return "libc:other"
    m = re.match(r"<?&?(?:mut )?(?:dyn )?([a-z_][a-z0-9_]*)::", name)
    return m.group(1) if m else "[other]"


def table(title, counts, total):
    print(f"\n== {title} ({total} samples) ==")
    for key, n in counts.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {key}")


RUNTIME = ("core", "alloc", "std", "hashbrown", "libc:other", "__rustc", "[other]")
flat, by_crate, leaves = collections.Counter(), collections.Counter(), collections.Counter()
for tid, stack in samples:
    name, where = function(stack[0])
    flat[name] += 1
    crate = crate_of(name, where)
    # Allocator, memcpy, hashing and formatting time belongs to whoever called
    # it: charge a runtime leaf to the nearest caller on the walked stack that
    # is not runtime code, when the walk found one.
    callers = (crate_of(*function(a)) for a in stack[1:])
    owner = crate if crate not in RUNTIME else next((c for c in callers if c not in RUNTIME), crate)
    by_crate[(tid, owner)] += 1
    if where:
        leaves[where] += 1
table("flat by function (libc is stripped: names other than send/recv/poll are the nearest exported symbol)", flat, len(samples))
threads = collections.Counter(tid for tid, _ in samples)
for tid, n in threads.most_common():
    if n * 50 >= len(samples):  # threads under 2 % of the samples are set-up noise
        table(f"thread {tid} by crate", collections.Counter({c: k for (t, c), k in by_crate.items() if t == tid}), n)

# Inclusive, busiest thread: a function counts once per sample whose walked
# stack contains it (recursion counted once), so a caller shows what it costs
# with everything it calls. Percentages are of all samples, like the flat table.
busiest = threads.most_common(1)[0][0]
inclusive = collections.Counter()
for tid, stack in samples:
    if tid == busiest:
        inclusive.update({function(a)[0] for a in stack})
table(f"thread {busiest} inclusive by function (of all samples)", inclusive, len(samples))

# By source line: the innermost inlined frame that is this repository's code
# (a sample inside an inlined `Vec::push` counts for the line that pushed).
lines = collections.Counter()
by_obj = collections.defaultdict(list)
for (obj, off), n in leaves.items():
    if "libc" not in obj and not obj.endswith(".so"):
        by_obj[obj].append((off, n))
ours = re.compile(r".*?/((?:crates|benchmark|third_party)/.*)")
for obj, offs in by_obj.items():
    cmd = ["addr2line", "-a", "-i", "-e", obj] + [hex(o) for o, _ in offs]
    frames = subprocess.run(cmd, capture_output=True, text=True).stdout.split("\n0x")
    for (_, n), chunk in zip(offs, frames):
        locs = chunk.splitlines()[1:]
        mine = [m.group(1) for m in map(ours.match, locs) if m and "/rustc/" not in m.group(0)]
        loc = (mine or locs or ["??"])[0].split(" (discriminator")[0]
        lines[re.sub(r"^/rustc/[0-9a-f]+/", "rustc/", loc)] += n
table("by source line", lines, len(samples))
