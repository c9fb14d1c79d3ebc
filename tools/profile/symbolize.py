#!/usr/bin/env python3
"""Turn the sampler's dumps into self and inclusive shares per function.

    python3 tools/profile/symbolize.py sampler.*.txt
    FILTER=Service::run_tick python3 tools/profile/symbolize.py sampler.*.txt

Reads the sampler.<pid>.txt files tools/profile/sampler.c writes, maps
every address through its process's /proc/self/maps and the module's LOAD
segments (objdump -p), and names it with the nearest preceding symbol
(nm -C; modules without a symbol table fall back to their dynamic symbols,
so frames inside libc name only its exported functions). Rust hash
suffixes are dropped.

Prints the top functions by self share (the innermost frame) and by
inclusive share (anywhere on the stack, once per sample). With FILTER set,
only samples with a frame whose name contains FILTER count, and shares are
of those samples.

Symbols are read from the file at each module's path when symbolizing,
so that file must be the one that was sampled: a module whose device and
inode in the dump's maps differ from the file's (a binary rebuilt after
sampling) would name every frame in it wrongly. The symbolizer then exits
non-zero naming the module, and prints no shares.
"""

import bisect
import collections
import functools
import os
import re
import subprocess
import sys

TOP = 40
RUST_HASH = re.compile(r"::h[0-9a-f]{16}$")


def load_segments(path):
    """(file offset, vaddr, file size) of each LOAD segment."""
    out = subprocess.run(["objdump", "-p", path], capture_output=True, text=True).stdout
    segments = []
    for m in re.finditer(r"LOAD off\s+0x([0-9a-f]+) vaddr 0x([0-9a-f]+).*\n\s+filesz 0x([0-9a-f]+)", out):
        segments.append(tuple(int(x, 16) for x in m.groups()))
    return segments


def load_symbols(path):
    """Sorted (vaddr, name) of the module's code symbols."""
    def nm(*flags):
        out = subprocess.run(["nm", "-C", "-n", "--defined-only", *flags, path],
                             capture_output=True, text=True).stdout
        symbols = []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "TtWwi":
                symbols.append((int(parts[0], 16), RUST_HASH.sub("", parts[2])))
        return symbols
    return nm() or nm("-D")


class Module:
    def __init__(self, path):
        self.path = path
        self.segments = load_segments(path)
        self.symbols = load_symbols(path)
        self.addrs = [a for a, _ in self.symbols]

    def name(self, file_offset):
        vaddr = file_offset
        for off, seg_vaddr, size in self.segments:
            if off <= file_offset < off + size:
                vaddr = file_offset - off + seg_vaddr
                break
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i < 0:
            return "?? (%s)" % os.path.basename(self.path)
        return self.symbols[i][1]


MODULES = {}


def module(path):
    if path not in MODULES:
        MODULES[path] = Module(path)
    return MODULES[path]


@functools.lru_cache(maxsize=None)
def check_identity(dump, path, dev, inode):
    """Exit naming `path` unless it is still the file `dump` sampled."""
    try:
        st = os.stat(path)
        now = (os.major(st.st_dev), os.minor(st.st_dev), st.st_ino)
    except OSError as e:
        sys.exit("%s: module %s is gone since sampling (%s)" % (dump, path, e.strerror))
    if now != (*dev, inode):
        sys.exit("%s: module %s was replaced after sampling (sampled device %x:%x "
                 "inode %d, now device %x:%x inode %d); its frames would be misnamed"
                 % ((dump, path) + dev + (inode,) + now))


def read_dump(path):
    """The mappings and the stacks (as function names) of one dump."""
    maps, stacks, dropped = [], [], 0
    with open(path) as f:
        lines = f.read().splitlines()
    section = None
    for line in lines:
        if line == "maps":
            section = "maps"
            continue
        if line.startswith("samples dropped "):
            dropped = int(line.split()[-1])
            section = "samples"
            continue
        if section == "maps":
            fields = line.split()
            if len(fields) >= 6 and "x" in fields[1] and fields[5][0] in "/[":
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                dev = tuple(int(x, 16) for x in fields[3].split(":"))
                maps.append((lo, hi, int(fields[2], 16), fields[5], dev, int(fields[4])))
        elif section == "samples" and line:
            stacks.append([int(x, 16) for x in line.split()])
    maps.sort()
    starts = [lo for lo, *_ in maps]
    cache = {}

    def name(addr):
        if addr not in cache:
            i = bisect.bisect_right(starts, addr) - 1
            if i >= 0 and addr < maps[i][1]:
                lo, _, offset, mod, dev, inode = maps[i]
                # [vdso] and the like: no file to read symbols from.
                if mod.startswith("["):
                    named = mod
                else:
                    check_identity(path, mod, dev, inode)
                    named = module(mod).name(addr - lo + offset)
                cache[addr] = named
            else:
                cache[addr] = "??"
        return cache[addr]

    # Frames past the first are return addresses: look up the call itself.
    named = [[name(a if i == 0 else a - 1) for i, a in enumerate(s)] for s in stacks]
    return named, dropped


def main(paths):
    if not paths:
        sys.exit(__doc__)
    wanted = os.environ.get("FILTER")
    stacks, dropped = [], 0
    for path in paths:
        named, lost = read_dump(path)
        stacks.extend(named)
        dropped += lost
    if wanted:
        stacks = [s for s in stacks if any(wanted in f for f in s)]
    total = len(stacks)
    print("%d samples%s, %d dropped" % (total, " under %r" % wanted if wanted else "", dropped))
    if not total:
        return
    own = collections.Counter(s[0] for s in stacks)
    inclusive = collections.Counter(f for s in stacks for f in set(s))
    for title, counts in (("self", own), ("inclusive", inclusive)):
        print("\n%-9s  share  function" % title)
        for fn, n in counts.most_common(TOP):
            print("%9d  %5.1f%%  %s" % (n, 100.0 * n / total, fn))


if __name__ == "__main__":
    main(sys.argv[1:])
