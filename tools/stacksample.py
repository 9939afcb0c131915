#!/usr/bin/env python3
"""Where does a ladder workload's CPU go inside ``_native.so``?
Usage: python tools/stacksample.py hitstorm64 [--repo DIR] [--seed 42] [--hz 250]
cProfile sees ``Core.run`` as one row; this samples the C stack (SIGPROF +
glibc ``backtrace()``, a helper compiled on demand with gcc) over the workload's
untraced repeats.  A sample goes to the innermost ``_native.so`` function on its
stack (it plus the C-API work it asked for), or to the bytecode loop if that is
nearer, and under it to each libpython function on the way.  Linux, stdlib + ctypes.
"""
import argparse, bisect, collections, ctypes, os, subprocess, sys, tempfile

HELPER = r"""
#include <execinfo.h>
#include <signal.h>
#include <string.h>
#include <sys/time.h>
enum { MAX = 100000, DEPTH = 48 };
static void *stacks[MAX][DEPTH]; static int depth[MAX]; static volatile int n;
static void tick(int s) { if (n < MAX) { depth[n] = backtrace(stacks[n], DEPTH); n++; } }
static void arm(long usec) { struct itimerval t = {{0, usec}, {0, usec}}; setitimer(ITIMER_PROF, &t, 0); }
void start(int hz) {
    struct sigaction sa; void *warm[2];
    backtrace(warm, 2);  /* loads the unwinder outside the handler */
    memset(&sa, 0, sizeof sa); sa.sa_handler = tick; sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, 0); arm(1000000 / hz);
}
int stop(void) { arm(0); return n; }  int stack(int i, void **out) { memcpy(out, stacks[i], sizeof stacks[i]); return depth[i]; }
"""

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    here = os.path.join(os.path.dirname(__file__), "..")
    for flag, default in (("--repo", here), ("--seed", 42), ("--hz", 250), ("--repeats", 3)):
        ap.add_argument(flag, type=type(default), default=default)
    args = ap.parse_args()
    sys.path[:0] = [os.path.join(os.path.abspath(args.repo), d) for d in ("src", "benchmarks/ladder")]
    from workloads import WORKLOADS
    tmp = tempfile.mkdtemp()
    with open(tmp + "/h.c", "w") as fh:
        fh.write(HELPER)
    subprocess.run(["gcc", "-O1", "-shared", "-fPIC", "-o", tmp + "/h.so", tmp + "/h.c"], check=True)
    lib = ctypes.CDLL(tmp + "/h.so")
    lib.stack.argtypes = [ctypes.c_int, ctypes.POINTER(ctypes.c_void_p)]
    workload = WORKLOADS[args.workload](args.seed, "full")
    workload.setup()
    lib.start(args.hz)
    for _ in range(args.repeats):
        workload.repeat()
    total, maps = lib.stop(), []  # maps: (start, end, load bias, native?, symbols) per text mapping
    workload.close()
    for f in map(str.split, open("/proc/self/maps")):
        if len(f) == 6 and "x" in f[1] and ("_native" in f[5] or "libpython" in f[5]):
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            nm = subprocess.run(["nm", "--defined-only", "-n", f[5]], capture_output=True, text=True)
            rows = [r for r in map(str.split, nm.stdout.splitlines()) if len(r) == 3 and r[1] in "tT"]
            table = [int(r[0], 16) for r in rows], [r[2].split(".")[0] for r in rows]
            maps.append((lo, hi, lo - int(f[2], 16), "_native" in f[5], table))
    owners, under, buf = collections.Counter(), collections.Counter(), (ctypes.c_void_p * 48)()
    for i in range(total):
        owner, passed = None, set()
        for pc in buf[2:lib.stack(i, buf)]:  # [0:2] are the handler's own frames
            for lo, hi, bias, is_native, (addrs, names) in maps:
                if lo <= (pc or 0) < hi:
                    name = names[max(0, bisect.bisect_right(addrs, pc - bias) - 1)]
                    if is_native or name == "_PyEval_EvalFrameDefault":
                        owner = name if is_native else "(Python bytecode)"
                    passed.add(name)
            if owner:  # the extension function, or the bytecode loop when that is nearer
                break
        owners[owner or "(elsewhere)"] += 1
        under.update((owner, name) for name in passed if name != owner)
    print(f"{args.workload} seed {args.seed}: {total} samples at {args.hz} Hz, {args.repeats} repeats")
    for owner, count in owners.most_common(12):
        inner = [f"{n} {100 * c / total:.1f}" for (o, n), c in under.most_common() if o == owner][:5]
        print(f"  {100 * count / total:5.1f} %  {owner}" + (f"  (through: {', '.join(inner)})" if inner else ""))


if __name__ == "__main__":
    main()
