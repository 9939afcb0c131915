#!/usr/bin/env python3
"""Where does a ladder workload's CPU go: inside ``_native.so``, and in which Python code?
Usage: python tools/stacksample.py figures64_native [--repo DIR] [--seed 42] [--hz 250] [--repeats 3]
cProfile sees ``Core.run`` as one row; this samples the C stack (SIGPROF + glibc
``backtrace()``, a helper compiled on demand with gcc against this interpreter's
headers) over the workload's untraced repeats.  A sample goes to the innermost
``_native.so`` function on its stack (it plus the C-API work it asked for), or to
the bytecode loop if that is nearer, and under it to each libpython function on the
way.  A bytecode sample is also charged to the Python function whose frame was
executing: the handler reads the current frame's code object through
``process_vm_readv`` on this process, so a frame torn down mid-read is an EFAULT,
not a crash.  Samples with the cyclic collector (``gc_collect_main``) on the stack
are counted apart.  Linux, CPython 3.11-3.13, stdlib + ctypes.
"""
import argparse, bisect, collections, ctypes, os, subprocess, sys, sysconfig, tempfile

HELPER = r"""
#define Py_BUILD_CORE
#include <Python.h>
#include <internal/pycore_frame.h>
#include <execinfo.h>
#include <signal.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>
enum { MAX = 100000, DEPTH = 48, NAME = 96 };
static void *stacks[MAX][DEPTH]; static int depth[MAX]; static char names[MAX][NAME];
static volatile int n; static pid_t self;
/* copy ``len`` bytes at ``addr`` of this process; 0 when any of it is unmapped */
static int peek(const void *addr, void *out, size_t len) {
    struct iovec local = {out, len}, remote = {(void *)addr, len};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)len;
}
/* the ASCII text of a str object into out[0..room), or nothing */
static size_t text(PyObject *str, char *out, size_t room) {
    PyASCIIObject head; size_t len;
    if (!peek(str, &head, sizeof head) || !head.state.compact || !head.state.ascii) return 0;
    len = (size_t)head.length < room ? (size_t)head.length : room;
    return peek((PyASCIIObject *)str + 1, out, len) ? len : 0;
}
/* "qualname file.py" of the frame the interpreter is executing */
static void pyname(char *out) {
    PyThreadState *ts; _PyInterpreterFrame *frame; PyCodeObject *code;
    PyObject *qualname, *filename; char path[256]; size_t len, plen, cut;
#if PY_VERSION_HEX >= 0x030D0000
    ts = PyThreadState_GetUnchecked();
    if (ts == NULL || !peek(&ts->current_frame, &frame, sizeof frame)) return;
    if (frame == NULL || !peek(&frame->f_executable, &code, sizeof code)) return;
#else
    _PyCFrame *cframe;
    ts = _PyThreadState_UncheckedGet();
    if (ts == NULL || !peek(&ts->cframe, &cframe, sizeof cframe) ||
        !peek(&cframe->current_frame, &frame, sizeof frame)) return;
    if (frame == NULL || !peek(&frame->f_code, &code, sizeof code)) return;
#endif
    if (!peek(&code->co_qualname, &qualname, sizeof qualname) ||
        !peek(&code->co_filename, &filename, sizeof filename)) return;
    len = text(qualname, out, NAME / 2);
    plen = text(filename, path, sizeof path);
    for (cut = plen; cut > 0 && path[cut - 1] != '/'; cut--) {}
    if (len == 0 || plen - cut + 2 > NAME - len) { out[len] = 0; return; }
    out[len++] = ' ';
    memcpy(out + len, path + cut, plen - cut);
    out[len + plen - cut] = 0;
}
static void tick(int s) {
    if (n < MAX) { depth[n] = backtrace(stacks[n], DEPTH); names[n][0] = 0; pyname(names[n]); n++; }
}
static void arm(long usec) { struct itimerval t = {{0, usec}, {0, usec}}; setitimer(ITIMER_PROF, &t, 0); }
void start(int hz) {
    struct sigaction sa; void *warm[2];
    backtrace(warm, 2);  /* loads the unwinder outside the handler */
    self = getpid();
    memset(&sa, 0, sizeof sa); sa.sa_handler = tick; sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, 0); arm(1000000 / hz);
}
int stop(void) { arm(0); return n; }  int stack(int i, void **out) { memcpy(out, stacks[i], sizeof stacks[i]); return depth[i]; }
const char *name(int i) { return names[i]; }
"""
BYTECODE = "(Python bytecode)"


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
    include = sysconfig.get_paths()["include"]
    subprocess.run(["gcc", "-O1", "-shared", "-fPIC", "-I" + include, "-I" + include + "/internal",
                    "-o", tmp + "/h.so", tmp + "/h.c"], check=True)
    lib = ctypes.CDLL(tmp + "/h.so")
    lib.stack.argtypes = [ctypes.c_int, ctypes.POINTER(ctypes.c_void_p)]
    lib.name.restype = ctypes.c_char_p
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
    python, collecting = collections.Counter(), 0
    for i in range(total):
        symbols = []  # (name, in _native.so?), innermost first
        for pc in buf[2:lib.stack(i, buf)]:  # [0:2] are the handler's own frames
            for lo, hi, bias, is_native, (addrs, names) in maps:
                if lo <= (pc or 0) < hi:
                    symbols.append((names[max(0, bisect.bisect_right(addrs, pc - bias) - 1)], is_native))
        owner, passed = None, set()
        for name, is_native in symbols:
            passed.add(name)
            if is_native or name == "_PyEval_EvalFrameDefault":
                # the extension function, or the bytecode loop when that is nearer
                owner = name if is_native else BYTECODE
                break
        owners[owner or "(elsewhere)"] += 1
        under.update((owner, name) for name in passed if name != owner)
        if owner == BYTECODE:
            python[lib.name(i).decode() or "(frame unreadable)"] += 1
        collecting += any(name == "gc_collect_main" for name, _ in symbols)
    print(f"{args.workload} seed {args.seed}: {total} samples at {args.hz} Hz, {args.repeats} repeats")
    for owner, count in owners.most_common(12):
        inner = [f"{n} {100 * c / total:.1f}" for (o, n), c in under.most_common() if o == owner][:5]
        print(f"  {100 * count / total:5.1f} %  {owner}" + (f"  (through: {', '.join(inner)})" if inner else ""))
    print("  bytecode samples by the Python function executing:")
    for name, count in python.most_common(15):
        print(f"  {100 * count / total:5.1f} %    {name}")
    print(f"  cyclic collector (gc_collect_main) on the stack: {100 * collecting / total:.1f} %")


if __name__ == "__main__":
    main()
