#!/usr/bin/env python3
"""pmpr-lint: project-specific concurrency/discipline checks.

Enforces invariants that generic tools (clang-tidy, compiler warnings)
cannot express:

  atomic-order-comment      Every atomic access that names a non-seq_cst
                            memory order must carry an adjacent
                            ordering-rationale comment (trailing on the
                            same line, or a `//` comment within the three
                            preceding lines). This is the ws_deque.hpp
                            documentation discipline, made mandatory.

  raw-concurrency-type      std::mutex / std::thread / std::condition_variable
                            and friends may only appear under src/par/ (the
                            scheduler) or in src/util/thread_annotations.hpp
                            (the sanctioned annotated wrappers). Everything
                            else must use pmpr::Mutex / LockGuard / CondVar
                            so Clang's Thread Safety Analysis sees it.

  reinterpret-cast-outside-io
                            reinterpret_cast is confined to the binary-IO
                            translation units (edge_list.cpp, export.cpp).

  naked-new-delete          No `new` / `delete` expressions outside
                            ws_deque.hpp (whose lock-free buffer handoff
                            genuinely needs manual lifetime management) and
                            the obs/ registries (intentionally leaked so
                            pool workers can flush telemetry at exit).
                            `= delete`d functions are not flagged.

  simd-intrinsics-confined  Raw x86 vector intrinsics (_mm*() calls, the
                            __m128/__m256/__m512/__mmask types) and
                            __builtin_cpu_supports may only appear in the
                            src/pagerank/simd_* translation units. Those
                            files carry the per-file -mavx* compile flags
                            and the runtime-dispatch guards; an intrinsic
                            anywhere else either fails to build on baseline
                            x86-64 or, worse, builds under -march=native
                            and SIGILLs on older machines.

  mmap-syscall-confined     Raw memory-mapping / low-level file syscalls
                            (mmap, munmap, madvise, posix_madvise, mincore,
                            pread, pwrite, ::open, open64) may only appear
                            under src/io/ (the MmapFile wrapper). Everywhere
                            else must go through io::MmapFile so page
                            residency, advice hints, and error handling stay
                            in one audited place. Member `.open()` calls
                            (e.g. std::ifstream) are not flagged.

  proc-syscall-confined     Process-introspection primitives (/proc/self
                            paths, getrusage, mincore) are confined to
                            src/util/, src/io/, and src/obs/ — the memory
                            observability pillar's readers
                            (obs::current_rss_bytes, obs::peak_rss_bytes,
                            io::MmapFile::resident_bytes). Ad-hoc RSS
                            probes elsewhere fragment the cost model and
                            skip the platform normalisation those wrappers
                            own.

  raw-clock                 Direct steady_clock / system_clock /
                            high_resolution_clock ::now() calls are
                            confined to src/util/ (Timer/AccumTimer,
                            logging timestamps) and src/obs/ (the trace
                            epoch). Everything else must go through those
                            wrappers so timing stays mockable and the
                            telemetry cost model holds. The same rule
                            covers sleeping primitives (sleep_for /
                            sleep_until / wait_for / wait_until): a
                            sleeping poll loop outside the sanctioned
                            spots (the CondVar wrapper, the sampler's
                            interruptible pacing, the pool's bounded park)
                            is a latency bug waiting to be profiled, not a
                            synchronisation strategy.

  signal-unsafe-in-handler  Inside PMPR_ASYNC_SIGNAL_SAFE_BEGIN/END
                            comment-marked regions (the crash handler and
                            the registry emitters it calls — obs/crash.cpp,
                            obs/flightrec.cpp, obs/watchdog.cpp,
                            obs/sigsafe.hpp), ban everything a signal
                            handler must not do: malloc/free and `new` /
                            `delete`, locks (LockGuard/mutex/.lock()),
                            iostreams and stdio formatting, and
                            std::string construction. The handler's diet
                            is pre-allocated buffers + write(2); this rule
                            keeps refactors honest about it. An unmatched
                            BEGIN/END pair is itself a violation.

All rules dispatch from one scan per file (ci/pmpr_scan.py): each file is
read and comment-stripped exactly once, then every rule runs over the
cleaned lines. `--verbose` reports where the lint time goes per rule.

Usage: pmpr_lint.py [--root REPO_ROOT] [--verbose] PATH [PATH ...]

PATHs may be files or directories (searched recursively for *.hpp/*.cpp).
Rule allowlists match on the path relative to --root (default: cwd).
Exit status 1 if any violation is found, 0 otherwise.
"""

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import pmpr_scan  # noqa: E402  (sibling module, not a package)

# Files (relative to --root, '/'-separated) where each rule does not apply.
ALLOW = {
    "atomic-order-comment": set(),
    "raw-concurrency-type": {
        "src/util/thread_annotations.hpp",
        # The one telemetry monitor-thread loop (sampler and watchdog both
        # run on it) owns a background std::thread; its mutex and condvar
        # still go through the annotated wrappers.
        "src/obs/ticker.hpp",
    },
    "reinterpret-cast-outside-io": {
        "src/graph/edge_list.cpp",
        "src/exec/export.cpp",
        # Pointer-to-integer for the fault address in the crash banner
        # (void* si_addr -> u64). No aliasing — the integer is only
        # formatted, never dereferenced.
        "src/obs/crash.cpp",
        # src/io/ as a whole is covered via ALLOW_DIRS below.
        # The x86 intrinsic load APIs take __m256i* / int* operands, so the
        # mask-table loads cannot avoid reinterpret_cast (the casts never
        # alias through the result — pure-load laundering the ISA demands).
        "src/pagerank/simd_sweep_avx2.cpp",
    },
    "naked-new-delete": {
        "src/par/ws_deque.hpp",
        # Factory for a private-constructor, mutex-holding (hence immovable)
        # type: make_unique cannot reach the private ctor, so the factory
        # wraps a bare `new` in unique_ptr on the same line.
        "src/graph/paged_multi_window.cpp",
        # Leaked telemetry registries: static-destruction-order safety for
        # pool worker threads flushing telemetry at exit, and the crash
        # handler may read the per-thread slots at any point of the
        # process's death. ThreadSlots backs every fixed-slot pillar; the
        # trace registry holds the growable span buffers.
        "src/obs/thread_slots.hpp",
        "src/obs/trace.cpp",
    },
    "raw-clock": set(),
    "simd-intrinsics-confined": set(),
    "mmap-syscall-confined": {
        # The crash handler must bypass io::MmapFile: only raw ::open +
        # write(2) on pre-rendered paths are async-signal-safe, and the
        # watchdog's safe-path dump reuses the identical writer on
        # purpose (one schema, one audited code path).
        "src/obs/crash.cpp",
    },
    "proc-syscall-confined": set(),
    "signal-unsafe-in-handler": set(),
}
# Path prefixes where a rule does not apply.
ALLOW_DIRS = {
    "raw-concurrency-type": ("src/par/",),
    "raw-clock": ("src/util/", "src/obs/"),
    # The binary-IO layer: varint codec framing and the MmapFile wrapper
    # both reinterpret byte buffers as typed records by design.
    "reinterpret-cast-outside-io": ("src/io/",),
    # The MmapFile wrapper is the single audited home for mapping syscalls.
    "mmap-syscall-confined": ("src/io/",),
    # The sanctioned process-introspection readers: obs/memory.cpp's RSS
    # readers, MmapFile::resident_bytes' mincore scan, and util/ helpers.
    "proc-syscall-confined": ("src/util/", "src/io/", "src/obs/"),
    # The SIMD dispatch + sweep family: the only files built with -mavx*
    # flags, so the only files where the intrinsics cannot SIGILL.
    "simd-intrinsics-confined": ("src/pagerank/simd_",),
}

RELAXED_ORDER = re.compile(
    r"memory_order(_|::)(relaxed|acquire|release|acq_rel|consume)\b"
)
RAW_PRIMITIVE = re.compile(
    r"std::(recursive_mutex|shared_mutex|timed_mutex|mutex|"
    r"condition_variable_any|condition_variable|jthread|thread|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
REINTERPRET = re.compile(r"\breinterpret_cast\b")
NAKED_NEW = re.compile(r"(?<![\w.])new\b|(?<![\w.])delete\b(?:\s*\[\])?")
DELETED_FN = re.compile(r"=\s*(delete|default)\s*[;,)]")
RAW_CLOCK = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
)
RAW_SLEEP = re.compile(r"\b(sleep_for|sleep_until|wait_for|wait_until)\s*\(")
# Two forms: bare calls to the unambiguous syscall names, and explicitly
# global-qualified `::name(` calls (the only way `open` is flagged — member
# `.open()` and `MmapFile::open()` stay clean because the lookbehinds
# reject a preceding word character, `.`, or `:`).
MMAP_SYSCALL = re.compile(
    r"(?<![\w.:])(mmap|munmap|madvise|posix_madvise|mincore|pread|pwrite|"
    r"open64)\s*\(|"
    r"(?<!\w)::\s*(mmap|munmap|madvise|posix_madvise|mincore|pread|pwrite|"
    r"open|open64)\s*\("
)
# Process-introspection primitives: /proc/self readers and the rusage /
# mincore syscalls (bare or ::-qualified calls; the string literal form
# catches any /proc/self path construction).
PROC_SYSCALL = re.compile(
    r"/proc/self|(?<![\w.:])(getrusage|mincore)\s*\(|"
    r"(?<!\w)::\s*(getrusage|mincore)\s*\("
)
SIMD_INTRINSIC = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[a-z]?\b|\b__mmask\d+\b|"
    r"\b__builtin_cpu_supports\b"
)
# Files additionally exempt from the raw-clock rule's sleeping-primitive
# half (but NOT from its ::now() half): the pool's park protocol uses a
# bounded wait_for as its lost-wakeup backstop.
RAW_SLEEP_ALLOW = {"src/par/thread_pool.cpp"}
# Async-signal-safe region markers (comments, so they survive in .lines
# but not .code) and the constructs banned between them: allocation,
# locking, iostream/stdio formatting, and std::string construction. The
# lookbehind rejects preceding word chars so sigsafe_puts()/my_free()
# style helpers never collide with the libc names.
# The (?![\w/]) lookahead keeps prose like "...SAFE_BEGIN/END regions"
# in doc comments from reading as a real marker.
SIGNAL_MARKER_BEGIN = re.compile(r"PMPR_ASYNC_SIGNAL_SAFE_BEGIN(?![\w/])")
SIGNAL_MARKER_END = re.compile(r"PMPR_ASYNC_SIGNAL_SAFE_END(?![\w/])")
SIGNAL_UNSAFE = re.compile(
    r"(?<![\w.:])(malloc|calloc|realloc|strdup|fopen|fdopen|printf|"
    r"fprintf|snprintf|sprintf|vsnprintf|vprintf|puts|fputs|fwrite)\s*\(|"
    r"\b(LockGuard|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"ostringstream|stringstream|ofstream|ifstream)\b|"
    r"(?:\.|->)\s*lock\s*\(|"
    r"\bstd::(string|cout|cerr|clog)\b"
)
COMMENT_LOOKBACK = 3


def has_adjacent_comment(lines, i):
    """True if lines[i] has a trailing comment or one appears within the
    preceding COMMENT_LOOKBACK lines."""
    if "//" in lines[i] or "*/" in lines[i]:
        return True
    lo = max(0, i - COMMENT_LOOKBACK)
    return any("//" in ln or "*/" in ln for ln in lines[lo:i])


def allowed(rule, rel):
    if rel in ALLOW.get(rule, ()):
        return True
    return any(rel.startswith(d) for d in ALLOW_DIRS.get(rule, ()))


def _regex_rule(name, pattern, message):
    """Rule flagging every stripped-code line matching `pattern`. `message`
    is a format string receiving the match object."""

    def check(scan):
        if allowed(name, scan.rel):
            return
        for i, code in enumerate(scan.code):
            m = pattern.search(code)
            if m:
                yield (scan.rel, i + 1, name, message(m))

    return pmpr_scan.Rule(name, check)


def _check_atomic_order(scan):
    name = "atomic-order-comment"
    if allowed(name, scan.rel):
        return
    for i, code in enumerate(scan.code):
        if RELAXED_ORDER.search(code) and not has_adjacent_comment(
            scan.lines, i
        ):
            yield (
                scan.rel,
                i + 1,
                name,
                "non-seq_cst atomic access without an adjacent "
                "ordering-rationale comment",
            )


def _check_naked_new(scan):
    name = "naked-new-delete"
    if allowed(name, scan.rel):
        return
    for i, code in enumerate(scan.code):
        m = NAKED_NEW.search(DELETED_FN.sub("", code))
        if m:
            yield (
                scan.rel,
                i + 1,
                name,
                f"naked `{m.group(0).strip()}` outside ws_deque.hpp; use "
                "std::unique_ptr / std::make_unique",
            )


def _check_raw_clock(scan):
    name = "raw-clock"
    if allowed(name, scan.rel):
        return
    for i, code in enumerate(scan.code):
        m = RAW_CLOCK.search(code)
        if m:
            yield (
                scan.rel,
                i + 1,
                name,
                f"direct {m.group(1)}::now() outside src/util/ and "
                "src/obs/; use pmpr::Timer/AccumTimer (util/timer.hpp) "
                "or obs::trace_now_ns()",
            )
        if scan.rel not in RAW_SLEEP_ALLOW:
            m = RAW_SLEEP.search(code)
            if m:
                yield (
                    scan.rel,
                    i + 1,
                    name,
                    f"sleeping primitive {m.group(1)}() outside the "
                    "sanctioned spots (CondVar wrapper, obs/ sampler "
                    "pacing, pool park backstop); use event-driven waits, "
                    "not sleep polling",
                )


def _check_signal_unsafe(scan):
    name = "signal-unsafe-in-handler"
    if allowed(name, scan.rel):
        return
    in_region = False
    begin_line = 0
    for i, raw in enumerate(scan.lines):
        if SIGNAL_MARKER_BEGIN.search(raw):
            if in_region:
                yield (
                    scan.rel,
                    i + 1,
                    name,
                    "nested PMPR_ASYNC_SIGNAL_SAFE_BEGIN",
                )
            in_region = True
            begin_line = i + 1
            continue
        if SIGNAL_MARKER_END.search(raw):
            if not in_region:
                yield (
                    scan.rel,
                    i + 1,
                    name,
                    "PMPR_ASYNC_SIGNAL_SAFE_END without a matching BEGIN",
                )
            in_region = False
            continue
        if not in_region:
            continue
        code = scan.code[i]
        m = SIGNAL_UNSAFE.search(code)
        if m is None:
            m = NAKED_NEW.search(DELETED_FN.sub("", code))
        if m:
            yield (
                scan.rel,
                i + 1,
                name,
                f"`{m.group(0).strip()}` inside an async-signal-safe "
                "region; the handler's diet is pre-allocated buffers, "
                "lock-free atomics, and write(2) via obs/sigsafe.hpp",
            )
    if in_region:
        yield (
            scan.rel,
            begin_line,
            name,
            "PMPR_ASYNC_SIGNAL_SAFE_BEGIN without a matching END",
        )


RULES = [
    pmpr_scan.Rule("atomic-order-comment", _check_atomic_order),
    pmpr_scan.Rule("signal-unsafe-in-handler", _check_signal_unsafe),
    _regex_rule(
        "raw-concurrency-type",
        RAW_PRIMITIVE,
        lambda m: f"raw {m.group(0)} outside src/par/; use "
        "pmpr::Mutex/LockGuard/CondVar (util/thread_annotations.hpp)",
    ),
    _regex_rule(
        "reinterpret-cast-outside-io",
        REINTERPRET,
        lambda m: "reinterpret_cast outside the binary-IO allowlist",
    ),
    pmpr_scan.Rule("naked-new-delete", _check_naked_new),
    _regex_rule(
        "simd-intrinsics-confined",
        SIMD_INTRINSIC,
        lambda m: f"raw SIMD intrinsic `{m.group(0).strip()}` outside "
        "src/pagerank/simd_*; only those TUs carry the -mavx* flags and "
        "dispatch guards",
    ),
    pmpr_scan.Rule("raw-clock", _check_raw_clock),
    _regex_rule(
        "mmap-syscall-confined",
        MMAP_SYSCALL,
        lambda m: f"raw mapping syscall `{m.group(0).strip()}` outside "
        "src/io/; go through io::MmapFile (io/mmap_file.hpp)",
    ),
    _regex_rule(
        "proc-syscall-confined",
        PROC_SYSCALL,
        lambda m: f"process introspection `{m.group(0).strip()}` outside "
        "src/util//src/io//src/obs/; use obs::current_rss_bytes / "
        "obs::peak_rss_bytes / io::MmapFile::resident_bytes "
        "(obs/memory.hpp)",
    ),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repo root for allowlists")
    ap.add_argument(
        "--verbose",
        action="store_true",
        help="report per-rule cumulative scan time",
    )
    ap.add_argument("paths", nargs="+")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()

    scans = [
        pmpr_scan.FileScan(f, pmpr_scan.rel_to_root(f, root))
        for f in pmpr_scan.collect_files(args.paths)
    ]
    timings = {}
    violations = pmpr_scan.run_rules(scans, RULES, timings)

    pmpr_scan.print_violations(violations)
    if args.verbose:
        pmpr_scan.print_timings(timings, len(scans))
    if violations:
        print(
            f"pmpr-lint: {len(violations)} violation(s) in "
            f"{len(scans)} file(s)"
        )
        return 1
    print(f"pmpr-lint: OK ({len(scans)} file(s) clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
