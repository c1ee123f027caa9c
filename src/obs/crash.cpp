#include "obs/crash.hpp"

#include <fcntl.h>
#include <signal.h>  // NOLINT: sigaction/sigaltstack need the POSIX header
#include <unistd.h>

#include <atomic>
#include <cstddef>

#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/memory.hpp"
#include "obs/sigsafe.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace pmpr::obs {

namespace {

constexpr int kSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE};
constexpr std::size_t kNumSignals = 4;

std::atomic<bool> g_installed{false};
/// Re-entry gate: a crash inside the handler (or a second thread dying
/// concurrently) skips straight to the re-raise.
std::atomic<bool> g_in_handler{false};

/// Pre-rendered report path: the handler must not build strings.
char g_report_path[1024] = {};
struct sigaction g_old_actions[kNumSignals];
/// Dedicated stack so the handler survives stack-overflow SIGSEGVs.
alignas(16) char g_alt_stack[64 * 1024];

// PMPR_ASYNC_SIGNAL_SAFE_BEGIN
//
// Nothing below this marker (until END) may allocate, lock, touch
// iostreams/stdio, or construct std::string — enforced by the pmpr-lint
// rule signal-unsafe-in-handler. Output goes through obs/sigsafe.hpp;
// all cross-thread state it reads is pre-warmed lock-free atomics.

const char* signal_name(int signo) {
  switch (signo) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGABRT: return "SIGABRT";
    case SIGFPE: return "SIGFPE";
    default: return "SIG?";
  }
}

/// The one report writer, shared verbatim by the crash handler (signal
/// path) and write_diagnostic_report (safe path) — a hang dump and a
/// crash dump are the same schema from the same audited code.
void write_report_fd(int fd, const DiagnosticContext& ctx) {
  sigsafe_puts(fd, "{\n  \"schema\": \"pmpr-crash-v1\",\n  \"kind\": \"");
  sigsafe_puts(fd, ctx.kind);
  sigsafe_puts(fd, "\",\n  \"pid\": ");
  sigsafe_put_u64(fd, static_cast<std::uint64_t>(::getpid()));
  sigsafe_puts(fd, ",\n  \"t_ns\": ");
  sigsafe_put_i64(fd, trace_now_ns());
  if (ctx.signo != 0) {
    sigsafe_puts(fd, ",\n  \"signal\": ");
    sigsafe_put_i64(fd, ctx.signo);
    sigsafe_puts(fd, ",\n  \"signal_name\": \"");
    sigsafe_puts(fd, signal_name(ctx.signo));
    sigsafe_puts(fd, "\"");
  }
  sigsafe_puts(fd, ",\n  \"stalled_phase\": \"");
  sigsafe_put_json_str(fd,
                       ctx.stalled_phase != nullptr ? ctx.stalled_phase : "");
  sigsafe_puts(fd, "\",\n  \"stalled_tid\": ");
  sigsafe_put_u64(fd, ctx.stalled_tid);
  sigsafe_puts(fd, ",\n  \"stall_age_ns\": ");
  sigsafe_put_i64(fd, ctx.stall_age_ns);
  sigsafe_puts(fd, ",\n  \"threshold_ns\": ");
  sigsafe_put_i64(fd, ctx.threshold_ns);

  // Counter snapshot: counters_snapshot() is pure relaxed loads over the
  // leaked ThreadSlots blocks — signal-safe.
  const CounterSnapshot counters = counters_snapshot();
  sigsafe_puts(fd, ",\n  \"counters\": {");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const std::string_view name = to_string(static_cast<Counter>(i));
    if (i != 0) sigsafe_puts(fd, ",");
    sigsafe_puts(fd, "\n    \"");
    sigsafe_write(fd, name.data(), name.size());
    sigsafe_puts(fd, "\": ");
    sigsafe_put_u64(fd, counters.values[i]);
  }
  sigsafe_puts(fd, "\n  }");

  // Memory tallies: memory_snapshot() is also lock-free (the mincore /
  // /proc readers are NOT — deliberately absent here).
  const MemorySnapshot mem = memory_snapshot();
  sigsafe_puts(fd, ",\n  \"memory\": {\n    \"total_live_bytes\": ");
  sigsafe_put_i64(fd, mem.total_live_bytes);
  sigsafe_puts(fd, ",\n    \"total_peak_bytes\": ");
  sigsafe_put_u64(fd, mem.total_peak_bytes);
  sigsafe_puts(fd, ",\n    \"tags\": {");
  for (std::size_t i = 0; i < kNumMemTags; ++i) {
    const std::string_view name = to_string(static_cast<MemTag>(i));
    if (i != 0) sigsafe_puts(fd, ",");
    sigsafe_puts(fd, "\n      \"");
    sigsafe_write(fd, name.data(), name.size());
    sigsafe_puts(fd, "\": {\"live_bytes\": ");
    sigsafe_put_i64(fd, mem.tags[i].live_bytes);
    sigsafe_puts(fd, ", \"peak_bytes\": ");
    sigsafe_put_u64(fd, mem.tags[i].peak_bytes);
    sigsafe_puts(fd, "}");
  }
  sigsafe_puts(fd, "\n    }\n  }");

  sigsafe_puts(fd, ",\n  \"last_error\": \"");
  fr_emit_last_error_json(fd);
  sigsafe_puts(fd, "\",\n  \"threads\": ");
  fr_emit_threads_json(fd);
  sigsafe_puts(fd, ",\n  \"heartbeats\": ");
  watchdog_emit_heartbeats_json(fd);
  sigsafe_puts(fd, ",\n  \"events\": ");
  fr_emit_events_json(fd);
  sigsafe_puts(fd, "\n}\n");
}

void crash_signal_handler(int signo, siginfo_t* info, void*) {
  if (!g_in_handler.exchange(true)) {
    // The crash handler is the one sanctioned bypass of io::MmapFile for
    // raw ::open — only write(2)-style calls are async-signal-safe here
    // (see the mmap-syscall-confined allowlist entry in ci/pmpr_lint.py).
    const int fd = ::open(g_report_path,
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
      DiagnosticContext ctx;
      ctx.kind = "signal";
      ctx.signo = signo;
      write_report_fd(fd, ctx);
      ::close(fd);
    }
    sigsafe_puts(2, "pmpr: fatal ");
    sigsafe_puts(2, signal_name(signo));
    if (info != nullptr && (signo == SIGSEGV || signo == SIGBUS)) {
      sigsafe_puts(2, " at 0x");
      char buf[20];
      sigsafe_write(2, buf,
                    sigsafe_format_u64(
                        buf, reinterpret_cast<std::uint64_t>(info->si_addr)));
    }
    sigsafe_puts(2, " — crash report: ");
    sigsafe_puts(2, fd >= 0 ? g_report_path : "(unwritable)");
    sigsafe_puts(2, "\n");
  }
  // Restore the default action and re-raise: the process must still die
  // by this signal (exit status / core dump semantics preserved).
  struct sigaction dfl = {};
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  ::sigaction(signo, &dfl, nullptr);
  ::raise(signo);
}

// PMPR_ASYNC_SIGNAL_SAFE_END

}  // namespace

bool install_crash_handler(const CrashHandlerOptions& opts) {
  // Pre-warm the rings, heartbeat slots and trace epoch, so the report
  // always carries the thread and heartbeat tables. The handler itself
  // only loads published pointers and bails on null (ThreadSlots).
  fr_prewarm();
  watchdog_prewarm();
  (void)trace_now_ns();

  // Pre-render the report path; the handler does no string building.
  const std::string dir = opts.dump_dir.empty() ? "." : opts.dump_dir;
  const std::string path =
      dir + "/pmpr-crash-" + std::to_string(::getpid()) + ".json";
  std::size_t n = 0;
  for (; n + 1 < sizeof(g_report_path) && n < path.size(); ++n) {
    g_report_path[n] = path[n];
  }
  g_report_path[n] = '\0';

  if (g_installed.exchange(true)) return true;  // already installed

  stack_t ss = {};
  ss.ss_sp = g_alt_stack;
  ss.ss_size = sizeof(g_alt_stack);
  ::sigaltstack(&ss, nullptr);  // best effort: SA_ONSTACK degrades gracefully

  bool ok = true;
  for (std::size_t i = 0; i < kNumSignals; ++i) {
    struct sigaction sa = {};
    sa.sa_sigaction = crash_signal_handler;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(kSignals[i], &sa, &g_old_actions[i]) != 0) ok = false;
  }
  return ok;
}

void uninstall_crash_handler() {
  if (!g_installed.exchange(false)) return;
  for (std::size_t i = 0; i < kNumSignals; ++i) {
    ::sigaction(kSignals[i], &g_old_actions[i], nullptr);
  }
}

bool crash_handler_installed() {
  // seq_cst load of a cold flag.
  return g_installed.load();
}

std::string crash_report_path() { return std::string(g_report_path); }

bool write_diagnostic_report(const std::string& path,
                             const DiagnosticContext& ctx) {
  // Same raw ::open as the handler (allowlisted for crash.cpp): keeping
  // the safe path byte-identical to the signal path is the point.
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  write_report_fd(fd, ctx);
  ::close(fd);
  return true;
}

}  // namespace pmpr::obs
