// Runtime telemetry: async-signal-safe crash postmortem (observability
// pillar 7, death half).
//
// install_crash_handler() registers one handler for SIGSEGV / SIGBUS /
// SIGABRT / SIGFPE that writes a `pmpr-crash-v1` JSON report — signal
// identity, counter snapshot, memory tallies, per-thread identification,
// heartbeat table, and the flight recorder's retained events — to
// `<dump_dir>/pmpr-crash-<pid>.json`, then restores the default action
// and re-raises, so the process still dies with the real signal (exit
// status, core dumps, and CI all see the truth).
//
// Signal-safety discipline (machine-checked by the pmpr-lint rule
// `signal-unsafe-in-handler` over PMPR_ASYNC_SIGNAL_SAFE_BEGIN/END
// regions): the handler allocates nothing, locks nothing, and formats
// through obs/sigsafe.hpp onto a pre-opened fd. Everything it reads —
// the counter/memory tallies, the flight recorder rings, the heartbeat
// slots — lives in obs::ThreadSlots registries, which the handler walks
// with for_each_claimed: an atomic pointer load (bailing on null), never a
// lazy construction.
// The report path is also pre-rendered at install time: the handler does
// no string building.
//
// The same fd writer doubles as the *safe-path* diagnostic reporter:
// write_diagnostic_report() is what the watchdog calls on a stall, so a
// hang dump and a crash dump share one schema and one audited writer.
#pragma once

#include <cstdint>
#include <string>

namespace pmpr::obs {

struct CrashHandlerOptions {
  /// Directory the report lands in ("" = current working directory).
  std::string dump_dir;
};

/// Installs the fatal-signal handler (idempotent; a second call just
/// re-points dump_dir) and pre-warms the rings and heartbeat slots.
/// Returns false if any sigaction registration failed.
bool install_crash_handler(const CrashHandlerOptions& opts = {});

/// Restores the signal dispositions saved by the first install. Test
/// hygiene — production binaries keep the handler for life.
void uninstall_crash_handler();

/// Whether the handler is currently installed (metrics "diagnostics").
[[nodiscard]] bool crash_handler_installed();

/// The exact path the handler will write ("" before the first install).
[[nodiscard]] std::string crash_report_path();

/// What a diagnostic report is about. `kind` and `stalled_phase` must be
/// string literals or otherwise outlive the call.
struct DiagnosticContext {
  const char* kind = "diagnostic";  ///< "signal" | "watchdog_stall" | ...
  int signo = 0;                    ///< Nonzero only for kind "signal".
  const char* stalled_phase = nullptr;  ///< Watchdog: phase that went quiet.
  std::uint32_t stalled_tid = 0;        ///< Watchdog: its heartbeat slot.
  std::int64_t stall_age_ns = 0;        ///< Watchdog: silence duration.
  std::int64_t threshold_ns = 0;        ///< Watchdog: configured threshold.
};

/// Writes a full `pmpr-crash-v1` report to `path` on the safe (non-signal)
/// path — same bytes the crash handler would emit, via the same writer.
/// Returns false when the file cannot be created.
bool write_diagnostic_report(const std::string& path,
                             const DiagnosticContext& ctx);

}  // namespace pmpr::obs
