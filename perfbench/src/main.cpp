// pmpr_perfbench: runs one benchmark workload and prints its metrics.
//
//   pmpr_perfbench --workload overlap --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with every telemetry gate off;
// --trace 1 runs the per-layer probes (layers.cpp). Human-readable lines go
// first; the last line of stdout is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// where attempted / failed count checked windows and windows that missed
// the offline reference (failed / attempted = wrong_window_frac).
#include <malloc.h>

#include <charconv>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace pmpr::perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinPasses = 3;

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const CheckCount& c, std::size_t failed_passes,
                  const std::vector<Metric>& metrics) {
  const double frac =
      c.checked == 0 ? 0.0
                     : static_cast<double>(c.wrong) /
                           static_cast<double>(c.checked);
  std::cout << "wrong_window_frac " << number(frac) << " (" << c.wrong
            << " of " << c.checked << " checked windows, " << failed_passes
            << " passes threw; worst difference " << number(c.worst)
            << " of the tolerance)\n";
  std::cout << "{\"correct\": "
            << (c.wrong == 0 && failed_passes == 0 ? "true" : "false")
            << ", \"attempted\": " << c.checked << ", \"failed\": " << c.wrong
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
}

/// The end-to-end run: setup repeated kSetupRepeats times (median
/// reported), then one warm-up pass and timed passes until `seconds` have
/// elapsed (at least kMinPasses).
int run_end_to_end(const Workload& w, double scale_factor, std::uint64_t seed,
                   double seconds, par::ThreadPool& pool,
                   const std::string& spill_dir, std::int64_t perturb) {
  std::vector<double> setup_s;
  Input in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    in = Input{};  // drop the previous input before building the next
    Timer t;
    in = make_input(w, scale_factor, seed, pool, spill_dir, nullptr);
    setup_s.push_back(t.seconds());
  }
  malloc_trim(0);
  if (!reset_peak_rss()) {
    std::cerr << "cannot reset the RSS high-water mark\n";
    return 1;
  }

  CheckCount total;
  std::size_t failed_passes = 0;
  std::string simd_isa;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<std::uint64_t> iterations;
  const auto one_pass = [&](bool timed) {
    CheckingSink sink(in.spec.count, nullptr, perturb);
    const double cpu0 = process_cpu_seconds();
    Timer t;
    std::uint64_t iters = 0;
    try {
      const RunResult res = run_pass(w, in, sink, {});
      simd_isa = res.simd_isa;
      iters = res.total_iterations;
      total.add(check(in.reference, sink.checksums()));
    } catch (const std::exception& e) {
      std::cerr << "pass failed: " << e.what() << "\n";
      ++failed_passes;
      total.checked += in.reference.mass.size();
      total.wrong += in.reference.mass.size();
    }
    if (timed) {
      wall_s.push_back(t.seconds());
      cpu_s.push_back(process_cpu_seconds() - cpu0);
      iterations.push_back(iters);
    }
  };

  one_pass(false);
  Timer clock;
  while (static_cast<int>(wall_s.size()) < kMinPasses ||
         clock.seconds() < seconds) {
    one_pass(true);
  }

  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"pass_s", median(wall_s), "s"},
      {"cpu_s", median(cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  const Summary pass = summarize(wall_s);
  Machine machine;
  machine.nproc = online_cpus();
  machine.pool_threads = pool.num_threads();
  machine.llc_bytes = llc_bytes();
  machine.simd_isa = simd_isa;
  std::cout << "workload " << w.name << " seed " << seed << ": "
            << in.events.size() << " events, " << in.spec.count
            << " windows\n"
            << "machine " << machine_json(machine) << "\n"
            << "pass_s over " << pass.count << " passes: median "
            << number(pass.median) << ", min " << number(pass.min)
            << ", max " << number(pass.max) << "\n"
            << "per pass (wall_s/cpu_s/iterations):";
  for (std::size_t i = 0; i < wall_s.size(); ++i) {
    std::cout << " " << number(wall_s[i]) << "/" << number(cpu_s[i]) << "/"
              << iterations[i];
  }
  std::cout << "\n";
  print_metrics(metrics);
  print_result(total, failed_passes, metrics);
  return 0;
}

int run(int argc, char** argv) {
  std::string workload;
  std::int64_t seed = 1;
  double seconds = 10.0;
  std::int64_t trace = 0;
  double scale = 1.0;
  std::string spill_dir = ".";
  std::string spans;
  std::int64_t perturb = -1;
  Options opts("Repository benchmark: one workload, end-to-end or traced");
  opts.add("workload", &workload, "overlap | disjoint | paged | streaming")
      .add("seed", &seed, "input generator seed")
      .add("seconds", &seconds, "how long the timed passes run")
      .add("trace", &trace, "0 = end-to-end metrics, 1 = per-layer metrics")
      .add("scale", &scale, "multiplier on the workload's input size")
      .add("spill-dir", &spill_dir, "directory for the paged store file")
      .add("spans", &spans, "traced run: write the spans JSON here")
      .add("perturb-window", &perturb,
           "self-test only: scale this window's ranks so the check fails");
  if (!opts.parse(argc, argv)) return opts.saw_help() ? 0 : 2;

  const Workload& w = workload_by_name(workload);
  // One pool of nproc workers: the global pool the library's own parallel
  // build and sort use, also handed to every runner.
  const std::size_t nproc = online_cpus();
  setenv("PMPR_THREADS", std::to_string(nproc).c_str(), 1);
  par::ThreadPool& pool = par::ThreadPool::global();
  obs::set_counters_enabled(false);
  obs::set_metrics_enabled(false);
  obs::set_histograms_enabled(false);
  obs::set_memory_accounting_enabled(false);
  obs::set_tracing_enabled(false);
  obs::set_flight_recorder_enabled(false);

  const auto seed_u = static_cast<std::uint64_t>(seed);
  if (trace == 0) {
    return run_end_to_end(w, scale, seed_u, seconds, pool, spill_dir,
                          perturb);
  }
  TracedOptions to;
  to.workload = &w;
  to.scale_factor = scale;
  to.seed = seed_u;
  to.pool = &pool;
  to.spill_dir = spill_dir;
  to.spans_path = spans;
  to.perturb_window = perturb;
  const TracedResult r = run_traced(to);
  std::cout << "workload " << w.name << " seed " << seed << " (traced)\n"
            << "machine " << machine_json(r.machine) << "\n";
  print_metrics(r.metrics);
  print_result(r.check, r.failed_passes, r.metrics);
  return 0;
}

}  // namespace
}  // namespace pmpr::perfbench

int main(int argc, char** argv) {
  try {
    return pmpr::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pmpr_perfbench: " << e.what() << "\n";
    return 1;
  }
}
