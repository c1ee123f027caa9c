// Machine fingerprint and process resource readings (Linux).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pmpr::perfbench {
namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

std::size_t llc_bytes() {
  std::size_t best_level = 0;
  std::size_t best_bytes = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first_line(dir + "level");
    const std::string size = read_first_line(dir + "size");
    if (level.empty() || size.empty()) continue;
    std::size_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    const auto lvl = static_cast<std::size_t>(std::stoul(level));
    if (lvl >= best_level) {
      best_level = lvl;
      best_bytes = bytes;
    }
  }
  return best_bytes;
}

double measure_triad_gbs(std::size_t array_bytes, int reps) {
  const std::size_t n = array_bytes / sizeof(double);
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  const double s = 3.0;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Feed the result back so no sweep is dead code.
    b[r % n] = a[(r * 7) % n];
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) /
                              secs * 1e-9);
  }
  return best;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::string machine_json(const Machine& m) {
  std::ostringstream os;
  os << "{\"nproc\": " << m.nproc << ", \"pool_threads\": " << m.pool_threads
     << ", \"simd_isa\": \"" << m.simd_isa << "\", \"llc_bytes\": "
     << m.llc_bytes;
  if (m.triad_array_bytes != 0) {
    os << ", \"triad_gbs\": " << m.triad_gbs
       << ", \"triad_array_bytes\": " << m.triad_array_bytes;
  }
  os << "}";
  return os.str();
}

}  // namespace pmpr::perfbench
