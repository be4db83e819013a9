// Perf-regression smoke — the CI gate for the delivery hot path.
//
// One pinned configuration (single node, 4 KiB samples, 2000 samples,
// batch 32, chunk-level batching, async prefetch at the default depth 4)
// is run twice: once through the dlfs_bread copy path and once through
// dlfs_bread_views (zero-copy view batches, double-buffered reader).
// The simulation is deterministic, so the committed baseline in
// bench/perf_baseline.json reproduces exactly on every machine; the
// tolerances below only leave headroom for intentional cost-model
// calibration changes that are small enough not to matter.
//
// The gate fails (exit 1) when any of these hold:
//   * either run's samples/sec drops below 90% of its baseline;
//   * either run's prefetch stall time exceeds baseline * 1.10 + 50 us
//     (the epsilon keeps a zero-stall baseline from forbidding noise);
//   * either run's p99 batch latency exceeds baseline * 1.10 + 2 us;
//   * the zero-copy run memcpy'd anything (warm chunk units must be
//     handed out as views: bytes_copied == 0 steady-state);
//   * the zero-copy run is slower than the copy path.
//
// Flags:
//   --baseline PATH        gate against a committed baseline (CI entry)
//   --write-baseline PATH  refresh the baseline after an intentional
//                          perf change (commit the result)
//
// Results also land in BENCH_perf_smoke.json for artifact upload.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/table.hpp"
#include "harness.hpp"
#include "sim/time.hpp"

using dlfs::Table;
using dlfs::bench::RunResult;
using dlfs::bench::Workload;

namespace {

constexpr double kSpsFloorFraction = 0.90;   // fail below 90% of baseline
constexpr double kStallCeilFraction = 1.10;  // fail above 110% of baseline
constexpr double kStallEpsilonUs = 50.0;     // slack for zero-stall baselines
constexpr double kP99CeilFraction = 1.10;    // fail above 110% of baseline
constexpr double kP99EpsilonUs = 2.0;        // slack for near-zero baselines

Workload pinned_workload() {
  Workload w;
  w.num_nodes = 1;
  w.sample_bytes = 4096;
  w.samples_per_node = 2000;
  w.batch_size = 32;
  return w;
}

dlfs::core::DlfsConfig pinned_config() {
  dlfs::core::DlfsConfig cfg;
  cfg.batching = dlfs::core::BatchingMode::kChunkLevel;
  cfg.prefetch.initial_units = 4;
  return cfg;
}

double stall_us(const RunResult& r) {
  return static_cast<double>(r.stats.prefetch.stall_ns) / 1e3;
}

/// Minimal flat-JSON number lookup — enough for the baseline file this
/// bench itself writes (no nesting, unique keys), so no JSON dependency.
std::optional<double> find_number(const std::string& text,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

void write_baseline(const std::string& path, const RunResult& copy,
                    const RunResult& zc) {
  std::ofstream out(path);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"copy_samples_per_sec\": %.1f,\n"
                "  \"copy_stall_us\": %.1f,\n"
                "  \"copy_batch_p99_us\": %.1f,\n"
                "  \"zero_copy_samples_per_sec\": %.1f,\n"
                "  \"zero_copy_stall_us\": %.1f,\n"
                "  \"zero_copy_batch_p99_us\": %.1f\n"
                "}\n",
                copy.samples_per_sec, stall_us(copy), copy.batch_p99_us,
                zc.samples_per_sec, stall_us(zc), zc.batch_p99_us);
  out << buf;
}

/// One run vs. its baseline values; returns false (and prints why) on
/// regression.
bool gate_run(const char* label, const RunResult& r, double base_sps,
              double base_stall_us, double base_p99_us) {
  bool ok = true;
  if (r.samples_per_sec < base_sps * kSpsFloorFraction) {
    std::fprintf(stderr,
                 "FAIL [%s] samples/sec regressed: %.1f < %.0f%% of "
                 "baseline %.1f\n",
                 label, r.samples_per_sec, kSpsFloorFraction * 100.0,
                 base_sps);
    ok = false;
  }
  const double stall_ceil =
      base_stall_us * kStallCeilFraction + kStallEpsilonUs;
  if (stall_us(r) > stall_ceil) {
    std::fprintf(stderr,
                 "FAIL [%s] prefetch stall grew: %.1f us > ceiling %.1f us "
                 "(baseline %.1f us)\n",
                 label, stall_us(r), stall_ceil, base_stall_us);
    ok = false;
  }
  const double p99_ceil = base_p99_us * kP99CeilFraction + kP99EpsilonUs;
  if (r.batch_p99_us > p99_ceil) {
    std::fprintf(stderr,
                 "FAIL [%s] p99 batch latency grew: %.1f us > ceiling %.1f "
                 "us (baseline %.1f us)\n",
                 label, r.batch_p99_us, p99_ceil, base_p99_us);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string refresh_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--write-baseline") == 0 &&
               i + 1 < argc) {
      refresh_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--baseline PATH] [--write-baseline PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  dlfs::print_banner("Perf smoke: delivery hot path vs committed baseline");

  const Workload base_w = pinned_workload();
  const dlfs::core::DlfsConfig cfg = pinned_config();

  Workload copy_w = base_w;
  const RunResult copy = dlfs::bench::run_dlfs(copy_w, cfg);

  Workload zc_w = base_w;
  zc_w.zero_copy = true;
  const RunResult zc = dlfs::bench::run_dlfs(zc_w, cfg);

  Table t({"path", "samples/s", "stall_us", "p99_us", "bytes_copied",
           "bytes_zero_copy"});
  t.add_row({"copy", Table::num(copy.samples_per_sec, 1),
             Table::num(stall_us(copy), 1), Table::num(copy.batch_p99_us, 1),
             Table::integer(copy.stats.bytes_copied),
             Table::integer(copy.stats.bytes_zero_copy)});
  t.add_row({"zero_copy", Table::num(zc.samples_per_sec, 1),
             Table::num(stall_us(zc), 1), Table::num(zc.batch_p99_us, 1),
             Table::integer(zc.stats.bytes_copied),
             Table::integer(zc.stats.bytes_zero_copy)});
  t.print();

  dlfs::bench::JsonReport report("perf_smoke");
  report.add("path=copy", copy);
  report.add("path=zero_copy", zc);
  std::printf("wrote %s\n", report.write().c_str());

  if (!refresh_path.empty()) {
    write_baseline(refresh_path, copy, zc);
    std::printf("baseline refreshed: %s\n", refresh_path.c_str());
    return 0;
  }

  bool ok = true;

  // Invariants that hold regardless of the baseline: a warm prefetched
  // epoch through bread_views must not memcpy sample bytes, and the
  // zero-copy path must not lose to the path that does strictly more
  // work per sample.
  if (zc.stats.bytes_copied != 0) {
    std::fprintf(stderr,
                 "FAIL [zero_copy] copied %llu bytes; warm chunk units must "
                 "deliver as views\n",
                 static_cast<unsigned long long>(zc.stats.bytes_copied));
    ok = false;
  }
  if (zc.stats.bytes_zero_copy == 0) {
    std::fprintf(stderr, "FAIL [zero_copy] no bytes delivered as views\n");
    ok = false;
  }
  if (zc.samples_per_sec < copy.samples_per_sec) {
    std::fprintf(stderr,
                 "FAIL zero-copy slower than copy path: %.1f < %.1f "
                 "samples/sec\n",
                 zc.samples_per_sec, copy.samples_per_sec);
    ok = false;
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr,
                   "FAIL cannot read baseline %s (regenerate with "
                   "--write-baseline)\n",
                   baseline_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const auto c_sps = find_number(text, "copy_samples_per_sec");
    const auto c_stall = find_number(text, "copy_stall_us");
    const auto c_p99 = find_number(text, "copy_batch_p99_us");
    const auto z_sps = find_number(text, "zero_copy_samples_per_sec");
    const auto z_stall = find_number(text, "zero_copy_stall_us");
    const auto z_p99 = find_number(text, "zero_copy_batch_p99_us");
    if (!c_sps || !c_stall || !c_p99 || !z_sps || !z_stall || !z_p99) {
      std::fprintf(stderr, "FAIL baseline %s is missing keys\n",
                   baseline_path.c_str());
      return 1;
    }
    ok &= gate_run("copy", copy, *c_sps, *c_stall, *c_p99);
    ok &= gate_run("zero_copy", zc, *z_sps, *z_stall, *z_p99);
  }

  std::printf("perf smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
