// dlfsbench: trainer-level DLFS benchmark. See README.md for the
// workloads, the metric definitions and how to compare two commits.
//
// Usage:
//   dlfsbench [--workload NAME] [--seed N] [--trace] [--smoke]
//             [--seconds S] [--json FILE] [--trace-dir DIR]
//
//   --workload   one of local_text, remote_image, peer_warm, shared_fault
//                (default: all four, in that order)
//   --seed       epoch-shuffle seed (default 1); the datasets are fixed
//   --trace      also run a traced copy of every workload: per-layer
//                metrics, TRACE_<workload>.json, and checks that the
//                traced end-to-end digits equal the untraced ones
//   --smoke      every workload at 1/20 size
//   --seconds    keep repeating the set-up phase (for the setup_s
//                median) until this much host time has passed
//   --json       write every metric to FILE
//   --trace-dir  where the trace files go (default: the build directory)
//
// Exits 1 when a delivery failed or a trace check failed, 2 on usage
// errors.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "dlfsbench.hpp"

namespace dlfsbench {
namespace {

using namespace dlfs::byte_literals;

// Set-up is host time, so it is repeated and the median reported.
constexpr std::size_t kMinSetups = 3;

struct Options {
  std::vector<std::string> workloads = workload_names();
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  double seconds = 0.0;
  std::string json;
  std::string trace_dir = DLFSBENCH_TRACE_DIR;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct WorkloadReport {
  std::string name;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // traced runs only
  std::uint64_t batches = 0;  // measured primary-job batches
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // crashed trainers, trace checks
  [[nodiscard]] bool correct() const {
    return failed == 0 && failures.empty();
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double mib(double bytes) { return bytes / static_cast<double>(1_MiB); }

/// Linear interpolation between order statistics of a sorted sample.
double percentile(const std::vector<SimDuration>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         (static_cast<double>(sorted[hi]) - static_cast<double>(sorted[lo])) *
             frac;
}

std::string digits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::uint64_t all_jobs(const Measurement& m,
                       std::int64_t JobCounters::*member) {
  std::int64_t sum = 0;
  for (const auto& j : m.delta.jobs) sum += j.*member;
  return static_cast<std::uint64_t>(sum);
}

/// The metrics a trainer sees. Batch metrics count the primary job.
std::vector<Metric> end_to_end(const WorkloadSpec& spec, const Measurement& m,
                               double setup_s) {
  const double secs = dlsim::to_seconds(m.t_end - m.t_start);
  const JobCounters& p = m.delta.jobs.at(0);
  std::vector<SimDuration> lat = m.jobs.at(0).latencies;
  std::sort(lat.begin(), lat.end());
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& j : m.jobs) {
    attempted += j.attempted;
    failed += j.failed;
  }
  const auto samples = static_cast<double>(p.samples);
  return {
      {"samples_per_s", "samples/s", ratio(samples, secs)},
      {"ceiling_frac", "ratio",
       ratio(static_cast<double>(all_jobs(m, &JobCounters::bytes)),
             secs * spec.ceiling_bytes_per_s)},
      {"batch_p50_us", "us", percentile(lat, 0.50) / 1e3},
      {"batch_p99_us", "us", percentile(lat, 0.99) / 1e3},
      {"batch_p999_us", "us", percentile(lat, 0.999) / 1e3},
      {"client_cpu_us_per_sample", "us",
       ratio(static_cast<double>(p.io_busy_ns + p.copy_busy_ns) / 1e3,
             samples)},
      {"client_mem_mb", "MiB",
       mib(static_cast<double>(m.jobs[0].gauges.client_mem_bytes))},
      {"setup_s", "s", setup_s},
      {"failed_frac", "ratio",
       ratio(static_cast<double>(failed), static_cast<double>(attempted))},
  };
}

/// Per-layer metrics, named after the repo's modules. Client-side layers
/// count the primary job; shared layers (transport, NVMe, fabric) all
/// jobs.
std::vector<Metric> per_layer(const WorkloadSpec& spec, const Measurement& m,
                              double untraced_host_s) {
  const SimDuration elapsed = m.t_end - m.t_start;
  const double ens = static_cast<double>(elapsed);
  const double secs = dlsim::to_seconds(elapsed);
  const JobCounters& p = m.delta.jobs.at(0);
  const JobOutcome& po = m.jobs.at(0);
  const JobGauges& g = po.gauges;
  const double clients = static_cast<double>(spec.jobs[0].clients.size());
  const auto samples = static_cast<double>(p.samples);
  const auto batches = static_cast<double>(po.latencies.size());
  double wait_ns = 0.0;
  for (const SimDuration d : po.latencies) wait_ns += static_cast<double>(d);

  JobCounters bg;
  for (std::size_t j = 1; j < m.delta.jobs.size(); ++j) {
    bg.samples += m.delta.jobs[j].samples;
    bg.qos_deferred += m.delta.jobs[j].qos_deferred;
    bg.qos_bytes += m.delta.jobs[j].qos_bytes;
  }
  const auto all_samples =
      static_cast<double>(all_jobs(m, &JobCounters::samples));
  const auto all_bytes = static_cast<double>(all_jobs(m, &JobCounters::bytes));

  std::set<dlfs::hw::NodeId> storage, client_nodes;
  for (const auto& js : spec.jobs) {
    storage.insert(js.storage.begin(), js.storage.end());
    client_nodes.insert(js.clients.begin(), js.clients.end());
  }
  double util_sum = 0.0, util_max = 0.0, tx_max = 0.0;
  const double nic_bw = dlfs::NicParams{}.bw_bytes_per_sec;
  for (const auto n : storage) {
    const double u = ratio(m.device_busy_ns.at(n), ens);
    util_sum += u;
    util_max = std::max(util_max, u);
    tx_max = std::max(
        tx_max, ratio(static_cast<double>(m.delta.nodes.at(n).nic_tx),
                      secs * nic_bw));
  }
  double dev_read = 0, dev_written = 0, dev_cmds = 0, tx = 0, client_rx = 0;
  for (std::size_t n = 0; n < m.delta.nodes.size(); ++n) {
    const NodeCounters& nc = m.delta.nodes[n];
    dev_read += static_cast<double>(nc.dev_read);
    dev_written += static_cast<double>(nc.dev_written);
    dev_cmds += static_cast<double>(nc.dev_cmds);
    tx += static_cast<double>(nc.nic_tx);
    if (client_nodes.contains(static_cast<dlfs::hw::NodeId>(n))) {
      client_rx += static_cast<double>(nc.nic_rx);
    }
  }
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  const double dir_all =
      d(p.dir_local + p.dir_cached + p.dir_negative + p.dir_remote);

  return {
      {"trainer.batches", "count", batches},
      {"trainer.warmup_ms", "ms", dlsim::to_millis(m.warmup)},
      {"trainer.data_wait_frac", "ratio", ratio(wait_ns, ens * clients)},
      {"io_core.util", "ratio", ratio(d(p.io_busy_ns), ens * clients)},
      {"io_core.busy_us_per_sample", "us", ratio(d(p.io_busy_ns) / 1e3, samples)},
      {"directory.lookup_us_per_sample", "us",
       ratio(d(p.lookup_ns) / 1e3, samples)},
      {"directory.remote_lookups_per_sample", "1/sample",
       ratio(d(p.dir_remote), samples)},
      {"directory.view_hit_frac", "ratio",
       ratio(d(p.dir_local + p.dir_cached), dir_all)},
      {"directory.stale_invalidations", "count", d(p.dir_stale)},
      {"directory.mb_per_client", "MiB",
       mib(static_cast<double>(g.directory_bytes))},
      {"prefetch.wait_us_per_batch", "us", ratio(d(p.pf_stall_ns) / 1e3, batches)},
      {"prefetch.stalled_frac", "ratio", ratio(d(p.pf_stalled), d(p.pf_issued))},
      {"prefetch.resident_at_pick_frac", "ratio",
       ratio(d(p.pf_resident), d(p.pf_resident + p.pf_stalled))},
      {"prefetch.window_target", "units", static_cast<double>(g.window_target)},
      {"prefetch.in_flight_hwm", "units", static_cast<double>(g.in_flight_hwm)},
      {"prefetch.dropped_frac", "ratio", ratio(d(p.pf_dropped), d(p.pf_issued))},
      {"prefetch.reissued", "count", d(p.pf_reissued)},
      {"engine.copy_us_per_sample", "us", ratio(d(p.copy_busy_ns) / 1e3, samples)},
      {"engine.copied_byte_frac", "ratio", ratio(d(p.bytes_copied), d(p.bytes))},
      {"engine.cross_core_handoffs_per_sample", "1/sample",
       ratio(d(p.cross_core), samples)},
      {"engine.retries", "count", d(p.retries)},
      {"transport.timeouts", "count",
       static_cast<double>(all_jobs(m, &JobCounters::timeouts))},
      {"transport.reconnects", "count",
       static_cast<double>(all_jobs(m, &JobCounters::reconnects))},
      {"transport.replays", "count",
       static_cast<double>(all_jobs(m, &JobCounters::replays))},
      {"qos.trainer_deferrals", "count", d(p.qos_deferred)},
      {"qos.bg_deferrals", "count", d(bg.qos_deferred)},
      {"qos.trainer_byte_share", "ratio",
       ratio(d(p.qos_bytes), d(p.qos_bytes + bg.qos_bytes))},
      {"qos.bg_samples_per_s", "samples/s", ratio(d(bg.samples), secs)},
      {"cache.hit_frac", "ratio",
       ratio(d(p.cache_hits), d(p.cache_hits + p.cache_misses))},
      {"peer.local_hit_frac", "ratio", ratio(d(p.peer_local), samples)},
      {"peer.remote_hit_frac", "ratio", ratio(d(p.peer_remote), samples)},
      {"peer.miss_frac", "ratio", ratio(d(p.peer_misses), samples)},
      {"peer.byte_frac", "ratio", ratio(d(p.peer_bytes), d(p.bytes))},
      {"repair.samples", "count", d(p.rereplicated)},
      {"repair.mb", "MiB", mib(d(p.repair_bytes))},
      {"repair.throttles", "count", d(p.repair_throttles)},
      {"repair.nodes_declared_dead", "count", d(p.declared_dead)},
      {"repair.drain_ms", "ms", dlsim::to_millis(m.repair_drain)},
      {"nvme.util_mean", "ratio",
       ratio(util_sum, static_cast<double>(storage.size()))},
      {"nvme.util_max", "ratio", util_max},
      {"nvme.read_amplification", "B/B", ratio(dev_read, all_bytes)},
      {"nvme.cmds_per_sample", "1/sample", ratio(dev_cmds, all_samples)},
      {"nvme.write_mb", "MiB", mib(dev_written)},
      {"fabric.client_rx_util", "ratio",
       ratio(client_rx,
             secs * nic_bw * static_cast<double>(client_nodes.size()))},
      {"fabric.storage_tx_util_max", "ratio", tx_max},
      {"fabric.bytes_per_delivered_byte", "B/B", ratio(tx, all_bytes)},
      {"fabric.messages_per_sample", "1/sample",
       ratio(d(m.delta.messages), all_samples)},
      {"fabric.messages_dropped", "count", d(m.delta.dropped)},
      {"pool.peak_mb", "MiB", mib(static_cast<double>(g.pool_peak_bytes))},
      {"mount.pfs_mb", "MiB", mib(static_cast<double>(m.pfs_bytes))},
      {"mount.device_write_mb", "MiB",
       mib(static_cast<double>(m.mount_device_write_bytes))},
      {"mount.sim_ms", "ms", dlsim::to_millis(m.mount_time)},
      {"sim.events_per_sample", "1/sample",
       ratio(d(m.delta.sim_events), all_samples)},
      {"sim.host_s", "s", untraced_host_s},
      {"trace.host_overhead_frac", "ratio",
       ratio(m.host_s, untraced_host_s) - 1.0},
  };
}

void record_failures(WorkloadReport& r, const Measurement& m) {
  r.failures.insert(r.failures.end(), m.failures.begin(), m.failures.end());
  std::uint64_t corrupt = 0, dup = 0, missing = 0, skipped = 0;
  for (const auto& j : m.jobs) {
    r.attempted += j.attempted;
    r.failed += j.failed;
    corrupt += j.corrupt;
    dup += j.duplicated;
    missing += j.missing;
    skipped += j.skipped;
  }
  if (r.failed > 0) {
    r.failures.push_back(
        "deliveries: " + std::to_string(corrupt) + " corrupt, " +
        std::to_string(dup) + " duplicated, " + std::to_string(missing) +
        " missing, " + std::to_string(skipped) + " skipped");
  }
}

WorkloadReport run_workload(const std::string& name, const Options& o) {
  const auto begin = HostClock::now();
  const auto since = [](HostClock::time_point t) {
    return std::chrono::duration<double>(HostClock::now() - t).count();
  };
  const WorkloadSpec spec = make_workload(name, o.seed, o.smoke ? 20 : 1);
  std::vector<double> setups;
  const auto set_up = [&](Tracer* tracer) {
    const auto h0 = HostClock::now();
    auto rig = std::make_unique<Rig>(spec, tracer);
    setups.push_back(since(h0));
    return rig;
  };

  WorkloadReport report;
  report.name = name;
  const Measurement plain = [&] {
    auto rig = set_up(nullptr);
    return measure(*rig, spec, nullptr);
  }();
  record_failures(report, plain);
  report.batches = plain.jobs.at(0).latencies.size();

  std::optional<Measurement> traced;
  if (o.trace) {
    Tracer tracer(counter_names(spec));
    {
      auto rig = set_up(&tracer);
      traced = measure(*rig, spec, &tracer);
    }
    // Tracing only reads counters, so the traced run must repeat the
    // untraced one exactly: same end-to-end digits, and per-batch deltas
    // that sum to the untraced run's totals.
    const auto a = end_to_end(spec, plain, 0.0);
    const auto b = end_to_end(spec, *traced, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].value != b[i].value) {
        report.failures.push_back("trace: " + a[i].name + " is " +
                                  digits(b[i].value) + " traced vs " +
                                  digits(a[i].value) + " untraced");
      }
    }
    for (auto& f : tracer.check_sums(plain.delta)) {
      report.failures.push_back(std::move(f));
    }
    for (const auto& f : traced->failures) {
      report.failures.push_back("traced run: " + f);
    }
    std::vector<std::string> jobs;
    for (const auto& js : spec.jobs) jobs.push_back(js.name);
    tracer.write(o.trace_dir + "/TRACE_" + name + ".json", jobs);
  }

  while (setups.size() < kMinSetups || since(begin) < o.seconds) {
    set_up(nullptr);
  }
  report.end_to_end = end_to_end(spec, plain, median(setups));
  if (traced) report.per_layer = per_layer(spec, *traced, plain.host_s);
  return report;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("  %s\n", title);
  for (const auto& m : ms) {
    std::printf("    %-38s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_report(const WorkloadReport& r) {
  std::printf(
      "== %s: %s, %llu deliveries checked, %llu failed, batch percentiles "
      "over %llu batches\n",
      r.name.c_str(), r.correct() ? "correct" : "INCORRECT",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.batches));
  for (const auto& f : r.failures) std::printf("  FAIL %s\n", f.c_str());
  print_metrics("end to end", r.end_to_end);
  if (!r.per_layer.empty()) print_metrics("per layer (traced run)", r.per_layer);
  std::fflush(stdout);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_metrics(std::FILE* f, const std::vector<Metric>& ms) {
  std::fprintf(f, "{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    // %.17g round-trips every double; non-finite values become null so
    // the file stays valid JSON and the smoke check can flag them.
    const double v = ms[i].value;
    std::fprintf(f, "%s%s: {\"value\": %s, \"unit\": %s}", i == 0 ? "" : ", ",
                 json_string(ms[i].name).c_str(),
                 std::isfinite(v) ? digits(v).c_str() : "null",
                 json_string(ms[i].unit).c_str());
  }
  std::fprintf(f, "}");
}

void write_json(const std::string& path, const Options& o,
                const std::vector<WorkloadReport>& reports) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\"seed\": %llu, \"smoke\": %s, \"trace\": %s, "
               "\"workloads\": {",
               static_cast<unsigned long long>(o.seed),
               o.smoke ? "true" : "false", o.trace ? "true" : "false");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    std::fprintf(f,
                 "%s\n  %s: {\"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu, \"batches\": %llu, \"failures\": [",
                 i == 0 ? "" : ",", json_string(r.name).c_str(),
                 r.correct() ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.batches));
    for (std::size_t k = 0; k < r.failures.size(); ++k) {
      std::fprintf(f, "%s%s", k == 0 ? "" : ", ",
                   json_string(r.failures[k]).c_str());
    }
    std::fprintf(f, "],\n    \"end_to_end\": ");
    write_metrics(f, r.end_to_end);
    std::fprintf(f, ",\n    \"per_layer\": ");
    write_metrics(f, r.per_layer);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n}}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME] [--seed N] [--trace] [--smoke] "
               "[--seconds S] [--json FILE] [--trace-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace dlfsbench

int main(int argc, char** argv) {
  using namespace dlfsbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && has_value) {
      const std::string w = argv[++i];
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), w) == names.end()) {
        std::fprintf(stderr, "unknown workload: %s\n", w.c_str());
        return usage(argv[0]);
      }
      o.workloads = {w};
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--json" && has_value) {
      o.json = argv[++i];
    } else if (arg == "--trace-dir" && has_value) {
      o.trace_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  std::vector<WorkloadReport> reports;
  bool ok = true;
  for (const auto& name : o.workloads) {
    WorkloadReport r;
    try {
      r = run_workload(name, o);
    } catch (const std::exception& e) {
      r.name = name;
      r.failures.push_back(e.what());
    }
    print_report(r);
    ok = ok && r.correct();
    reports.push_back(std::move(r));
  }
  if (!o.json.empty()) write_json(o.json, o, reports);
  return ok ? 0 : 1;
}
