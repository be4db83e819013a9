// Tenancy sweep — multi-job QoS on shared storage nodes.
//
// Several DLFS fleets (one per tenant) mount over the *same* four
// storage nodes, each carving a disjoint device region (device_base)
// and pinning its client I/O thread to its own core of the shared
// client node (client_core_base). The tenants register with one
// TenantGovernor, whose start-time weighted-fair clocks arbitrate the
// shared NVMe devices and fabric pipes at admission time.
//
// Two modes:
//
//   --smoke   3 identical tenants under QoS. Exits non-zero if any
//             tenant falls below 75% of its fair throughput share, any
//             sample is skipped, or the Jain fairness index over
//             weight-normalized throughput drops below 0.9. Run as the
//             `tenancy_smoke` ctest and in CI.
//
//   (default) noisy-neighbor sweep: a victim runs alone, then against a
//             noisy tenant (deep 64-unit prefetch window) with QoS off,
//             then with QoS on (victim kHigh). The acceptance bar from
//             the sharding/QoS issue: the noisy tenant degrades the
//             victim's p99 batch latency by < 10% with QoS on, while
//             the QoS-off run shows the regression the governor is
//             there to prevent.
//
// Each tenant reads on RAM-backed stores through the harness's checked
// reader, so every delivered byte is checked against the dataset and
// every epoch must deliver each sample exactly once; either failing
// fails the run. Per tenant the bench reports throughput, p50/p99
// samples/sec (batch rates; p99 = the rate of the
// 99th-percentile-slowest batch), p50/p99 batch latency, and admission
// deferrals; per scenario the Jain fairness index
// (sum x)^2 / (n * sum x^2) over throughput / weight. Always writes
// BENCH_tenancy_sweep.json (one row per scenario x tenant) for CI
// upload.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "harness.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

namespace {

constexpr std::uint32_t kSampleBytes = 4096;
constexpr std::uint32_t kBatch = 16;

struct TenantSpec {
  std::string name;
  std::uint32_t weight = 1;
  dlfs::core::QosClass priority = dlfs::core::QosClass::kNormal;
  std::uint32_t prefetch_units = 0;  // 0 = library defaults
  std::size_t samples = 4096;
  std::uint32_t epochs = 2;
  // Loop epochs until the stop flag rises (the noisy neighbor keeps the
  // devices saturated for as long as the victim is measuring, and stops
  // at the first epoch boundary after).
  bool run_until_stopped = false;
};

struct Scenario {
  std::string name;
  bool qos = false;
  std::vector<TenantSpec> tenants;
};

// One tenant's run: its row over its own run, and its epochs' logs.
struct TenantRun {
  TenantSpec spec;
  dlfs::bench::RunResult row;
  std::vector<dlfs::bench::EpochLog> logs;
};

struct ScenarioResult {
  std::string name;
  bool qos = false;
  double fairness = 0.0;
  std::vector<TenantRun> tenants;
};

dlfs::core::DlfsConfig tenant_config(
    const TenantSpec& spec, std::size_t idx,
    std::shared_ptr<dlfs::core::TenantGovernor> gov) {
  dlfs::core::DlfsConfig c;
  c.batching = dlfs::core::BatchingMode::kChunkLevel;
  // Disjoint device regions + disjoint client cores: the tenants share
  // the storage *hardware* (device service queues, fabric pipes) but
  // nothing logical.
  c.device_base = static_cast<std::uint64_t>(idx) * 256_MiB;
  c.client_core_base = static_cast<std::uint32_t>(idx);
  if (spec.prefetch_units != 0) {
    c.prefetch.initial_units = spec.prefetch_units;
    c.prefetch.max_units = spec.prefetch_units;
  }
  c.tenant.name = spec.name;
  c.tenant.weight = spec.weight;
  c.tenant.priority = spec.priority;
  c.tenant.governor = std::move(gov);
  return c;
}

// One tenant = one fleet with its own dataset staged into its own device
// region; the shared pieces are the cluster's nodes and fabric.
struct Job {
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;
  TenantSpec spec;
  std::vector<dlfs::bench::EpochLog> logs;  // one per epoch
  dlfs::bench::RunResult row;               // over the tenant's own run

  Job(dlsim::Simulator& sim, dlfs::cluster::Cluster& cl,
      const TenantSpec& s, std::size_t idx,
      std::shared_ptr<dlfs::core::TenantGovernor> gov)
      : ds(dlfs::dataset::make_fixed_size_dataset(s.samples, kSampleBytes)),
        pfs(sim, ds),
        fleet(cl, pfs, ds, tenant_config(s, idx, std::move(gov)),
              /*client_nodes=*/{4}, /*storage_nodes=*/{0, 1, 2, 3}),
        spec(s) {
    fleet.mount();
  }
};

Task<void> tenant_epochs(Job& job, const bool& stop, bool& done) {
  auto& inst = job.fleet.instance(0);
  const dlsim::Simulator& sim = inst.io_core().simulator();
  // The row covers this tenant's run alone: its CPU share is measured
  // from here, and its row is taken when its last epoch ends.
  const dlsim::SimTime start = sim.now();
  inst.io_core().reset_accounting();
  for (std::uint32_t epoch = 1;; ++epoch) {
    inst.sequence(epoch);
    dlfs::bench::EpochLog& log = job.logs.emplace_back();
    co_await dlfs::bench::read_epoch_checked(inst, job.ds, kBatch, log);
    if (job.spec.run_until_stopped ? stop : epoch == job.spec.epochs) break;
  }
  job.row = dlfs::bench::fleet_result(job.fleet, sim.now() - start, job.logs,
                                      kSampleBytes);
  done = true;
}

double jain_fairness(const std::vector<TenantRun>& tenants) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& t : tenants) {
    const double x =
        t.row.samples_per_sec / static_cast<double>(t.spec.weight);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum /
         (static_cast<double>(tenants.size()) * sum_sq);
}

ScenarioResult run_scenario(const Scenario& sc) {
  dlsim::Simulator sim;
  dlfs::cluster::NodeConfig nc;
  nc.synthetic_store = false;  // the reader checks the dataset's bytes
  dlfs::cluster::Cluster cluster(sim, 5, nc);
  std::shared_ptr<dlfs::core::TenantGovernor> gov;
  if (sc.qos) gov = std::make_shared<dlfs::core::TenantGovernor>();

  std::vector<std::unique_ptr<Job>> jobs;
  for (std::size_t i = 0; i < sc.tenants.size(); ++i) {
    jobs.push_back(std::make_unique<Job>(sim, cluster, sc.tenants[i], i, gov));
  }

  // The stop flag is the union of the finite tenants' completions: the
  // run_until_stopped tenants keep the devices busy until every measured
  // tenant has finished.
  std::vector<std::unique_ptr<bool>> done;
  bool all_finite_done = false;
  for (auto& job : jobs) {
    done.push_back(std::make_unique<bool>(false));
    sim.spawn(tenant_epochs(*job, all_finite_done, *done.back()),
              "tenant-" + job->spec.name);
  }
  sim.spawn(
      [](dlsim::Simulator& s, std::vector<std::unique_ptr<Job>>& js,
         std::vector<std::unique_ptr<bool>>& flags,
         bool& all_done) -> Task<void> {
        for (;;) {
          bool pending = false;
          for (std::size_t i = 0; i < js.size(); ++i) {
            if (!js[i]->spec.run_until_stopped && !*flags[i]) pending = true;
          }
          if (!pending) break;
          co_await s.delay(100_us);
        }
        all_done = true;
      }(sim, jobs, done, all_finite_done),
      "stop-watcher");

  sim.run_watchdog(sim.now() + 600_sec);
  sim.rethrow_failures();

  ScenarioResult res;
  res.name = sc.name;
  res.qos = sc.qos;
  for (auto& job : jobs) {
    res.tenants.push_back({job->spec, job->row, std::move(job->logs)});
  }
  res.fairness = jain_fairness(res.tenants);
  return res;
}

/// The `p` quantile of a tenant's per-batch rates (samples/s).
double batch_rate(const TenantRun& t, double p) {
  std::vector<double> rates;
  for (const auto& log : t.logs) {
    for (std::size_t i = 0; i < log.batch_ns.size(); ++i) {
      const double us = dlsim::to_micros(log.batch_ns[i]);
      if (us > 0.0) {
        rates.push_back(static_cast<double>(log.batch_samples[i]) /
                        (us / 1e6));
      }
    }
  }
  return dlfs::bench::percentile(std::move(rates), p);
}

void print_scenario(const ScenarioResult& res) {
  std::printf("-- %s (qos=%s, fairness=%.4f)\n", res.name.c_str(),
              res.qos ? "on" : "off", res.fairness);
  dlfs::Table table({"tenant", "w", "samples", "skipped", "sps", "p50_sps",
                     "p99_sps", "p50_us", "p99_us", "deferrals"});
  for (const auto& t : res.tenants) {
    table.add_row({t.spec.name, dlfs::Table::integer(t.spec.weight),
                   dlfs::Table::integer(t.row.samples),
                   dlfs::Table::integer(t.row.stats.samples_skipped),
                   dlfs::Table::num(t.row.samples_per_sec, 0),
                   dlfs::Table::num(batch_rate(t, 0.50), 0),
                   dlfs::Table::num(batch_rate(t, 0.01), 0),  // slow tail
                   dlfs::Table::num(t.row.batch_p50_us, 1),
                   dlfs::Table::num(t.row.batch_p99_us, 1),
                   dlfs::Table::integer(t.row.stats.qos_deferrals)});
  }
  table.print();
}

/// One BENCH row per scenario x tenant.
void write_report(const std::vector<ScenarioResult>& scenarios) {
  dlfs::bench::JsonReport report("tenancy_sweep");
  for (const auto& sc : scenarios) {
    for (const auto& t : sc.tenants) {
      report.add("scenario=" + sc.name + " tenant=" + t.spec.name, t.row);
    }
  }
  std::printf("wrote %s\n", report.write().c_str());
}

/// False, with a message, when a tenant skipped a sample, delivered a
/// byte the dataset does not hold, or delivered a sample twice.
bool deliveries_ok(const ScenarioResult& res) {
  bool ok = true;
  for (const auto& t : res.tenants) {
    if (t.row.stats.samples_skipped != 0) {
      std::fprintf(stderr, "FAIL: tenant %s skipped %llu samples\n",
                   t.spec.name.c_str(),
                   static_cast<unsigned long long>(
                       t.row.stats.samples_skipped));
      ok = false;
    }
    for (const auto& log : t.logs) {
      if (!log.content_ok ||
          !dlfs::bench::exactly_once({&log, 1}, t.spec.samples)) {
        std::fprintf(stderr,
                     "FAIL: tenant %s delivered wrong bytes, or a sample "
                     "not exactly once, in an epoch\n",
                     t.spec.name.c_str());
        ok = false;
      }
    }
  }
  return ok;
}

int run_smoke() {
  dlfs::print_banner("Tenancy smoke: 3 equal tenants, shared governor");
  Scenario sc;
  sc.name = "3x_equal_qos";
  sc.qos = true;
  for (int i = 0; i < 3; ++i) {
    TenantSpec t;
    t.name = "tenant" + std::to_string(i);
    t.samples = 3072;
    t.epochs = 2;
    sc.tenants.push_back(t);
  }
  const ScenarioResult res = run_scenario(sc);
  print_scenario(res);

  double total = 0.0;
  for (const auto& t : res.tenants) total += t.row.samples_per_sec;
  const double fair = total / static_cast<double>(res.tenants.size());
  bool ok = deliveries_ok(res) && res.fairness >= 0.9;
  for (const auto& t : res.tenants) {
    if (t.row.samples_per_sec < 0.75 * fair) {
      std::fprintf(stderr,
                   "FAIL: tenant %s below fair share: %.0f < 0.75 * %.0f\n",
                   t.spec.name.c_str(), t.row.samples_per_sec, fair);
      ok = false;
    }
  }
  if (res.fairness < 0.9) {
    std::fprintf(stderr, "FAIL: fairness index %.4f < 0.9\n", res.fairness);
  }
  write_report({res});
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int run_sweep() {
  dlfs::print_banner("Tenancy sweep: noisy neighbor vs QoS");

  TenantSpec victim;
  victim.name = "victim";
  victim.samples = 4096;
  victim.epochs = 3;

  TenantSpec noisy;
  noisy.name = "noisy";
  noisy.samples = 8192;
  noisy.prefetch_units = 64;  // deep window: floods the shared devices
  noisy.run_until_stopped = true;

  Scenario alone{"victim_alone", /*qos=*/false, {victim}};
  Scenario qos_off{"noisy_qos_off", /*qos=*/false, {victim, noisy}};
  TenantSpec victim_hi = victim;
  victim_hi.priority = dlfs::core::QosClass::kHigh;
  Scenario qos_on{"noisy_qos_on", /*qos=*/true, {victim_hi, noisy}};

  std::vector<ScenarioResult> results;
  for (const auto* sc : {&alone, &qos_off, &qos_on}) {
    results.push_back(run_scenario(*sc));
    print_scenario(results.back());
  }

  const double base_p99 = results[0].tenants[0].row.batch_p99_us;
  const double off_p99 = results[1].tenants[0].row.batch_p99_us;
  const double on_p99 = results[2].tenants[0].row.batch_p99_us;
  const double deg_off = base_p99 > 0 ? off_p99 / base_p99 - 1.0 : 0.0;
  const double deg_on = base_p99 > 0 ? on_p99 / base_p99 - 1.0 : 0.0;
  std::printf(
      "victim p99 batch latency: alone=%.1fus qos_off=%.1fus (%+.1f%%) "
      "qos_on=%.1fus (%+.1f%%)\n",
      base_p99, off_p99, deg_off * 100.0, on_p99, deg_on * 100.0);

  // Acceptance: with QoS the noisy tenant costs the victim < 10% of p99;
  // without it the regression the governor prevents must actually show.
  const bool qos_ok = deg_on < 0.10 && deg_off > deg_on;
  bool ok = qos_ok;
  for (const auto& res : results) ok &= deliveries_ok(res);
  write_report(results);
  if (!qos_ok) {
    std::fprintf(stderr,
                 "FAIL: QoS did not protect the victim (deg_on=%.1f%% "
                 "deg_off=%.1f%%)\n",
                 deg_on * 100.0, deg_off * 100.0);
  }
  if (!ok) return 1;
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return smoke ? run_smoke() : run_sweep();
}
