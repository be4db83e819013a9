// Availability sweep — degraded-epoch behaviour under a storage-node
// crash (robustness companion to the throughput figures; the paper's
// fault model, §II: a user-level client must survive a target reboot
// without an epoch-long stall).
//
// One client node reads a 2-target remote pool. Sweep A crashes target 0
// at increasing points through the epoch and never brings it back: the
// epoch must still terminate, serving the surviving subset and counting
// the rest as skipped. Sweep B crashes at a fixed point and varies the
// outage length: short outages are absorbed by command replay after
// reconnect (zero skips), long ones degrade the epoch.
//
// Flags:
//   --smoke          shrunken dataset and one point per sweep (CI entry)
//   --replication N  k-way replica placement; with N >= 2 a permanent
//                    single-node crash must skip ZERO samples (reads fail
//                    over to the surviving replica) — the run exits
//                    non-zero if any Sweep A point skips.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "harness.hpp"
#include "sim/time.hpp"

using dlfs::Table;
using dlfs::bench::FaultPlan;
using dlfs::bench::Workload;
using namespace dlsim::literals;

namespace {

Workload remote_pool_workload() {
  Workload w;
  w.num_nodes = 3;
  w.clients = 1;
  w.storage = 2;
  w.client_node_offset = 2;  // both devices remote
  w.sample_bytes = 128 * 1024;
  w.samples_per_node = 512;
  return w;
}

dlfs::core::DlfsConfig fault_config() {
  dlfs::core::DlfsConfig cfg;
  cfg.batching = dlfs::core::BatchingMode::kChunkLevel;
  cfg.prefetch.initial_units = 8;
  // The timeout must clear the healthy tail queueing delay at this
  // prefetch depth (a few ms) or the transport false-positives; 20 ms
  // still lets detection + reconnect fit inside one epoch.
  cfg.fault.nvmf.command_timeout = 20_ms;
  cfg.fault.nvmf.reconnect_backoff = 200_us;
  cfg.fault.nvmf.reconnect_backoff_max = 2_ms;
  cfg.fault.nvmf.reconnect_attempts = 4;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint32_t replication = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--replication") == 0 && i + 1 < argc) {
      replication = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--replication N]\n",
                   argv[0]);
      return 2;
    }
  }

  dlfs::print_banner(
      "Availability: epoch continuation across storage-node crashes");
  std::printf("replication=%u%s\n", replication, smoke ? " (smoke)" : "");

  Workload w = remote_pool_workload();
  if (smoke) w.samples_per_node = 128;
  dlfs::core::DlfsConfig cfg = fault_config();
  cfg.fault.replication = dlfs::core::ReplicationConfig(replication);
  dlfs::bench::JsonReport report(
      replication > 1 ? "availability_sweep_r" + std::to_string(replication)
                      : std::string("availability_sweep"));

  const auto baseline = dlfs::bench::run_dlfs(w, cfg);
  report.add("fault=none", baseline);
  const double epoch_ms = dlsim::to_micros(baseline.elapsed) / 1e3;

  // Sweep A: permanent crash at a fraction of the healthy epoch time.
  // With replication >= 2 every sample has a live replica, so a single
  // permanent crash must cost routing, not samples: skipped == 0.
  bool replication_held = true;
  const std::vector<double> fracs =
      smoke ? std::vector<double>{0.3}
            : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9};
  Table ta({"crash_at", "epoch", "served", "skipped", "timeouts", "unit"});
  ta.add_row({"never", Table::num(epoch_ms, 2), Table::integer(baseline.samples),
              Table::integer(baseline.stats.samples_skipped),
              Table::integer(baseline.stats.transport.timeouts),
              "ms/samples"});
  for (const double frac : fracs) {
    FaultPlan plan;
    plan.crash_slot = 0;
    plan.crash_at = static_cast<dlsim::SimDuration>(
        static_cast<double>(baseline.elapsed) * frac);
    const auto r = dlfs::bench::run_dlfs(w, cfg, 0, plan);
    report.add("fault=crash frac=" + Table::num(frac, 1), r);
    ta.add_row({Table::num(frac * 100, 0) + "%",
                Table::num(dlsim::to_micros(r.elapsed) / 1e3, 2),
                Table::integer(r.samples),
                Table::integer(r.stats.samples_skipped),
                Table::integer(r.stats.transport.timeouts), "ms/samples"});
    if (replication >= 2 && r.stats.samples_skipped != 0) {
      replication_held = false;
    }
  }
  std::printf("\nSweep A: permanent crash of 1 of 2 targets\n");
  ta.print();

  // Sweep B: crash at 30%, vary the outage before recovery.
  Table tb({"outage", "epoch", "served", "skipped", "reconnects", "replays",
            "unit"});
  const auto crash_at = static_cast<dlsim::SimDuration>(
      static_cast<double>(baseline.elapsed) * 0.3);
  const std::vector<double> outages =
      smoke ? std::vector<double>{10.0}
            : std::vector<double>{1.0, 10.0, 40.0, 200.0};
  for (const double out_ms : outages) {
    FaultPlan plan;
    plan.crash_slot = 0;
    plan.crash_at = crash_at;
    plan.recover_at =
        crash_at + static_cast<dlsim::SimDuration>(out_ms * 1e6);
    const auto r = dlfs::bench::run_dlfs(w, cfg, 0, plan);
    report.add("fault=crash-recover outage_ms=" + Table::num(out_ms, 1), r);
    tb.add_row({Table::num(out_ms, 1) + "ms",
                Table::num(dlsim::to_micros(r.elapsed) / 1e3, 2),
                Table::integer(r.samples),
                Table::integer(r.stats.samples_skipped),
                Table::integer(r.stats.transport.reconnects),
                Table::integer(r.stats.transport.replays), "ms/samples"});
  }
  std::printf("\nSweep B: crash at 30%%, recover after an outage\n");
  tb.print();

  std::printf("wrote %s\n", report.write().c_str());
  if (!replication_held) {
    std::fprintf(stderr,
                 "FAIL: replication=%u run skipped samples on a single-node "
                 "crash\n",
                 replication);
    return 1;
  }
  return 0;
}
