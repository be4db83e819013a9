// Chaos soak — randomized, seeded fault schedules against a replicated
// DLFS fleet, asserting the self-healing invariants end to end:
//
//  * every epoch completes with samples_skipped == 0 (replication k = 2,
//    at most k-1 nodes concurrently dead, crashes spaced past the repair
//    drain, so no sample ever loses its last live copy);
//  * every epoch's delivery is byte-identical to a fault-free reference
//    run (same sample order, same arena offsets, same contents);
//  * after the schedule drains, every declared-dead node has rejoined and
//    the repair backlog is empty;
//  * the simulation quiesces inside the watchdog deadline (no hung
//    coroutine, no orphaned timer).
//
// The schedule derives entirely from --seed, so a CI failure replays
// exactly from the seed in the log. The run always writes
// CHAOS_soak_seed<seed>.json (schedule + per-epoch results + final
// stats) for CI to upload as a failure artifact.
//
// Flags:
//   --seed N         schedule + shuffle seed (default 1)
//   --epochs N       epochs in the soak (default 5)
//   --smoke          shrunken run for CI (3 epochs, small dataset)
//   --repair-sweep   instead of the soak, sweep the repair-bandwidth
//                    budget under concurrent demand reads and verify the
//                    repair engine never exceeds its budget

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "harness.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

using dlfs::bench::EpochLog;
using dlfs::bench::FleetRig;
using dlfs::bench::read_epoch_checked;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

namespace {

struct SoakParams {
  std::uint64_t seed = 1;
  std::uint32_t epochs = 5;
  // Epochs must be long enough (tens of simulated ms) to host crash
  // detection (~10 ms of timeouts) plus the declaration deadline while
  // demand traffic still flows.
  std::size_t samples = 32768;
};

// One fault event: after `gap` (measured from the previous event's heal,
// plus a wait for the repair backlog to drain), crash `node` for
// `outage`. Long outages cross declare_dead_after and exercise the
// declare -> re-replicate -> rejoin cycle; short ones stay transient.
struct ChaosEvent {
  dlsim::SimDuration gap = 0;
  std::uint16_t node = 0;
  dlsim::SimDuration outage = 0;
};

dlfs::core::DlfsConfig soak_config() {
  dlfs::core::DlfsConfig c;
  c.batching = dlfs::core::BatchingMode::kChunkLevel;
  c.fault.replication = dlfs::core::ReplicationConfig(2);
  c.fault.replication.declare_dead_after = 6_ms;
  c.fault.reprobe_interval = 2_ms;
  // Shrunken transport fault budget (as in the fault tests) so a crash is
  // detected within a few simulated milliseconds.
  c.fault.nvmf.command_timeout = 5_ms;
  c.fault.nvmf.reconnect_backoff = 200_us;
  c.fault.nvmf.reconnect_backoff_max = 1_ms;
  c.fault.nvmf.reconnect_attempts = 4;
  return c;
}

// Four storage nodes and one pure client; RAM-backed stores so delivered
// bytes can be checked against the canonical dataset content.
FleetRig soak_rig(std::size_t samples, const dlfs::core::DlfsConfig& cfg) {
  dlfs::cluster::NodeConfig nc;
  nc.synthetic_store = false;
  nc.device_capacity = 256_MiB;
  return FleetRig(5, nc, dlfs::dataset::make_fixed_size_dataset(samples, 4096),
                  cfg, /*client_nodes=*/{4}, /*storage_nodes=*/{0, 1, 2, 3});
}

// Applies the schedule one event at a time. The wait before each crash
// is the safety spacing from the issue: the next node is only lost after
// the previous loss has been fully repaired AND the client again sees
// every node as up — the client's view is what failover routes on, and
// it lags a target heal by a reprobe interval, so gating on the target
// state alone would overlap outages from the reader's perspective and
// can drop a sample's last reachable copy.
Task<void> chaos_driver(FleetRig& rig, const std::vector<ChaosEvent>& schedule,
                        bool& done) {
  auto& engine = rig.fleet.instance(0).engine();
  for (const auto& ev : schedule) {
    co_await rig.sim.delay(ev.gap);
    bool safe = false;
    while (!safe) {
      const bool healed = engine.nodes_down() == 0 &&
                          rig.fleet.num_declared_dead() == 0 &&
                          rig.fleet.repair_backlog().empty();
      if (healed) {
        safe = true;
      } else {
        co_await rig.sim.delay(1_ms);
      }
    }
    rig.fleet.target(ev.node)->crash();
    co_await rig.sim.delay(ev.outage);
    rig.fleet.target(ev.node)->recover();
  }
  done = true;
}

Task<void> soak_epochs(FleetRig& rig, std::uint32_t epochs,
                       std::vector<EpochLog>& logs, const bool& chaos_done) {
  auto& inst = rig.fleet.instance(0);
  for (std::uint32_t e = 0; e < epochs; ++e) {
    inst.sequence(e + 1);
    co_await read_epoch_checked(inst, rig.ds, 16, logs[e]);
  }
  // Teardown: let the schedule finish, then wait for reconciliation —
  // every declared-dead node back in, repair backlog empty. Bounded by
  // the caller's watchdog.
  while (!chaos_done) co_await rig.sim.delay(1_ms);
  bool settled = false;
  while (!settled) {
    const bool clean = rig.fleet.num_declared_dead() == 0 &&
                       rig.fleet.repair_backlog().empty();
    if (clean) {
      settled = true;
    } else {
      co_await rig.sim.delay(1_ms);
    }
  }
}

// The schedule is scaled to the measured fault-free epoch length so the
// faults land while demand traffic is flowing: detection is timeout
// driven, so a crash only matters if reads keep hitting the dead node.
// One short blip first (transient path: detected or absorbed, healed
// before declare_dead_after), then one long outage per epoch, early in
// the epoch and lasting most of it — long enough for detection
// (~10-15 ms of timeouts) plus the 6 ms declaration deadline, so every
// seed provably drives the declare -> re-replicate -> rejoin cycle.
std::vector<ChaosEvent> make_schedule(const SoakParams& p,
                                      dlsim::SimDuration epoch) {
  dlfs::Rng rng(p.seed);
  std::vector<ChaosEvent> schedule;
  auto frac = [&](double lo, double hi) {
    const double f = lo + (hi - lo) * rng.next_double();
    return static_cast<dlsim::SimDuration>(static_cast<double>(epoch) * f);
  };
  ChaosEvent blip;
  blip.gap = 2_ms + static_cast<dlsim::SimDuration>(rng.next_below(3)) * 1_ms;
  blip.node = static_cast<std::uint16_t>(rng.next_below(4));
  blip.outage =
      1_ms + static_cast<dlsim::SimDuration>(rng.next_below(3)) * 1_ms;
  schedule.push_back(blip);
  for (std::uint32_t e = 0; e < p.epochs; ++e) {
    ChaosEvent ev;
    ev.gap = frac(0.05, 0.15);
    ev.node = static_cast<std::uint16_t>(rng.next_below(4));
    // Floor at 25 ms: detection (~10 ms) + declaration (6 ms) must land
    // well inside the outage or the node heals before it is ever
    // declared and the repair path goes untested.
    ev.outage = std::max<dlsim::SimDuration>(frac(0.7, 1.1), 25_ms);
    schedule.push_back(ev);
  }
  return schedule;
}

void write_artifact(const SoakParams& p, const std::vector<ChaosEvent>& sched,
                    const std::vector<EpochLog>& logs,
                    const std::vector<bool>& matched,
                    const dlfs::core::InstanceStats& st, bool passed) {
  const std::string path =
      "CHAOS_soak_seed" + std::to_string(p.seed) + ".json";
  std::ofstream out(path);
  out << "{\n  \"seed\": " << p.seed << ",\n  \"epochs\": " << p.epochs
      << ",\n  \"passed\": " << (passed ? "true" : "false")
      << ",\n  \"schedule\": [\n";
  for (std::size_t i = 0; i < sched.size(); ++i) {
    out << "    {\"gap_us\": " << dlsim::to_micros(sched[i].gap)
        << ", \"node\": " << sched[i].node
        << ", \"outage_us\": " << dlsim::to_micros(sched[i].outage) << "}"
        << (i + 1 < sched.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"epoch_results\": [\n";
  for (std::size_t e = 0; e < logs.size(); ++e) {
    out << "    {\"served\": " << logs[e].order.size()
        << ", \"skipped\": " << logs[e].skipped
        << ", \"content_ok\": " << (logs[e].content_ok ? "true" : "false")
        << ", \"matches_reference\": " << (matched[e] ? "true" : "false")
        << "}" << (e + 1 < logs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"stats\": {";
  dlfs::bench::write_stats_json(out, st);
  out << "}\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

int run_soak(const SoakParams& p) {
  dlfs::print_banner("Chaos soak: seeded fault schedule, self-healing fleet");
  std::printf("seed=%" PRIu64 " epochs=%u samples=%zu\n",
              static_cast<std::uint64_t>(p.seed), p.epochs, p.samples);

  // Fault-free reference run: the chaos run must reproduce these epochs
  // byte for byte; its measured epoch length also scales the schedule.
  std::vector<EpochLog> good(p.epochs);
  dlsim::SimDuration epoch_len = 0;
  {
    FleetRig healthy = soak_rig(p.samples, soak_config());
    auto& inst = healthy.fleet.instance(0);
    const dlsim::SimTime t0 = healthy.sim.now();
    healthy.sim.spawn(
        [](FleetRig& r, dlfs::core::DlfsInstance& inst,
           std::vector<EpochLog>& logs, std::uint32_t epochs) -> Task<void> {
          for (std::uint32_t e = 0; e < epochs; ++e) {
            inst.sequence(e + 1);
            co_await read_epoch_checked(inst, r.ds, 16, logs[e]);
          }
        }(healthy, inst, good, p.epochs),
        "reference-epochs");
    healthy.sim.run();
    healthy.sim.rethrow_failures();
    epoch_len = (healthy.sim.now() - t0) / p.epochs;
  }
  std::printf("reference epoch: %.1fms\n", dlsim::to_micros(epoch_len) / 1e3);

  const auto schedule = make_schedule(p, epoch_len);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    std::printf("  event %zu: +%.1fms crash node %u for %.1fms\n", i,
                dlsim::to_micros(schedule[i].gap) / 1e3, schedule[i].node,
                dlsim::to_micros(schedule[i].outage) / 1e3);
  }

  FleetRig rig = soak_rig(p.samples, soak_config());
  rig.sim.seed_rng(p.seed);  // reconnect jitter follows the soak seed
  std::vector<EpochLog> logs(p.epochs);
  bool chaos_done = false;
  rig.sim.spawn(chaos_driver(rig, schedule, chaos_done), "chaos-driver");
  rig.sim.spawn(soak_epochs(rig, p.epochs, logs, chaos_done), "soak-epochs");

  bool watchdog_ok = true;
  std::string watchdog_msg;
  try {
    rig.sim.run_watchdog(rig.sim.now() + 300_sec);
    rig.sim.rethrow_failures();
  } catch (const std::exception& e) {
    watchdog_ok = false;
    watchdog_msg = e.what();
  }

  auto& inst = rig.fleet.instance(0);
  const auto st = inst.stats();
  std::vector<bool> matched(p.epochs, false);
  bool epochs_ok = true;
  for (std::uint32_t e = 0; e < p.epochs; ++e) {
    matched[e] = logs[e].order == good[e].order &&
                 logs[e].offsets == good[e].offsets && logs[e].content_ok;
    if (logs[e].skipped != 0 || !matched[e]) epochs_ok = false;
    std::printf("epoch %u: served=%zu skipped=%" PRIu64 " byte_identical=%s\n",
                e + 1, logs[e].order.size(),
                static_cast<std::uint64_t>(logs[e].skipped),
                matched[e] ? "yes" : "NO");
  }
  const bool backlog_empty = rig.fleet.repair_backlog().empty();
  const bool all_rejoined = rig.fleet.num_declared_dead() == 0;
  // The schedule is constructed so at least one outage crosses the
  // declaration deadline under traffic — a soak that never repaired
  // anything did not test the repair engine and fails.
  const bool repair_exercised =
      st.nodes_declared_dead > 0 && st.samples_rereplicated > 0;
  const bool passed = watchdog_ok && epochs_ok && st.samples_skipped == 0 &&
                      backlog_empty && all_rejoined && repair_exercised;
  std::printf("declared_dead=%" PRIu64 " rereplicated=%" PRIu64
              " repair_bytes=%" PRIu64 " backlog_empty=%s rejoined=%s\n",
              st.nodes_declared_dead, st.samples_rereplicated, st.repair_bytes,
              backlog_empty ? "yes" : "NO", all_rejoined ? "yes" : "NO");
  if (!watchdog_ok) {
    std::fprintf(stderr, "FAIL: watchdog tripped: %s\n", watchdog_msg.c_str());
  }
  write_artifact(p, schedule, logs, matched, st, passed);
  if (!passed) {
    std::fprintf(stderr, "FAIL: chaos soak invariants violated (seed=%" PRIu64
                         ")\n",
                 static_cast<std::uint64_t>(p.seed));
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

// Demand-vs-repair: one storage node is declared dead by fiat at epoch
// start; the repair engine re-replicates its shard while a client reads a
// full epoch. The sweep verifies the budget is a ceiling on the repair
// engine's streaming rate and that demand reads still see every sample.
int run_repair_sweep(bool smoke) {
  dlfs::print_banner("Repair budget sweep: demand reads vs re-replication");
  const std::size_t samples = smoke ? 2048 : 4096;
  const std::vector<std::uint64_t> budgets =
      smoke ? std::vector<std::uint64_t>{0, 16ull * 1024 * 1024}
            : std::vector<std::uint64_t>{0, 64ull * 1024 * 1024,
                                         16ull * 1024 * 1024};
  dlfs::bench::JsonReport report("chaos_repair_sweep");
  dlfs::Table table({"budget", "epoch_ms", "served", "skipped", "drain_ms",
                     "repair_MiBps", "throttles"});
  bool ok = true;
  for (const std::uint64_t budget : budgets) {
    dlfs::core::DlfsConfig cfg;
    cfg.batching = dlfs::core::BatchingMode::kChunkLevel;
    cfg.fault.replication = dlfs::core::ReplicationConfig(2);
    cfg.fault.replication.repair_bytes_per_sec = budget;
    FleetRig rig = soak_rig(samples, cfg);
    auto& inst = rig.fleet.instance(0);
    EpochLog log;
    dlsim::SimTime t0 = 0, t_epoch = 0, t_drain = 0;
    rig.sim.spawn(
        [](FleetRig& r, dlfs::core::DlfsInstance& inst, EpochLog& log,
           dlsim::SimTime& t0, dlsim::SimTime& t_epoch,
           dlsim::SimTime& t_drain) -> Task<void> {
          t0 = r.sim.now();
          inst.io_core().reset_accounting();
          r.fleet.declare_dead(0);
          inst.sequence(1);
          co_await read_epoch_checked(inst, r.ds, 16, log);
          t_epoch = r.sim.now();
          while (!r.fleet.repair_backlog().empty()) {
            co_await r.sim.delay(1_ms);
          }
          t_drain = r.sim.now();
        }(rig, inst, log, t0, t_epoch, t_drain),
        "sweep-epoch");
    rig.sim.run_watchdog(rig.sim.now() + 300_sec);
    rig.sim.rethrow_failures();
    const dlfs::bench::RunResult r = dlfs::bench::fleet_result(
        rig.fleet, t_epoch - t0, {&log, 1}, 4096);
    const dlfs::core::InstanceStats& st = r.stats;
    const double drain_s = dlsim::to_seconds(t_drain - t0);
    const double rate =
        drain_s > 0 ? static_cast<double>(st.repair_bytes) / drain_s : 0.0;
    // 25% slack: the first repair of a drain window is admitted unpaced.
    if (budget != 0 && rate > static_cast<double>(budget) * 1.25) ok = false;
    if (log.skipped != 0 || !log.content_ok || log.order.size() != samples) {
      ok = false;
    }
    report.add(budget == 0 ? "budget=unthrottled"
                           : "budget=" + std::to_string(budget / 1_MiB) +
                                 "MiBps",
               r);
    table.add_row(
        {budget == 0 ? "none" : dlfs::Table::integer(budget / 1_MiB) + "MiB/s",
         dlfs::Table::num(dlsim::to_micros(t_epoch - t0) / 1e3, 2),
         dlfs::Table::integer(log.order.size()),
         dlfs::Table::integer(log.skipped),
         dlfs::Table::num(dlsim::to_micros(t_drain - t0) / 1e3, 2),
         dlfs::Table::num(rate / (1024.0 * 1024.0), 1),
         dlfs::Table::integer(st.repair_throttles)});
  }
  table.print();
  std::printf("wrote %s\n", report.write().c_str());
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: repair exceeded its budget or demand reads degraded\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SoakParams p;
  bool repair_sweep = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      p.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      p.epochs = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--repair-sweep") == 0) {
      repair_sweep = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--epochs N] [--smoke] "
                   "[--repair-sweep]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) p.epochs = std::min(p.epochs, 3u);
  if (repair_sweep) return run_repair_sweep(smoke);
  return run_soak(p);
}
