// dlfsim — workload runner for the DLFS simulation.
//
// Runs a random-read training epoch over DLFS, Ext4 or OctoFS with every
// knob on the command line, printing throughput / CPU / lookup numbers.
//
//   dlfsim --system=all --nodes=8 --sample-bytes=4096
//   dlfsim --system=dlfs --nodes=16 --batching=sample --queue-depth=16
//   dlfsim --system=dlfs --clients=1 --storage=8 --sample-bytes=131072

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "common/table.hpp"
#include "common/units.hpp"
#include "harness.hpp"

namespace {

using dlfs::bench::RunResult;
using dlfs::bench::Workload;

struct Options {
  std::string system = "all";
  std::string batching = "chunk";
  Workload workload;
  dlfs::core::DlfsConfig dlfs_cfg;
  std::uint32_t ext4_threads = 1;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: dlfsim [options]\n"
      "  --system=dlfs|ext4|octopus|all   (default all)\n"
      "  --nodes=N                        cluster size (default 4)\n"
      "  --clients=N                      DLFS clients (default = nodes)\n"
      "  --storage=N                      storage nodes (default = nodes)\n"
      "  --sample-bytes=B                 sample size (default 4096)\n"
      "  --samples-per-node=K             dataset shard size (default 2048)\n"
      "  --batch-size=B                   dlfs_bread batch (default 32)\n"
      "  --batching=chunk|sample|none     DLFS mode (default chunk); none is\n"
      "                                   DLFS-Base: one synchronous read per\n"
      "                                   sample, no read-ahead\n"
      "  --chunk-bytes=B                  data chunk size (default 262144)\n"
      "  --queue-depth=D                  SPDK queue depth (default 128)\n"
      "  --copy-threads=N                 SCQ copy pool (default 2)\n"
      "  --prefetch=N                     starting read-ahead window in units\n"
      "                                   (default 4)\n"
      "  --ext4-threads=N                 reader threads per node (default 1)\n"
      "  --seed=S                         workload seed (default 42)\n");
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view v) {
  return std::strtoull(std::string(v).c_str(), nullptr, 10);
}

Options parse(int argc, char** argv) {
  Options o;
  o.workload.num_nodes = 4;
  o.workload.samples_per_node = 2048;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string_view::npos) usage();
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string_view val = arg.substr(eq + 1);
    if (key == "system") {
      o.system = std::string(val);
    } else if (key == "nodes") {
      o.workload.num_nodes = static_cast<std::uint32_t>(parse_u64(val));
    } else if (key == "clients") {
      o.workload.clients = static_cast<std::uint32_t>(parse_u64(val));
    } else if (key == "storage") {
      o.workload.storage = static_cast<std::uint32_t>(parse_u64(val));
    } else if (key == "sample-bytes") {
      o.workload.sample_bytes = static_cast<std::uint32_t>(parse_u64(val));
    } else if (key == "samples-per-node") {
      o.workload.samples_per_node = parse_u64(val);
    } else if (key == "batch-size") {
      o.workload.batch_size = parse_u64(val);
    } else if (key == "batching") {
      o.batching = std::string(val);
    } else if (key == "chunk-bytes") {
      o.dlfs_cfg.chunk_bytes = parse_u64(val);
    } else if (key == "queue-depth") {
      o.dlfs_cfg.queue_depth = static_cast<std::uint32_t>(parse_u64(val));
    } else if (key == "copy-threads") {
      o.dlfs_cfg.copy_threads = static_cast<std::uint32_t>(parse_u64(val));
    } else if (key == "prefetch") {
      o.dlfs_cfg.prefetch.initial_units =
          static_cast<std::uint32_t>(parse_u64(val));
    } else if (key == "ext4-threads") {
      o.ext4_threads = static_cast<std::uint32_t>(parse_u64(val));
    } else if (key == "seed") {
      o.workload.seed = parse_u64(val);
    } else {
      usage();
    }
  }
  if (o.batching == "chunk") {
    o.dlfs_cfg.batching = dlfs::core::BatchingMode::kChunkLevel;
  } else if (o.batching == "sample") {
    o.dlfs_cfg.batching = dlfs::core::BatchingMode::kSampleLevel;
  } else if (o.batching == "none") {
    o.dlfs_cfg.batching = dlfs::core::BatchingMode::kNone;
  } else {
    usage();
  }
  return o;
}

void report(dlfs::Table& t, const char* name, const RunResult& r) {
  t.add_row({name, dlfs::Table::num(r.samples_per_sec / 1e3, 1),
             dlfs::format_rate(r.bytes_per_sec),
             dlfs::Table::num(r.client_cpu_util, 2),
             dlfs::Table::num(r.lookup_us_avg, 2),
             dlfs::Table::num(dlsim::to_millis(r.elapsed), 1) + " ms",
             dlfs::Table::integer(r.samples)});
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::printf(
      "dlfsim: nodes=%u sample=%s samples/node=%zu batch=%zu batching=%s\n",
      o.workload.num_nodes,
      dlfs::format_bytes(o.workload.sample_bytes).c_str(),
      o.workload.samples_per_node, o.workload.batch_size,
      o.batching.c_str());

  dlfs::Table t({"system", "Ksamples/s", "bandwidth", "cpu util",
                 "lookup us", "epoch time", "samples"});
  if (o.system == "dlfs" || o.system == "all") {
    report(t, "DLFS", dlfs::bench::run_dlfs(o.workload, o.dlfs_cfg));
  }
  if (o.system == "ext4" || o.system == "all") {
    report(t, "Ext4", dlfs::bench::run_ext4(o.workload, o.ext4_threads));
  }
  if (o.system == "octopus" || o.system == "all") {
    report(t, "OctoFS", dlfs::bench::run_octopus(o.workload));
  }
  t.print();
  return 0;
}
