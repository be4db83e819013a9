// Counter snapshots of every layer, and the span tracer that writes them
// out as a Chrome trace-event file.

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "dlfsbench.hpp"

namespace dlfsbench {

namespace {

template <typename T>
using Field = std::pair<const char*, std::int64_t T::*>;

constexpr Field<JobCounters> kJobFields[] = {
    {"samples", &JobCounters::samples},
    {"bytes", &JobCounters::bytes},
    {"skipped", &JobCounters::skipped},
    {"lookup_ns", &JobCounters::lookup_ns},
    {"io_busy_ns", &JobCounters::io_busy_ns},
    {"copy_busy_ns", &JobCounters::copy_busy_ns},
    {"bytes_copied", &JobCounters::bytes_copied},
    {"cross_core", &JobCounters::cross_core},
    {"retries", &JobCounters::retries},
    {"timeouts", &JobCounters::timeouts},
    {"reconnects", &JobCounters::reconnects},
    {"replays", &JobCounters::replays},
    {"pf_issued", &JobCounters::pf_issued},
    {"pf_resident", &JobCounters::pf_resident},
    {"pf_stalled", &JobCounters::pf_stalled},
    {"pf_stall_ns", &JobCounters::pf_stall_ns},
    {"pf_dropped", &JobCounters::pf_dropped},
    {"pf_reissued", &JobCounters::pf_reissued},
    {"dir_local", &JobCounters::dir_local},
    {"dir_cached", &JobCounters::dir_cached},
    {"dir_negative", &JobCounters::dir_negative},
    {"dir_remote", &JobCounters::dir_remote},
    {"dir_stale", &JobCounters::dir_stale},
    {"cache_hits", &JobCounters::cache_hits},
    {"cache_misses", &JobCounters::cache_misses},
    {"peer_local", &JobCounters::peer_local},
    {"peer_remote", &JobCounters::peer_remote},
    {"peer_misses", &JobCounters::peer_misses},
    {"peer_bytes", &JobCounters::peer_bytes},
    {"declared_dead", &JobCounters::declared_dead},
    {"rereplicated", &JobCounters::rereplicated},
    {"repair_bytes", &JobCounters::repair_bytes},
    {"repair_throttles", &JobCounters::repair_throttles},
    {"qos_admitted", &JobCounters::qos_admitted},
    {"qos_deferred", &JobCounters::qos_deferred},
    {"qos_bytes", &JobCounters::qos_bytes},
};

constexpr Field<NodeCounters> kNodeFields[] = {
    {"dev_read", &NodeCounters::dev_read},
    {"dev_written", &NodeCounters::dev_written},
    {"dev_cmds", &NodeCounters::dev_cmds},
    {"nic_tx", &NodeCounters::nic_tx},
    {"nic_rx", &NodeCounters::nic_rx},
};

constexpr Field<Counters> kGlobalFields[] = {
    {"fabric.messages", &Counters::messages},
    {"fabric.dropped", &Counters::dropped},
    {"sim.events", &Counters::sim_events},
};

template <typename T, std::size_t N>
T subtract(const T& a, const T& b, const Field<T> (&fields)[N]) {
  T d = a;
  for (const auto& [name, member] : fields) d.*member -= b.*member;
  return d;
}

}  // namespace

std::vector<std::int64_t> flatten(const Counters& c) {
  std::vector<std::int64_t> v;
  for (const auto& j : c.jobs) {
    for (const auto& [name, member] : kJobFields) v.push_back(j.*member);
  }
  for (const auto& n : c.nodes) {
    for (const auto& [name, member] : kNodeFields) v.push_back(n.*member);
  }
  for (const auto& [name, member] : kGlobalFields) v.push_back(c.*member);
  return v;
}

std::vector<std::string> counter_names(const WorkloadSpec& w) {
  std::vector<std::string> names;
  for (const auto& job : w.jobs) {
    for (const auto& [name, member] : kJobFields) {
      names.push_back(job.name + "." + name);
    }
  }
  for (std::uint32_t n = 0; n < w.nodes; ++n) {
    for (const auto& [name, member] : kNodeFields) {
      names.push_back("node" + std::to_string(n) + "." + name);
    }
  }
  for (const auto& [name, member] : kGlobalFields) names.emplace_back(name);
  return names;
}

Counters operator-(const Counters& a, const Counters& b) {
  if (a.jobs.size() != b.jobs.size() || a.nodes.size() != b.nodes.size()) {
    throw std::logic_error("counter snapshots of different rigs");
  }
  Counters d = subtract(a, b, kGlobalFields);
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    d.jobs[j] = subtract(a.jobs[j], b.jobs[j], kJobFields);
  }
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    d.nodes[n] = subtract(a.nodes[n], b.nodes[n], kNodeFields);
  }
  return d;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(std::vector<std::string> counter_names)
    : names_(std::move(counter_names)),
      last_(names_.size(), 0),
      sum_(names_.size(), 0),
      tail_(names_.size(), 0) {}

double Tracer::host_us(HostClock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void Tracer::span(const char* name, const Where& at, SimTime t0, SimTime t1,
                  HostClock::time_point h0) {
  spans_.push_back(Span{name, at, t0, t1, host_us(h0),
                        host_us(HostClock::now()), false, {}});
}

void Tracer::bread(const char* name, const Where& at, SimTime t0, SimTime t1,
                   HostClock::time_point h0, const Counters& now) {
  span(name, at, t0, t1, h0);
  if (!open_) return;
  std::vector<std::int64_t> cur = flatten(now);
  auto& deltas = spans_.back().deltas;
  for (std::uint32_t i = 0; i < cur.size(); ++i) {
    const std::int64_t d = cur[i] - last_[i];
    if (d == 0) continue;
    if (d < 0) ++negative_deltas_;
    deltas.emplace_back(i, d);
    sum_[i] += d;
  }
  last_ = std::move(cur);
}

void Tracer::instant(const char* name, std::uint32_t job, SimTime t) {
  const double h = host_us(HostClock::now());
  spans_.push_back(Span{name, Where{job, 0, 0, 0}, t, t, h, h, true, {}});
}

void Tracer::open(const Counters& s0) {
  last_ = flatten(s0);
  open_ = true;
}

void Tracer::close(const Counters& s1, SimTime t) {
  const std::vector<std::int64_t> cur = flatten(s1);
  for (std::size_t i = 0; i < cur.size(); ++i) {
    tail_[i] = cur[i] - last_[i];
    if (tail_[i] < 0) ++negative_deltas_;
  }
  open_ = false;
  closed_ = true;
  closed_at_ = t;
}

std::vector<std::string> Tracer::check_sums(const Counters& total) const {
  std::vector<std::string> out;
  if (!closed_) out.emplace_back("trace: measured window never closed");
  if (negative_deltas_ > 0) {
    out.push_back("trace: " + std::to_string(negative_deltas_) +
                  " negative per-batch counter deltas");
  }
  const std::vector<std::int64_t> want = flatten(total);
  if (want.size() != sum_.size()) {
    out.emplace_back("trace: counter layout differs from the untraced run");
    return out;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (sum_[i] + tail_[i] != want[i]) {
      out.push_back("trace: per-batch deltas of " + names_[i] + " sum to " +
                    std::to_string(sum_[i] + tail_[i]) + ", run total is " +
                    std::to_string(want[i]));
    }
  }
  return out;
}

void Tracer::write(const std::string& path,
                   const std::vector<std::string>& jobs) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}},\n",
                 j, jobs[j].c_str());
  }
  const auto deltas = [&](const std::vector<std::pair<std::uint32_t,
                                                      std::int64_t>>& ds) {
    std::fprintf(f, ",\"counters\":{");
    for (std::size_t k = 0; k < ds.size(); ++k) {
      std::fprintf(f, "%s\"%s\":%" PRId64, k == 0 ? "" : ",",
                   names_[ds[k].first].c_str(), ds[k].second);
    }
    std::fprintf(f, "}");
  };
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"name\":\"%s\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,",
                 s.name, s.at.job, s.at.client, dlsim::to_micros(s.t0));
    if (s.instant) {
      std::fprintf(f, "\"ph\":\"i\",\"s\":\"g\",");
    } else {
      std::fprintf(f, "\"ph\":\"X\",\"dur\":%.3f,",
                   dlsim::to_micros(s.t1 - s.t0));
    }
    std::fprintf(f,
                 "\"args\":{\"epoch\":%u,\"batch\":%" PRIu64
                 ",\"host_ts_us\":%.3f,\"host_dur_us\":%.3f",
                 s.at.epoch, s.at.batch, s.h0_us, s.h1_us - s.h0_us);
    if (!s.deltas.empty()) deltas(s.deltas);
    std::fprintf(f, "}},\n");
  }
  // The tail: counters that moved after the last bread completed and
  // before the measured window closed.
  std::vector<std::pair<std::uint32_t, std::int64_t>> tail;
  for (std::uint32_t i = 0; i < tail_.size(); ++i) {
    if (tail_[i] != 0) tail.emplace_back(i, tail_[i]);
  }
  std::fprintf(f,
               "{\"name\":\"window-close\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,"
               "\"tid\":0,\"ts\":%.3f,\"args\":{\"tail\":true",
               dlsim::to_micros(closed_at_));
  deltas(tail);
  std::fprintf(f, "}}\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace dlfsbench
