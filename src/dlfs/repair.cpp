#include "dlfs/dlfs.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlfs::core {

// ---------------------------------------------------------------------------
// Self-healing replication (fleet side)

void DlfsFleet::declare_dead(std::uint16_t slot) {
  if (slot >= storage_nodes_.size()) {
    throw std::invalid_argument("declare_dead: storage slot out of range");
  }
  if (declared_dead_[slot] != 0) return;
  declared_dead_[slot] = 1;
  // Atomic route retirement: one call, no suspension — route snapshots
  // already issued are unaffected, every new issue stops seeing the slot.
  (void)directory_.drop_replicas_on(slot);
  // A declaration can come from a test before any transport transition
  // cleared the V bit; reads must stop targeting the slot either way.
  directory_.set_node_available(slot, false);
  for (auto& inst : instances_) {
    if (inst) inst->note_declared_dead();
  }
}

void DlfsFleet::undeclare(std::uint16_t slot) {
  if (slot >= storage_nodes_.size()) {
    throw std::invalid_argument("undeclare: storage slot out of range");
  }
  if (declared_dead_[slot] == 0) return;
  declared_dead_[slot] = 0;
  // Fresh rejoin: the slot's primary shard serves again (the dataset is
  // immutable, so its on-device bytes are still valid) and it is a repair
  // target again. Hops dropped at declaration stay dropped — repair
  // re-converges instead; samples repaired meanwhile are merely
  // over-replicated, which is harmless for an immutable dataset. Reads
  // still require the per-instance transport to agree the node answers
  // (node_up() ANDs the engine state with this V bit).
  directory_.set_node_available(slot, true);
  for (auto& inst : instances_) {
    if (inst) inst->note_rejoined();
  }
}

std::uint32_t DlfsFleet::live_copies(std::uint32_t sample_id) const {
  std::uint32_t live = declared_dead_[layout_[sample_id].nid] == 0 ? 1u : 0u;
  for (const RouteHop& h : directory_.replicas(sample_id)) {
    if (declared_dead_[h.nid] == 0) ++live;
  }
  return live;
}

std::vector<std::uint32_t> DlfsFleet::repair_backlog() const {
  std::vector<std::uint32_t> out;
  if (effective_reps_ <= 1) return out;
  const std::uint32_t alive_slots =
      static_cast<std::uint32_t>(storage_nodes_.size()) - num_declared_dead();
  const std::uint32_t target = std::min(effective_reps_, alive_slots);
  for (std::uint32_t id = 0; id < layout_.size(); ++id) {
    if (live_copies(id) < target) out.push_back(id);
  }
  return out;
}

std::optional<RouteHop> DlfsFleet::claim_repair_target(
    std::uint32_t sample_id, const std::function<bool(std::uint16_t)>& usable) {
  const auto& spec = dataset_->sample(sample_id);
  const SampleLocation& loc = layout_[sample_id];
  const auto num_slots = static_cast<std::uint32_t>(storage_nodes_.size());
  // The mount-time probe chain, continued: replica r of a sample lives at
  // hash(name ‖ r) % S with a linear tail. Walking the same chain here
  // (skipping dead/occupied/unusable slots) makes the replacement
  // deterministic — every instance, and every rerun of the same seed,
  // picks the same node for the same loss.
  const std::uint32_t hash_probes = 8 * effective_reps_ + 32;
  for (std::uint32_t r = 1; r <= hash_probes + num_slots; ++r) {
    const auto cand = static_cast<std::uint16_t>(
        probe_slot(spec.name, r, num_slots, hash_probes, loc.nid));
    if (declared_dead_[cand] != 0 || cand == loc.nid) continue;
    bool holds = false;
    for (const RouteHop& h : directory_.replicas(sample_id)) {
      if (h.nid == cand) {
        holds = true;
        break;
      }
    }
    if (holds) continue;
    if (usable && !usable(cand)) continue;
    const std::uint64_t off = repair_next_offset_[cand];
    if (off + loc.len >
            cluster_->node(storage_nodes_[cand]).device().capacity() ||
        off > SampleEntry::kMaxOffset) {
      continue;  // slot full; keep probing
    }
    repair_next_offset_[cand] += loc.len;
    return RouteHop{cand, off};
  }
  return std::nullopt;
}

void DlfsFleet::publish_repair(std::uint32_t sample_id, RouteHop hop) {
  directory_.add_replica(sample_id, hop.nid, hop.offset);
}

// ---------------------------------------------------------------------------
// Self-healing replication (instance side)

void DlfsInstance::note_declared_dead() {
  ++stats_.nodes_declared_dead;
  if (repair_wake_) repair_wake_->set();
}

void DlfsInstance::note_rejoined() {
  // A rejoined slot is a fresh repair target; re-walk the backlog.
  if (repair_wake_) repair_wake_->set();
}

void DlfsInstance::on_node_transition(std::uint16_t nid, bool up) {
  if (down_epoch_.size() <= nid) down_epoch_.resize(nid + 1, 0);
  ++down_epoch_[nid];
  if (!up) {
    // Suspect: arm the one-shot promotion timer. A transient fault heals
    // before it fires (the transition bumps the epoch and disarms it).
    const dlsim::SimDuration deadline =
        fleet_->config_.fault.replication.declare_dead_after;
    if (deadline > 0 && !fleet_->declared_dead(nid)) {
      node_->simulator().spawn_daemon(
          death_timer(nid, down_epoch_[nid], repair_alive_),
          "dlfs-death-timer");
    }
    return;
  }
  // Up transition of a declared-dead node: late rejoin — reconcile it as
  // a fresh node.
  if (fleet_->declared_dead(nid)) fleet_->undeclare(nid);
}

dlsim::Task<void> DlfsInstance::death_timer(std::uint16_t nid,
                                            std::uint64_t epoch,
                                            std::shared_ptr<bool> alive) {
  co_await node_->simulator().delay(
      fleet_->config_.fault.replication.declare_dead_after);
  if (!*alive) co_return;
  // Promote only if this exact outage is still in progress: any
  // transition meanwhile bumped the epoch — the node bounced, which is a
  // transient link fault, not permanent loss.
  if (nid >= down_epoch_.size() || down_epoch_[nid] != epoch) co_return;
  if (node_up(nid)) co_return;
  fleet_->declare_dead(nid);
}

dlsim::Task<void> DlfsInstance::repair_loop(std::shared_ptr<bool> alive) {
  for (;;) {
    {
      // Park until membership changes. The wait is hoisted to its own
      // statement (never inside a condition) per the repo's coroutine
      // conventions.
      dlsim::Task<void> parked = repair_wake_->wait();
      co_await std::move(parked);
    }
    if (!*alive) co_return;
    repair_wake_->reset();
    // Walk the backlog until a full pass makes no progress. Samples that
    // cannot be repaired right now — no live source, no viable target,
    // or a transient op failure — wait for the next membership
    // transition: every transition sets the wake, so parking loses
    // nothing, and a parked daemon holds no timers, so the simulator can
    // quiesce once churn stops.
    bool progress = true;
    while (progress) {
      progress = false;
      const std::vector<std::uint32_t> backlog = fleet_->repair_backlog();
      for (const std::uint32_t id : backlog) {
        if (fleet_->repair_claims_.contains(id)) continue;
        fleet_->repair_claims_.insert(id);
        const bool repaired = co_await repair_one(id, alive);
        if (!*alive) co_return;  // fleet_ may be mid-destruction
        fleet_->repair_claims_.erase(id);
        if (repaired) progress = true;
      }
    }
  }
}

dlsim::Task<bool> DlfsInstance::repair_one(std::uint32_t sample_id,
                                           std::shared_ptr<bool> alive) {
  // Recheck under-replication at run time: the backlog snapshot may be
  // stale by the time this sample's turn comes (a rejoin, or another
  // instance's repair, may already have restored it).
  const std::uint32_t alive_slots =
      fleet_->num_storage() - fleet_->num_declared_dead();
  const std::uint32_t target =
      std::min(fleet_->effective_reps_, alive_slots);
  if (fleet_->live_copies(sample_id) >= target) co_return false;

  // Source: every copy on a non-dead node this instance can reach, in
  // failover order (first is the read target, the rest ride as routes).
  const SampleLocation& loc = fleet_->layout_[sample_id];
  std::vector<RouteHop> sources;
  if (!fleet_->declared_dead(loc.nid) && node_up(loc.nid)) {
    sources.push_back(RouteHop{loc.nid, loc.offset});
  }
  for (const RouteHop& h : fleet_->directory_.replicas(sample_id)) {
    if (!fleet_->declared_dead(h.nid) && node_up(h.nid)) sources.push_back(h);
  }
  if (sources.empty()) co_return false;
  const std::optional<RouteHop> dst = fleet_->claim_repair_target(
      sample_id, [this](std::uint16_t nid) { return node_up(nid); });
  if (!dst) co_return false;

  // Traffic budget: pace repairs to repair_bytes_per_sec so they never
  // starve demand reads of fabric/device bandwidth.
  const std::uint64_t budget =
      fleet_->config_.fault.replication.repair_bytes_per_sec;
  if (budget > 0) {
    auto& sim = node_->simulator();
    const dlsim::SimTime now = sim.now();
    if (repair_next_allowed_ > now) {
      ++stats_.repair_throttles;
      co_await sim.delay(repair_next_allowed_ - now);
      if (!*alive) co_return false;
    }
    const dlsim::SimTime start = std::max(repair_next_allowed_, now);
    repair_next_allowed_ =
        start + static_cast<dlsim::SimDuration>(
                    loc.len * 1'000'000'000ull / budget);
  }

  // Stream the bytes from a surviving copy through the shared engine —
  // same pump, tag space and queue-depth budget as demand reads.
  ReadExtent x;
  x.nid = sources.front().nid;
  x.offset = sources.front().offset;
  x.len = loc.len;
  x.routes.assign(sources.begin() + 1, sources.end());
  const ExtentOpPtr rop = engine_->start_extent(std::move(x));
  co_await engine_->await_op(*repair_core_, rop);
  if (!*alive) co_return false;
  if (rop->error()) co_return false;  // next membership wake retries

  const ExtentOpPtr wop = engine_->start_write(
      dst->nid, dst->offset, rop->take_buffers(),
      piece_lens_of(loc.len, fleet_->config_.chunk_bytes));
  co_await engine_->await_op(*repair_core_, wop);
  if (!*alive) co_return false;
  if (wop->error()) co_return false;  // allocated extent is wasted, not wrong

  // Atomic publication: one directory call, no suspension — failover,
  // sample_read and advance_route see the new hop on their next issue,
  // mid-epoch.
  fleet_->publish_repair(sample_id, *dst);
  ++stats_.samples_rereplicated;
  stats_.repair_bytes += loc.len;
  co_return true;
}

}  // namespace dlfs::core
