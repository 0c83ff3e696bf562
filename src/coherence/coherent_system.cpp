#include "coherence/coherent_system.hpp"

#include <sstream>

#include "obs/recorder.hpp"
#include "sim/joiner.hpp"

namespace tdn::coherence {

using noc::MsgClass;

CoherentSystem::CoherentSystem(sim::EventQueue& eq, noc::Network& net,
                               const noc::Mesh& mesh, mem::MemControllers& mcs,
                               nuca::MappingPolicy& policy, HierarchyConfig cfg,
                               unsigned num_cores, obs::Recorder* rec)
    : eq_(eq), net_(net), mesh_(mesh), mcs_(mcs), policy_(policy), cfg_(cfg),
      num_cores_(num_cores), rec_(rec),
      attr_(rec != nullptr ? rec->attribution() : nullptr) {
  TDN_REQUIRE(num_cores_ > 0 && num_cores_ <= mesh.tiles(),
              "core count must fit the mesh");
  // Skip the bank-interleave bits when indexing sets inside a bank; see
  // CacheGeometry::set_index_shift.
  if (is_pow2(num_cores_) && cfg_.llc_bank.set_index_shift == 0)
    cfg_.llc_bank.set_index_shift = log2_exact(num_cores_);
  l1s_.reserve(num_cores_);
  banks_.reserve(num_cores_);
  for (unsigned i = 0; i < num_cores_; ++i) {
    l1s_.emplace_back(cfg_);
    banks_.emplace_back(cfg_);
  }
  policy_.set_ops(this);
}

std::uint64_t CoherentSystem::llc_resident_lines() const {
  std::uint64_t n = 0;
  for (const auto& b : banks_) n += b.array.occupied_lines();
  return n;
}

std::uint64_t CoherentSystem::forced_unsafe_evictions() const {
  std::uint64_t n = 0;
  for (const auto& l1 : l1s_) n += l1.array.forced_unsafe_evictions();
  for (const auto& b : banks_) n += b.array.forced_unsafe_evictions();
  return n;
}

// --------------------------------------------------------------------------
// Multiprogram view (tdn::multi)
// --------------------------------------------------------------------------

void CoherentSystem::set_app_view(AppView view) {
  TDN_REQUIRE(view.num_apps > 0, "app view needs at least one app");
  TDN_REQUIRE(view.core_app.size() == num_cores_,
              "app view must map every core");
  for (std::uint8_t a : view.core_app)
    TDN_REQUIRE(a < view.num_apps, "core mapped to an out-of-range app");
  TDN_REQUIRE(view.ways.empty() || view.ways.size() == view.num_apps,
              "way quotas must cover every app (or be empty)");
  for (const WayRange& w : view.ways)
    TDN_REQUIRE(w.first + w.count <= cfg_.llc_bank.associativity,
                "way quota exceeds LLC associativity");
  view_ = std::move(view);
  app_counters_.assign(view_.num_apps, AppCounters{});
}

CoherentSystem::WayRange CoherentSystem::way_quota(CoreId core) const {
  if (view_.num_apps == 0 || view_.ways.empty()) return WayRange{};
  return view_.ways[view_.core_app[core]];
}

std::uint64_t CoherentSystem::cross_app_conflicts() const {
  std::uint64_t n = 0;
  for (const auto& b : banks_) n += b.cross_app_conflicts;
  return n;
}

std::uint64_t CoherentSystem::app_resident_lines(unsigned app,
                                                 BankId bank) const {
  std::uint64_t n = 0;
  banks_.at(bank).array.for_each_valid([&](Addr, const LlcMeta& m) {
    if (m.app == app) ++n;
  });
  return n;
}

std::uint64_t CoherentSystem::app_resident_lines(unsigned app) const {
  std::uint64_t n = 0;
  for (BankId b = 0; b < banks_.size(); ++b) n += app_resident_lines(app, b);
  return n;
}

// --------------------------------------------------------------------------
// Demand path
// --------------------------------------------------------------------------

void CoherentSystem::access(CoreId core, Addr vaddr, Addr paddr,
                            AccessKind kind,
                            std::function<void(Cycle)> done) {
  access_internal(core, vaddr, paddr, kind, std::move(done),
                  /*replay=*/false);
}

void CoherentSystem::access_internal(CoreId core, Addr vaddr, Addr paddr,
                                     AccessKind kind,
                                     std::function<void(Cycle)> done,
                                     bool replay) {
  // Page-walker PTE loads (kernel physical region) stay out of the NUCA
  // policies' page-classification machinery: hardware walkers bypass the
  // OS page-grain bookkeeping, and a kernel address would poison R-NUCA's
  // per-page state machine and TD-NUCA's RRT lookups.
  const bool kernel = vaddr >= kKernelBase;
  const Cycle hook_lat =
      (replay || kernel) ? 0 : policy_.on_access(core, vaddr, kind);
  const Addr line = line_of(paddr);
  L1& l1 = l1s_[core];
  auto* ln = l1.array.find(line);
  if (ln != nullptr) {
    if (kind == AccessKind::Write && ln->meta.state == L1Meta::State::S &&
        ln->meta.home != kInvalidBank) {
      // Write hit on a shared line: needs an upgrade transaction.
      if (!replay) stats_.l1_misses.inc();
      start_miss(core, vaddr, line, kind, eq_.now(), std::move(done));
      return;
    }
    if (!replay) stats_.l1_hits.inc();
    if (kind == AccessKind::Write) {
      ln->meta.state = L1Meta::State::M;
      ln->meta.dirty = true;
    }
    l1.array.touch(line);
    done(eq_.now() + cfg_.l1_latency + hook_lat);
    return;
  }
  if (!replay) stats_.l1_misses.inc();
  start_miss(core, vaddr, line, kind, eq_.now(), std::move(done));
}

void CoherentSystem::start_miss(CoreId core, Addr vaddr, Addr line,
                                AccessKind kind, Cycle issued_at,
                                std::function<void(Cycle)> done) {
  L1& l1 = l1s_[core];
  // Structural hazard: all MSHRs busy and this line is not mergeable.
  // Back off and retry the whole miss.
  if (!l1.mshr.in_flight(line) &&
      l1.mshr.outstanding() >= l1.mshr.capacity()) {
    stats_.mshr_stalls.inc();
    eq_.schedule_in(cfg_.mshr_retry_delay,
                    [this, core, vaddr, line, kind, issued_at,
                     done = std::move(done)]() mutable {
                      start_miss(core, vaddr, line, kind, issued_at,
                                 std::move(done));
                    });
    return;
  }
  // Retrying through the full access path replays the reference once the
  // fill lands; the line is then (normally) an L1 hit.
  register_miss_or_retry(
      core, vaddr, line, kind, issued_at,
      [this, core, vaddr, line, kind, issued_at,
       done = std::move(done)]() mutable {
        // Note: `line` recomputes identically as paddr (it is line-aligned).
        // The replay is the same demand access: it must not re-count stats.
        if (attr_ != nullptr)
          attr_->on_complete(core, line, issued_at, eq_.now());
        stats_.miss_latency.add(eq_.now() - issued_at);
        access_internal(core, vaddr, line, kind, std::move(done),
                        /*replay=*/true);
      });
}

void CoherentSystem::register_miss_or_retry(
    CoreId core, Addr vaddr, Addr line, AccessKind kind, Cycle issued_at,
    cache::MshrFile::Callback&& on_fill) {
  const auto outcome = l1s_[core].mshr.register_miss(line, std::move(on_fill));
  if (outcome == cache::MshrFile::Outcome::Full) {
    // The pre-check in start_miss normally backs off before registration can
    // fail, but a Full outcome must never lose the fill callback: MshrFile
    // guarantees on_fill is left intact on Full, so re-queue it until a
    // register slot frees up. The callback does not fit inline beside the
    // retry's other captures; box it on this rare path.
    stats_.mshr_stalls.inc();
    eq_.schedule_in(
        cfg_.mshr_retry_delay,
        [this, core, vaddr, line, kind, issued_at,
         cb = std::make_unique<cache::MshrFile::Callback>(std::move(on_fill))] {
          register_miss_or_retry(core, vaddr, line, kind, issued_at,
                                 std::move(*cb));
        });
    return;
  }
  if (outcome == cache::MshrFile::Outcome::NewEntry) {
    launch_transaction(core, vaddr, line, kind, issued_at);
  }
}

void CoherentSystem::launch_transaction(CoreId core, Addr vaddr, Addr line,
                                        AccessKind kind, Cycle issued_at) {
  const nuca::MapDecision d = vaddr >= kKernelBase
                                  ? kernel_map(line)
                                  : policy_.map(core, vaddr, line, kind);
  const Cycle send_at = eq_.now() + cfg_.l1_latency + d.lookup_latency;
  if (d.kind == nuca::MapDecision::Kind::Bypass) {
    if (attr_ != nullptr)
      attr_->on_launch(core, line, issued_at, send_at,
                       mesh_.hops(core, mcs_.tile_of(mcs_.index_for(line))));
    eq_.schedule_at(send_at,
                    [this, core, line, kind] { bypass_fetch(core, line, kind, eq_.now()); });
    return;
  }
  stats_.nuca_distance.add(mesh_.hops(core, d.bank));
  if (attr_ != nullptr)
    attr_->on_launch(core, line, issued_at, send_at, mesh_.hops(core, d.bank));
  eq_.schedule_at(send_at, [this, core, line, kind, bank = d.bank] {
    net_.send(core, bank, MsgClass::Control,
              [this, bank, core, line, kind] { bank_request(bank, core, line, kind); });
  });
}

nuca::MapDecision CoherentSystem::kernel_map(Addr line) const {
  BankId bank =
      static_cast<BankId>((line / cfg_.l1.line_size) % banks_.size());
  if (health_ != nullptr && !health_->bank_ok(bank))
    bank = health_->remap_bank(line);
  return nuca::MapDecision::to_bank(bank);
}

// --------------------------------------------------------------------------
// LLC bank / directory
// --------------------------------------------------------------------------

void CoherentSystem::bank_request(BankId bank, CoreId requester, Addr line,
                                  AccessKind kind) {
  Bank& b = banks_[bank];
  if (attr_ != nullptr) attr_->on_bank_arrival(requester, line, eq_.now());
  auto process = [this, bank, requester, line, kind] {
    if (health_ != nullptr && !health_->bank_ok(bank)) {
      // The home bank died while this request was queued/in flight: bounce
      // it to the healthy-set home instead of servicing a dead array.
      bounce_request(bank, requester, line, kind);
      return;
    }
    Bank& bb = banks_[bank];
    const Cycle start = eq_.now() > bb.next_free ? eq_.now() : bb.next_free;
    Cycle interval = cfg_.bank_service_interval;
    if (health_ != nullptr) interval *= health_->bank_factor(bank);
    if (view_.num_apps > 0) {
      // Inter-app interference: this request queues behind the bank's
      // service window and the previous occupant belongs to another app.
      const std::uint8_t app = app_of(requester);
      if (bb.next_free > eq_.now() && bb.last_app != kNoApp &&
          bb.last_app != app)
        ++bb.cross_app_conflicts;
      bb.last_app = app;
    }
    bb.next_free = start + interval;
    if (attr_ != nullptr)
      attr_->on_service_start(requester, line, start, start + cfg_.llc_latency);
    eq_.schedule_at(start + cfg_.llc_latency, [this, bank, requester, line, kind] {
      stats_.llc_requests.inc();
      ++banks_[bank].counters.requests;
      AppCounters* ac =
          view_.num_apps > 0 ? &app_counters_[app_of(requester)] : nullptr;
      if (ac != nullptr) ++ac->llc_requests;
      auto* ln = banks_[bank].array.find(line);
      if (rec_ != nullptr && rec_->coherence_on()) {
        std::ostringstream args;
        args << "\"bank\":" << bank << ",\"core\":" << requester
             << ",\"hit\":" << (ln != nullptr ? "true" : "false");
        rec_->instant(obs::Recorder::kCoherenceTrack, "coherence",
                      kind == AccessKind::Read ? "GetS" : "GetX", args.str());
      }
      if (ln == nullptr) {
        stats_.llc_misses.inc();
        ++banks_[bank].counters.misses;
        if (ac != nullptr) ++ac->llc_misses;
        bank_fetch_from_memory(bank, requester, line, kind);
        return;
      }
      stats_.llc_hits.inc();
      ++banks_[bank].counters.hits;
      if (ac != nullptr) ++ac->llc_hits;
      banks_[bank].array.touch(line);
      if (kind == AccessKind::Read) bank_respond_read(bank, requester, line);
      else bank_respond_write(bank, requester, line);
    });
  };
  if (OpenLine* o = find_open(b, line)) {
    wait_on(*o, std::move(process));  // blocking directory
    return;
  }
  b.open.push_back(OpenLine{line});
  process();
}

void CoherentSystem::bank_respond_read(BankId bank, CoreId requester,
                                       Addr line) {
  auto* ln = banks_[bank].array.find(line);
  TDN_ASSERT(ln != nullptr);
  LlcMeta& meta = ln->meta;
  const CoreId owner = meta.owner;
  meta.sharers.set(requester);
  if (owner != kInvalidCore && owner != requester) {
    // Another L1 holds the line in M: forward, owner downgrades to S and
    // writes the dirty data back to the LLC while sourcing the requester.
    meta.owner = kInvalidCore;
    meta.sharers.set(owner);
    net_.send(bank, owner, MsgClass::Control, [this, bank, owner, requester, line] {
      auto* oln = l1s_[owner].array.find(line);
      const bool has_copy = oln != nullptr;
      if (has_copy) {
        oln->meta.state = L1Meta::State::S;
        oln->meta.dirty = false;
        net_.send(owner, bank, MsgClass::Data, [this, bank, line] {
          if (health_ != nullptr && !health_->bank_ok(bank)) {
            // Dirty downgrade data arriving at a dead bank: divert to memory
            // so the only up-to-date copy is not dropped.
            ++health_->counters.dead_bank_writebacks;
            memory_writeback(bank, line);
            return;
          }
          if (auto* l = banks_[bank].array.find(line)) l->meta.dirty = true;
        });
      }
      // Source the data to the requester (from the owner if it still has the
      // copy; otherwise the crossing PutM means the LLC copy is usable and we
      // source from the bank — same message count either way in this model).
      const CoreId src = has_copy ? owner : bank;
      net_.send(src, requester, MsgClass::Data, [this, bank, requester, line] {
        l1_fill(requester, line, L1Meta{L1Meta::State::S, false, bank});
        bank_unblock(bank, line);
      });
    });
    return;
  }
  if (owner == requester) meta.owner = kInvalidCore;  // crossing PutM
  net_.send(bank, requester, MsgClass::Data, [this, bank, requester, line] {
    l1_fill(requester, line, L1Meta{L1Meta::State::S, false, bank});
    bank_unblock(bank, line);
  });
}

void CoherentSystem::bank_respond_write(BankId bank, CoreId requester,
                                        Addr line) {
  auto* ln = banks_[bank].array.find(line);
  TDN_ASSERT(ln != nullptr);
  LlcMeta& meta = ln->meta;
  // Collect every L1 that may hold a copy (sharer bits can be stale after
  // silent evictions; invalidating a non-holder just costs an ack).
  CoreMask targets = meta.sharers;
  if (meta.owner != kInvalidCore) targets.set(meta.owner);
  targets.clear(requester);
  meta.owner = requester;
  meta.sharers = CoreMask::none();

  if (targets.empty()) {
    bank_grant_write(bank, requester, line);
    return;
  }
  // The line stays open until the grant lands, so its record counts the
  // acks; the last one to arrive sends the grant.
  find_open(banks_[bank], line)->acks = static_cast<unsigned>(targets.count());
  targets.for_each([&](CoreId t) {
    stats_.invalidations_sent.inc();
    net_.send(bank, t, MsgClass::Control, [this, bank, t, requester, line] {
      const bool dirty = l1_invalidate(t, line, /*writeback_to_memory=*/false);
      // Ack (with data if the copy was dirty) back to the bank.
      const MsgClass cls = dirty ? MsgClass::Data : MsgClass::Control;
      net_.send(t, bank, cls, [this, bank, requester, line, dirty] {
        if (dirty) {
          if (health_ != nullptr && !health_->bank_ok(bank)) {
            ++health_->counters.dead_bank_writebacks;
            memory_writeback(bank, line);
          } else if (auto* l = banks_[bank].array.find(line)) {
            l->meta.dirty = true;
          }
        }
        OpenLine* o = find_open(banks_[bank], line);
        TDN_ASSERT(o != nullptr && o->acks > 0);
        if (--o->acks == 0) bank_grant_write(bank, requester, line);
      });
    });
  });
}

void CoherentSystem::bank_grant_write(BankId bank, CoreId requester,
                                      Addr line) {
  // Upgrade if the requester still holds the line in S; otherwise a fresh
  // fill. An upgrade grant carries no data.
  auto* rl = l1s_[requester].array.find(line);
  const MsgClass cls = rl != nullptr ? MsgClass::Control : MsgClass::Data;
  net_.send(bank, requester, cls, [this, bank, requester, line] {
    auto* rl2 = l1s_[requester].array.find(line);
    if (rl2 != nullptr) {
      rl2->meta.state = L1Meta::State::M;
      rl2->meta.dirty = true;
      l1s_[requester].array.touch(line);
      // Replay any merged misses waiting on this line.
      if (l1s_[requester].mshr.in_flight(line)) replay_mshr(requester, line);
    } else {
      l1_fill(requester, line, L1Meta{L1Meta::State::M, true, bank});
    }
    bank_unblock(bank, line);
  });
}

void CoherentSystem::bank_fetch_from_memory(BankId bank, CoreId requester,
                                            Addr line, AccessKind kind) {
  const unsigned mc = mcs_.index_for(line);
  const CoreId mc_tile = mcs_.tile_of(mc);
  net_.send(bank, mc_tile, MsgClass::Control, [this, bank, requester, line, kind,
                                               mc, mc_tile] {
    const Cycle ready = mcs_.mc(mc).request(eq_.now(), AccessKind::Read);
    eq_.schedule_at(ready, [this, bank, requester, line, kind, mc_tile] {
      net_.send(mc_tile, bank, MsgClass::Data, [this, bank, requester, line, kind] {
        if (attr_ != nullptr) attr_->on_memory_data(requester, line, eq_.now());
        if (health_ != nullptr && !health_->bank_ok(bank)) {
          // The bank died while the fill was in flight: the data cannot be
          // installed; restart the transaction at the healthy-set home.
          bounce_request(bank, requester, line, kind);
          return;
        }
        bank_install(bank, requester, line);
        if (kind == AccessKind::Read) bank_respond_read(bank, requester, line);
        else bank_respond_write(bank, requester, line);
      });
    });
  });
}

void CoherentSystem::bank_install(BankId bank, CoreId requester, Addr line) {
  Bank& b = banks_[bank];
  std::optional<cache::CacheArray<LlcMeta>::Eviction> evicted;
  auto busy = [&b](Addr a) { return find_open(b, a) != nullptr; };
  const WayRange wq = way_quota(requester);
  auto& ln = b.array.allocate(line, evicted, busy, wq.first, wq.count);
  if (view_.num_apps > 0) ln.meta.app = app_of(requester);
  if (!evicted) return;
  stats_.llc_evictions.inc();
  displace_line(bank, evicted->addr, evicted->meta);
}

void CoherentSystem::displace_line(BankId bank, Addr la, const LlcMeta& m) {
  CoreMask copies = m.sharers;
  if (m.owner != kInvalidCore) copies.set(m.owner);
  copies.for_each([&](CoreId t) {
    net_.send(bank, t, MsgClass::Control, [this, t, la] {
      l1_invalidate(t, la, /*writeback_to_memory=*/true);
    });
  });
  if (m.dirty) memory_writeback(bank, la);
}

void CoherentSystem::wait_on(OpenLine& o, sim::Action&& fn) {
  if (free_waiters_ == nullptr) {
    constexpr std::size_t kChunk = 64;
    waiter_chunks_.push_back(std::make_unique<Waiter[]>(kChunk));
    for (std::size_t i = 0; i < kChunk; ++i) {
      Waiter& w = waiter_chunks_.back()[i];
      w.next = free_waiters_;
      free_waiters_ = &w;
    }
  }
  Waiter* w = free_waiters_;
  free_waiters_ = w->next;
  w->fn = std::move(fn);
  w->next = nullptr;
  if (o.tail == nullptr) {
    o.head = w;
  } else {
    o.tail->next = w;
  }
  o.tail = w;
}

void CoherentSystem::bank_unblock(BankId bank, Addr line) {
  Bank& b = banks_[bank];
  OpenLine* o = find_open(b, line);
  TDN_ASSERT(o != nullptr);
  Waiter* w = o->head;
  if (w == nullptr) {
    *o = b.open.back();  // close the line
    b.open.pop_back();
    return;
  }
  o->head = w->next;
  if (o->head == nullptr) o->tail = nullptr;
  eq_.schedule_in(0, std::move(w->fn));  // line stays blocked for `fn`
  w->next = free_waiters_;
  free_waiters_ = w;
}

void CoherentSystem::bank_writeback(BankId bank, CoreId from, Addr line) {
  if (health_ != nullptr && !health_->bank_ok(bank)) {
    // The home bank died while the PutM was in flight: forward the dirty
    // data straight to memory.
    ++health_->counters.dead_bank_writebacks;
    memory_writeback(bank, line);
    return;
  }
  stats_.llc_writebacks.inc();
  ++banks_[bank].counters.writebacks;
  if (view_.num_apps > 0) ++app_counters_[app_of(from)].llc_writebacks;
  auto* ln = banks_[bank].array.find(line);
  if (ln == nullptr) {
    // The line was evicted from the (inclusive) LLC while the PutM crossed a
    // back-invalidation; forward the data to memory.
    memory_writeback(bank, line);
    return;
  }
  ln->meta.dirty = true;
  if (ln->meta.owner == from) ln->meta.owner = kInvalidCore;
}

// --------------------------------------------------------------------------
// Fault handling
// --------------------------------------------------------------------------

void CoherentSystem::bounce_request(BankId bank, CoreId requester, Addr line,
                                    AccessKind kind) {
  TDN_ASSERT(health_ != nullptr);
  ++health_->counters.bounced_requests;
  const BankId nb = health_->remap_bank(line);
  net_.send(bank, nb, MsgClass::Control, [this, nb, requester, line, kind] {
    bank_request(nb, requester, line, kind);
  });
  // Release this bank's block; any queued requests replay and bounce too.
  bank_unblock(bank, line);
}

void CoherentSystem::evacuate_bank(BankId bank) {
  TDN_REQUIRE(bank < banks_.size(), "evacuate_bank: bank out of range");
  Bank& b = banks_[bank];
  const AddrRange all{0, ~Addr{0}};
  b.array.for_each_in_range(all, [&](Addr la, LlcMeta& m) {
    if (OpenLine* o = find_open(b, la)) {
      // A transaction is in flight on this line; evacuate once it settles.
      wait_on(*o, [this, bank, la] {
        if (auto* ln = banks_[bank].array.find(la)) {
          evacuate_line(bank, la, ln->meta);
          banks_[bank].array.invalidate(la);
        }
        bank_unblock(bank, la);
      });
      return false;  // keep for now
    }
    evacuate_line(bank, la, m);
    return true;  // invalidate
  });
}

void CoherentSystem::evacuate_line(BankId bank, Addr la, const LlcMeta& m) {
  if (health_ != nullptr) {
    ++health_->counters.evacuated_lines;
    if (m.dirty) ++health_->counters.evacuated_dirty;
  }
  // Tracked L1 copies lose their home and are displaced, the way a capacity
  // eviction displaces them.
  displace_line(bank, la, m);
}

// --------------------------------------------------------------------------
// L1 side
// --------------------------------------------------------------------------

void CoherentSystem::l1_fill(CoreId core, Addr line, L1Meta meta) {
  L1& l1 = l1s_[core];
  if (l1.array.find(line) == nullptr) {
    std::optional<cache::CacheArray<L1Meta>::Eviction> evicted;
    auto busy = [&l1](Addr a) { return l1.mshr.in_flight(a); };
    auto& ln = l1.array.allocate(line, evicted, busy);
    ln.meta = meta;
    if (evicted) l1_evict_victim(core, evicted->addr, evicted->meta);
  }
  if (l1.mshr.in_flight(line)) replay_mshr(core, line);
}

void CoherentSystem::replay_mshr(CoreId core, Addr line) {
  l1s_[core].mshr.complete(line, [this](cache::MshrFile::Callback& cb) {
    eq_.schedule_in(0, std::move(cb));
  });
}

void CoherentSystem::l1_evict_victim(CoreId core, Addr line,
                                     const L1Meta& meta) {
  if (!meta.dirty && meta.state != L1Meta::State::M) return;  // silent
  if (!meta.dirty) return;  // clean M (never written): silent eviction
  if (meta.home == kInvalidBank) {
    memory_writeback(core, line);
    return;
  }
  net_.send(core, meta.home, MsgClass::Data,
            [this, bank = meta.home, core, line] { bank_writeback(bank, core, line); });
}

bool CoherentSystem::l1_invalidate(CoreId core, Addr line,
                                   bool writeback_to_memory) {
  auto m = l1s_[core].array.invalidate(line);
  if (!m) return false;
  const bool dirty = m->dirty;
  if (dirty && writeback_to_memory) memory_writeback(core, line);
  return dirty;
}

// --------------------------------------------------------------------------
// Bypass + memory
// --------------------------------------------------------------------------

void CoherentSystem::bypass_fetch(CoreId core, Addr line, AccessKind kind,
                                  Cycle /*issued_at*/) {
  stats_.bypass_reads.inc();
  if (view_.num_apps > 0) ++app_counters_[app_of(core)].bypass_reads;
  if (rec_ != nullptr && rec_->coherence_on()) {
    rec_->instant(obs::Recorder::kCoherenceTrack, "coherence", "bypass",
                  "\"core\":" + std::to_string(core));
  }
  const unsigned mc = mcs_.index_for(line);
  const CoreId mc_tile = mcs_.tile_of(mc);
  net_.send(core, mc_tile, MsgClass::Control, [this, core, line, kind, mc, mc_tile] {
    // Attribution stamps for bypasses reuse the bank slots: arrival at the
    // MC plays the bank-arrival role and the data-ready cycle the
    // memory-data one, so bank queue/service decompose to zero and the MC
    // round trip lands in the dram component.
    if (attr_ != nullptr) attr_->on_bank_arrival(core, line, eq_.now());
    const Cycle ready = mcs_.mc(mc).request(eq_.now(), AccessKind::Read);
    eq_.schedule_at(ready, [this, core, line, kind, mc_tile] {
      if (attr_ != nullptr) attr_->on_memory_data(core, line, eq_.now());
      net_.send(mc_tile, core, MsgClass::Data, [this, core, line, kind] {
        // Bypassed lines are exclusive by runtime discipline (the paper's
        // eager end-of-task flushes), so install in M; dirty only if written.
        l1_fill(core, line,
                L1Meta{L1Meta::State::M, kind == AccessKind::Write,
                       kInvalidBank});
      });
    });
  });
}

void CoherentSystem::memory_writeback(CoreId from_tile, Addr line) {
  const unsigned mc = mcs_.index_for(line);
  net_.send(from_tile, mcs_.tile_of(mc), MsgClass::Data,
            [this, mc] { mcs_.mc(mc).request(eq_.now(), AccessKind::Write); });
}

// --------------------------------------------------------------------------
// Flush engine (CacheOps)
// --------------------------------------------------------------------------

CoherentSystem::FlushStart CoherentSystem::begin_flush(
    const char* span, const char* unit, int units, const AddrRange& prange,
    std::function<void()> done) {
  const std::uint64_t range_lines =
      prange.size() / cfg_.l1.line_size + (prange.size() % cfg_.l1.line_size ? 1 : 0);
  if (rec_ != nullptr && rec_->trace_on()) {
    // Wrap the completion so the span carries the flush's true duration.
    const Cycle start = eq_.now();
    std::ostringstream args;
    args << '"' << unit << "\":" << units << ",\"lines\":" << range_lines;
    done = [this, span, start, a = args.str(), inner = std::move(done)] {
      rec_->span(obs::Recorder::kFlushTrack, "flush", span, start,
                 eq_.now() - start, a);
      if (inner) inner();
    };
  }
  return {sim::make_joiner(std::move(done)),
          (range_lines + cfg_.flush_lines_per_cycle - 1) /
              cfg_.flush_lines_per_cycle};
}

void CoherentSystem::flush_l1_range(CoreMask cores, const AddrRange& prange,
                                    std::function<void()> done) {
  const FlushStart f =
      begin_flush("flush.l1", "cores", cores.count(), prange, std::move(done));
  const sim::JoinerPtr& join = f.join;
  cores.for_each([&](CoreId c) {
    if (c >= num_cores_) return;
    join->add();
    L1& l1 = l1s_[c];
    l1.flush_busy += f.scan_cycles;
    // The engine walks the range at flush_lines_per_cycle: writebacks are
    // paced accordingly rather than burst into the NoC in one cycle (a
    // burst would poison the link queues for every concurrent miss).
    std::uint64_t wb_index = 0;
    l1.array.for_each_in_range(prange, [&](Addr la, L1Meta& m) {
      stats_.flush_l1_lines.inc();
      if (m.dirty) {
        stats_.flush_writebacks.inc();
        join->add();
        const Cycle at = ++wb_index / cfg_.flush_lines_per_cycle;
        const BankId home = m.home;
        if (home == kInvalidBank) {
          const unsigned mc = mcs_.index_for(la);
          eq_.schedule_in(at, [this, c, mc, join] {
            net_.send(c, mcs_.tile_of(mc), MsgClass::Data, [this, mc, join] {
              mcs_.mc(mc).request(eq_.now(), AccessKind::Write);
              join->complete();
            });
          });
        } else {
          eq_.schedule_in(at, [this, c, home, la, join] {
            net_.send(c, home, MsgClass::Data, [this, home, c, la, join] {
              bank_writeback(home, c, la);
              join->complete();
            });
          });
        }
      }
      return true;  // invalidate
    });
    // The engine's scan occupies the core until scan_cycles have elapsed.
    eq_.schedule_in(f.scan_cycles, [join] { join->complete(); });
  });
  join->arm();
}

void CoherentSystem::flush_llc_range(BankMask banks, const AddrRange& prange,
                                     std::function<void()> done) {
  const FlushStart f =
      begin_flush("flush.llc", "banks", banks.count(), prange, std::move(done));
  const sim::JoinerPtr& join = f.join;
  banks.for_each([&](CoreId bank) {
    if (bank >= num_cores_) return;
    join->add();
    Bank& b = banks_[bank];
    std::uint64_t wb_index = 0;
    b.array.for_each_in_range(prange, [&](Addr la, LlcMeta& m) {
      if (OpenLine* o = find_open(b, la)) {
        // A transaction is in flight on this line: defer this line's flush
        // until it completes, then finish it out-of-band.
        join->add();
        wait_on(*o, [this, bank, la, join] {
          if (auto* ln = banks_[bank].array.find(la)) {
            flush_llc_line_now(bank, la, ln->meta, join, 0);
            banks_[bank].array.invalidate(la);
          }
          bank_unblock(bank, la);
          join->complete();
        });
        return false;  // keep for now
      }
      // Pace the flush traffic at the engine's scan rate (see
      // flush_l1_range).
      flush_llc_line_now(bank, la, m, join,
                         ++wb_index / cfg_.flush_lines_per_cycle);
      return true;  // invalidate
    });
    eq_.schedule_in(f.scan_cycles, [join] { join->complete(); });
  });
  join->arm();
}

void CoherentSystem::flush_llc_line_now(BankId bank, Addr la, const LlcMeta& m,
                                        const sim::JoinerPtr& join,
                                        Cycle delay) {
  stats_.flush_llc_lines.inc();
  CoreMask copies = m.sharers;
  if (m.owner != kInvalidCore) copies.set(m.owner);
  copies.for_each([&](CoreId t) {
    join->add();
    eq_.schedule_in(delay, [this, bank, t, la, join] {
      net_.send(bank, t, MsgClass::Control, [this, t, la, join] {
        l1_invalidate(t, la, /*writeback_to_memory=*/true);
        join->complete();
      });
    });
  });
  if (m.dirty) {
    stats_.flush_writebacks.inc();
    join->add();
    const unsigned mc = mcs_.index_for(la);
    eq_.schedule_in(delay, [this, bank, mc, join] {
      net_.send(bank, mcs_.tile_of(mc), MsgClass::Data, [this, mc, join] {
        mcs_.mc(mc).request(eq_.now(), AccessKind::Write);
        join->complete();
      });
    });
  }
}

}  // namespace tdn::coherence
