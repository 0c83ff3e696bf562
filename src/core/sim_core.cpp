#include "core/sim_core.hpp"

#include "common/require.hpp"

namespace tdn::core {

SimCore::SimCore(CoreId id, sim::EventQueue& eq,
                 coherence::CoherentSystem& caches, mem::PageTable& pt,
                 CoreConfig cfg, mem::TlbConfig tlb_cfg, vm::VmConfig vm_cfg)
    : id_(id), eq_(eq), caches_(caches), pt_(pt), cfg_(cfg),
      mmu_(id, eq, &caches, pt, tlb_cfg, vm_cfg) {}

void SimCore::execute(const TaskProgram& prog, std::function<void()> done) {
  TDN_REQUIRE(!running_, "core is already executing");
  running_ = true;
  prog_ = &prog;
  stream_ = std::make_unique<AccessStream>(prog, caches_.config().l1.line_size);
  done_ = std::move(done);
  stream_exhausted_ = false;
  stalled_on_store_buffer_ = false;
  task_start_ = eq_.now();
  task_ideal_ = 0;
  step();
}

void SimCore::busy(Cycle cycles, std::function<void()> done) {
  TDN_REQUIRE(!running_, "core is already executing");
  busy_cycles_ += cycles;
  eq_.schedule_in(cycles, std::move(done));
}

void SimCore::step() {
  AccessOp op;
  if (!stream_->next(op)) {
    stream_exhausted_ = true;
    finish_if_drained();
    return;
  }
  // Translation: on a TLB hit and in legacy mode the continuation runs in
  // place and nothing is allocated; on a vm-mode TLB miss it fires when the
  // page walk's PTE loads return from the hierarchy — the core is stalled on
  // translation until then.
  mmu_.translate(op.vaddr, [this, op](Cycle tlb_lat, Addr paddr) {
    const Cycle issue_at = eq_.now() + op.compute + tlb_lat;
    // Ideal-timeline accounting (obs critical path): the cycles this op
    // costs with every access an L1 hit. Pure arithmetic — never feeds back
    // into the simulated timing.
    task_ideal_ += op.compute + tlb_lat +
                   (op.kind == AccessKind::Read ? cfg_.load_issue_cost
                                                : cfg_.store_issue_cost);

    if (op.kind == AccessKind::Read) {
      loads_.inc();
      eq_.schedule_at(issue_at, [this, op, paddr] {
        const unsigned window = op.mlp != 0 ? op.mlp : cfg_.load_window;
        if (loads_in_flight_ >= window) {
          // Load window full: stall until an outstanding load returns.
          stalled_on_load_window_ = true;
          resume_load_ = [this, op, paddr] { issue_load(op, paddr); };
          return;
        }
        issue_load(op, paddr);
      });
      return;
    }

    stores_.inc();
    eq_.schedule_at(issue_at, [this, op, paddr] {
      if (stores_in_flight_ >= cfg_.store_buffer_entries) {
        // Store buffer full: stall until a slot frees (resume handled by the
        // completion callback of an outstanding store).
        stalled_on_store_buffer_ = true;
        // Re-issue this store when unstalled: wrap the op in a resume
        // closure.
        resume_store_ = [this, op, paddr] { issue_store(op, paddr); };
        return;
      }
      issue_store(op, paddr);
    });
  });
}

void SimCore::issue_load(const AccessOp& op, Addr paddr) {
  ++loads_in_flight_;
  caches_.access(id_, op.vaddr, paddr, AccessKind::Read, [this](Cycle) {
    TDN_ASSERT(loads_in_flight_ > 0);
    --loads_in_flight_;
    if (stalled_on_load_window_) {
      stalled_on_load_window_ = false;
      eq_.schedule_in(0, std::move(resume_load_));
    } else {
      finish_if_drained();
    }
  });
  // Overlapped loads: the core keeps issuing after the issue cost; data
  // dependencies are approximated by the window bound.
  eq_.schedule_in(cfg_.load_issue_cost, [this] { step(); });
}

void SimCore::issue_store(const AccessOp& op, Addr paddr) {
  ++stores_in_flight_;
  caches_.access(id_, op.vaddr, paddr, AccessKind::Write, [this](Cycle) {
    TDN_ASSERT(stores_in_flight_ > 0);
    --stores_in_flight_;
    if (stalled_on_store_buffer_) {
      stalled_on_store_buffer_ = false;
      eq_.schedule_in(0, std::move(resume_store_));
    } else {
      finish_if_drained();
    }
  });
  // The core moves on after the issue cost; the store drains asynchronously.
  eq_.schedule_in(cfg_.store_issue_cost, [this] { step(); });
}

void SimCore::finish_if_drained() {
  if (!running_ || !stream_exhausted_ || stores_in_flight_ != 0 ||
      loads_in_flight_ != 0)
    return;
  running_ = false;
  task_cycles_ += eq_.now() - task_start_;
  stream_.reset();
  prog_ = nullptr;
  auto done = std::move(done_);
  done_ = nullptr;
  done();
}

}  // namespace tdn::core
