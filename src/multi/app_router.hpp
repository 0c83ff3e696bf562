// AppRouter — the one MappingPolicy a multiprogram CoherentSystem sees.
//
// The coherent hierarchy consults a single policy object; in a mix, each app
// brings its own (with its own RRTs, page classifications and partition
// masks). The router dispatches every map()/on_access() to the policy of the
// app that owns the address — cheap and unambiguous, because colocated apps
// live kAppStride apart in virtual memory (mix.hpp). Writebacks never reach
// the router: the L1 remembers each line's home bank (L1Meta::home).
#pragma once

#include <vector>

#include "common/require.hpp"
#include "multi/mix.hpp"
#include "nuca/mapping.hpp"

namespace tdn::multi {

class AppRouter final : public nuca::MappingPolicy {
 public:
  /// @p apps in app-index order; the router does not own them. With
  /// @p wrap, the owner index is taken modulo the slot count: tdn::serve
  /// gives every *request* a fresh kAppStride-aligned address-space slice
  /// (slice s + slots * generation), so the wrap maps each slice back to
  /// the worker slot serving it.
  explicit AppRouter(std::vector<nuca::MappingPolicy*> apps, bool wrap = false)
      : apps_(std::move(apps)), wrap_(wrap) {
    TDN_REQUIRE(!apps_.empty(), "router needs at least one app policy");
  }

  const char* name() const override { return "multi-router"; }

  nuca::MapDecision map(CoreId core, Addr vaddr, Addr paddr,
                        AccessKind kind) override {
    return app_policy(vaddr).map(core, vaddr, paddr, kind);
  }

  void on_access(CoreId core, Addr vaddr, AccessKind kind) override {
    app_policy(vaddr).on_access(core, vaddr, kind);
  }

  /// Swap the policy behind slot @p idx (tdn::serve adaptive switching:
  /// future dispatches on the slot route through a different policy; the
  /// old one keeps serving its still-cached lines by L1 home, which never
  /// consults the router).
  void set_policy(unsigned idx, nuca::MappingPolicy* p) {
    TDN_REQUIRE(idx < apps_.size(), "slot index out of range");
    TDN_REQUIRE(p != nullptr, "null slot policy");
    apps_[idx] = p;
  }

 private:
  nuca::MappingPolicy& app_policy(Addr vaddr) {
    unsigned a = app_of_vaddr(vaddr);
    if (wrap_) a %= static_cast<unsigned>(apps_.size());
    TDN_REQUIRE(a < apps_.size(),
                "address belongs to no colocated app's address space");
    return *apps_[a];
  }

  std::vector<nuca::MappingPolicy*> apps_;
  bool wrap_ = false;
};

}  // namespace tdn::multi
