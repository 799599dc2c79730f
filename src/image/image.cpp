#include "image/image.hpp"

#include "support/common.hpp"

namespace dyntrace::image {

const char* to_string(ProbeWhere where) {
  return where == ProbeWhere::kEntry ? "entry" : "exit";
}

ProgramImage::ProgramImage(std::shared_ptr<const SymbolTable> symbols)
    : symbols_(std::move(symbols)) {
  DT_ASSERT(symbols_ != nullptr);
  state_.resize(symbols_->size());
}

void ProgramImage::set_static_instrumented(FunctionId fn, bool on) {
  DT_ASSERT(fn < state_.size());
  state_[fn].static_instrumented = on;
}

bool ProgramImage::static_instrumented(FunctionId fn) const {
  DT_ASSERT(fn < state_.size());
  return state_[fn].static_instrumented;
}

std::size_t ProgramImage::static_instrumented_count() const {
  std::size_t n = 0;
  for (const auto& s : state_) n += s.static_instrumented ? 1 : 0;
  return n;
}

const ProgramImage::PointPtr& ProgramImage::point_ptr(FunctionId fn, ProbeWhere where) const {
  DT_ASSERT(fn < state_.size(), "function id out of range");
  return state_[fn].points[static_cast<int>(where)];
}

const ProbePoint& ProgramImage::point(FunctionId fn, ProbeWhere where) const {
  static const ProbePoint kUnpatched;
  const PointPtr& p = point_ptr(fn, where);
  return p != nullptr ? *p : kUnpatched;
}

void ProgramImage::publish(FunctionId fn, ProbeWhere where, ProbePoint p) {
  p.chain.clear();
  for (const auto& probe : p.minis) {
    if (probe.active) p.chain.push_back(probe.snippet);
  }
  state_[fn].points[static_cast<int>(where)] =
      p.minis.empty() ? nullptr : std::make_shared<const ProbePoint>(std::move(p));
  ++patch_epoch_;
}

ProbeHandle ProgramImage::install_probe(FunctionId fn, ProbeWhere where, SnippetPtr snippet,
                                        bool active) {
  DT_ASSERT(snippet != nullptr, "cannot install a null snippet");
  ProbePoint p = point(fn, where);
  const ProbeHandle handle{next_handle_++};
  p.minis.push_back(InstalledProbe{handle, std::move(snippet), active});
  publish(fn, where, std::move(p));
  return handle;
}

bool ProgramImage::find_probe(ProbeHandle handle, FunctionId* fn_out,
                              ProbeWhere* where_out) const {
  for (FunctionId fn = 0; fn < state_.size(); ++fn) {
    for (int w = 0; w < 2; ++w) {
      const PointPtr& p = state_[fn].points[w];
      if (p == nullptr) continue;
      for (const auto& probe : p->minis) {
        if (probe.handle == handle) {
          *fn_out = fn;
          *where_out = static_cast<ProbeWhere>(w);
          return true;
        }
      }
    }
  }
  return false;
}

bool ProgramImage::remove_probe(ProbeHandle handle) {
  FunctionId fn = kInvalidFunction;
  ProbeWhere where = ProbeWhere::kEntry;
  if (!find_probe(handle, &fn, &where)) return false;
  ProbePoint p = point(fn, where);
  std::erase_if(p.minis, [handle](const InstalledProbe& probe) { return probe.handle == handle; });
  publish(fn, where, std::move(p));
  return true;
}

bool ProgramImage::set_probe_active(ProbeHandle handle, bool active) {
  FunctionId fn = kInvalidFunction;
  ProbeWhere where = ProbeWhere::kEntry;
  if (!find_probe(handle, &fn, &where)) return false;
  ProbePoint p = point(fn, where);
  for (auto& probe : p.minis) {
    if (probe.handle == handle && probe.active != active) {
      probe.active = active;
      publish(fn, where, std::move(p));
      break;
    }
  }
  return true;
}

const ProbePoint& ProgramImage::probe_point(FunctionId fn, ProbeWhere where) const {
  return point(fn, where);
}

std::shared_ptr<const SnippetChain> ProgramImage::active_chain(FunctionId fn,
                                                               ProbeWhere where) const {
  const PointPtr& p = point_ptr(fn, where);
  if (p == nullptr || p->chain.empty()) return nullptr;
  return std::shared_ptr<const SnippetChain>(p, &p->chain);  // shares the point's ownership
}

sim::TimeNs ProgramImage::trampoline_overhead(FunctionId fn, ProbeWhere where,
                                              const machine::CostModel& costs) const {
  const PointPtr& p = point_ptr(fn, where);
  if (p == nullptr) return 0;  // no base trampoline
  return costs.tramp_jump + costs.tramp_save_regs + costs.tramp_restore_regs +
         costs.tramp_relocated_insn +
         static_cast<sim::TimeNs>(p->chain.size()) * costs.tramp_mini_dispatch;
}

std::size_t ProgramImage::installed_probe_count() const {
  std::size_t n = 0;
  for (const auto& s : state_) {
    for (const auto& p : s.points) n += p != nullptr ? p->minis.size() : 0;
  }
  return n;
}

std::size_t ProgramImage::active_probe_count() const {
  std::size_t n = 0;
  for (const auto& s : state_) {
    for (const auto& p : s.points) n += p != nullptr ? p->chain.size() : 0;
  }
  return n;
}

}  // namespace dyntrace::image
