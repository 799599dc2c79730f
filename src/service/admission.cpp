#include "service/admission.hpp"

#include <algorithm>

#include "support/common.hpp"

namespace dyntrace::service {

AdmissionController::AdmissionController(
    std::shared_ptr<const image::SymbolTable> symbols, control::PairPrice pair_price,
    AdmissionOptions options)
    : symbols_(std::move(symbols)), price_(pair_price), options_(options) {
  DT_EXPECT(symbols_ != nullptr, "admission controller needs a symbol table");
  fns_.resize(symbols_->size());
}

AdmitResult AdmissionController::admit(SessionId session,
                                       const std::vector<image::FunctionId>& fns) {
  AdmitResult result;

  // Deduplicate the request and drop functions the session already holds
  // (a repeat grant must not double-count holders).  Nothing below mutates
  // state until the request is known to fit.
  unique_.assign(fns.begin(), fns.end());
  std::sort(unique_.begin(), unique_.end());
  unique_.erase(std::unique(unique_.begin(), unique_.end()), unique_.end());
  const auto grant = grants_.find(session);
  fresh_.clear();
  for (const image::FunctionId fn : unique_) {
    DT_ASSERT(fn < fns_.size(), "admit: function id out of range");
    if (grant == grants_.end() ||
        std::find(grant->second.begin(), grant->second.end(), fn) == grant->second.end()) {
      fresh_.push_back(fn);
    }
  }

  // The marginal cost is the functions nobody holds yet; shared functions
  // are already priced in.
  double marginal_active = 0.0;
  double marginal_residual = 0.0;
  bool touches_degraded = false;
  for (const image::FunctionId fn : fresh_) {
    const FnState& state = fns_[fn];
    if (state.holders > 0) {
      if (state.filtered) touches_degraded = true;
      continue;
    }
    const double r = rate(state);
    marginal_active += control::overhead_fraction(price_.active, r);
    marginal_residual += control::overhead_fraction(price_.residual, r);
  }

  const double priced = priced_fraction();
  const bool fits_active = priced + marginal_active <= options_.budget_fraction;
  const bool fits_residual = priced + marginal_residual <= options_.budget_fraction;
  if (!fits_active && !fits_residual) {
    result.decision = AdmitDecision::kDenied;
    result.projected_fraction = priced;
    return result;
  }

  std::vector<image::FunctionId>& held = grants_[session];
  for (const image::FunctionId fn : fresh_) {
    FnState& state = fns_[fn];
    if (state.holders == 0) {
      result.install.push_back(fn);
      state.filtered = !fits_active;
      if (state.filtered) {
        result.directives.push_back({/*activate=*/false, symbols_->at(fn).name});
      }
    }
    ++state.holders;
    held.push_back(fn);
  }
  priced_stale_ = true;
  result.decision = (!fits_active || touches_degraded) ? AdmitDecision::kDegraded
                                                       : AdmitDecision::kAdmitted;
  result.projected_fraction = priced_fraction();
  return result;
}

ReleaseResult AdmissionController::release(SessionId session) {
  ReleaseResult result;
  const auto it = grants_.find(session);
  if (it == grants_.end()) return result;
  for (const image::FunctionId fn : it->second) {
    FnState& state = fns_[fn];
    DT_ASSERT(state.holders > 0, "release: holder underflow");
    if (--state.holders == 0) {
      result.remove.push_back(fn);
      if (state.filtered) {
        result.directives.push_back({/*activate=*/true, symbols_->at(fn).name});
        state.filtered = false;
      }
    }
  }
  std::sort(result.remove.begin(), result.remove.end());
  grants_.erase(it);
  priced_stale_ = true;
  return result;
}

void AdmissionController::update_rate(image::FunctionId fn, double pairs_per_sec) {
  if (fn >= fns_.size() || fns_[fn].holders == 0) {
    ++rate_updates_ignored_;
    return;
  }
  fns_[fn].rate_hz = pairs_per_sec;
  fns_[fn].rate_observed = true;
  priced_stale_ = true;
}

ArbitrateResult AdmissionController::arbitrate() {
  ArbitrateResult result;
  // grants_ in ascending session id, built when the first victim is sought
  // (no session joins or leaves during arbitration, so the pointers stay
  // valid).
  using Grant = std::pair<const SessionId, std::vector<image::FunctionId>>;
  std::vector<const Grant*> by_session;
  while (priced_fraction() > options_.budget_fraction) {
    // The legacy (pure-price) victim: most expensive active function
    // overall, lowest id on ties.  Kept as the fairness-divergence baseline.
    image::FunctionId priciest = image::kInvalidFunction;
    double worst = 0.0;
    for (image::FunctionId fn = 0; fn < fns_.size(); ++fn) {
      const FnState& state = fns_[fn];
      if (state.holders == 0 || state.filtered) continue;
      const double f = fraction(state);
      if (priciest == image::kInvalidFunction || f > worst) {
        priciest = fn;
        worst = f;
      }
    }
    if (priciest == image::kInvalidFunction) {
      result.at_floor = true;
      break;
    }

    // Fair-share victim: charge each session its attributed cost -- active
    // fractions split evenly across holders -- and degrade the costliest
    // session's most expensive active function.  Sessions are visited in
    // id order, so the strict > keeps the lowest id on ties.
    if (by_session.empty()) {
      by_session.reserve(grants_.size());
      for (const Grant& grant : grants_) by_session.push_back(&grant);
      std::sort(by_session.begin(), by_session.end(),
                [](const Grant* a, const Grant* b) { return a->first < b->first; });
    }
    const Grant* victim_grant = nullptr;
    double victim_cost = -1.0;
    for (const Grant* grant : by_session) {
      double cost = 0.0;
      for (const image::FunctionId fn : grant->second) {
        const FnState& state = fns_[fn];
        if (state.filtered) continue;
        cost += fraction(state) / static_cast<double>(state.holders);
      }
      if (cost > victim_cost + 1e-15) {
        victim_grant = grant;
        victim_cost = cost;
      }
    }
    image::FunctionId victim = image::kInvalidFunction;
    double victim_fraction = 0.0;
    if (victim_cost > 0.0) {
      std::vector<image::FunctionId> held = victim_grant->second;
      std::sort(held.begin(), held.end());
      for (const image::FunctionId fn : held) {
        const FnState& state = fns_[fn];
        if (state.filtered) continue;
        const double f = fraction(state);
        if (victim == image::kInvalidFunction || f > victim_fraction + 1e-15) {
          victim = fn;
          victim_fraction = f;
        }
      }
    }
    if (victim == image::kInvalidFunction) victim = priciest;
    if (victim != priciest) ++result.fairshare_flips;

    fns_[victim].filtered = true;
    priced_stale_ = true;
    result.flipped.push_back(victim);
    result.directives.push_back({/*activate=*/false, symbols_->at(victim).name});
  }
  return result;
}

void AdmissionController::replay(const vt::FilterProgram& applied) {
  for (const auto& directive : applied) {
    for (const image::FunctionId fn : symbols_->match(directive.pattern)) {
      if (fns_[fn].holders > 0) {
        fns_[fn].filtered = !directive.activate;
        priced_stale_ = true;
      }
    }
  }
}

double AdmissionController::priced_fraction() const {
  if (priced_stale_) {
    double total = 0.0;
    for (const FnState& state : fns_) {
      if (state.holders > 0) total += fraction(state);
    }
    priced_ = total;
    priced_stale_ = false;
  }
  return priced_;
}

bool AdmissionController::installed(image::FunctionId fn) const {
  return fn < fns_.size() && fns_[fn].holders > 0;
}

bool AdmissionController::filtered(image::FunctionId fn) const {
  return fn < fns_.size() && fns_[fn].filtered;
}

int AdmissionController::holders(image::FunctionId fn) const {
  return fn < fns_.size() ? fns_[fn].holders : 0;
}

std::size_t AdmissionController::installed_count() const {
  std::size_t count = 0;
  for (const FnState& state : fns_) count += state.holders > 0 ? 1 : 0;
  return count;
}

}  // namespace dyntrace::service
