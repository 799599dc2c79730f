// AdmissionController unit tests: the Dynamic -> Subset -> None ladder over
// the const pricing model, grant sharing, release, deterministic budget
// arbitration, and replay reconciliation -- all sim-free.
#include "service/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace dyntrace::service {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols(int fns) {
  auto table = std::make_shared<image::SymbolTable>();
  for (int i = 0; i < fns; ++i) table->add("fn" + std::to_string(i), "mod.c");
  return table;
}

// active = 20'000 ns/pair at the 1000 Hz default rate -> 2% per function;
// residual -> 0.05% per function.  Budget 5%: two functions fit active,
// the third only filtered.
AdmissionController make_controller(int fns = 8, sim::TimeNs active = 20'000,
                                    sim::TimeNs residual = 500) {
  return AdmissionController(make_symbols(fns), control::PairPrice{active, residual},
                             AdmissionOptions{0.05, 1000.0});
}

TEST(Admission, AdmitsWithinBudget) {
  AdmissionController ctl = make_controller();
  const AdmitResult result = ctl.admit(0, {0});
  EXPECT_EQ(result.decision, AdmitDecision::kAdmitted);
  EXPECT_EQ(result.install, (std::vector<image::FunctionId>{0}));
  EXPECT_TRUE(result.directives.empty());
  EXPECT_NEAR(result.projected_fraction, 0.02, 1e-12);
  EXPECT_TRUE(ctl.installed(0));
  EXPECT_FALSE(ctl.filtered(0));
}

TEST(Admission, SharedFunctionsArePricedOnce) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  const AdmitResult shared = ctl.admit(1, {0, 1});
  EXPECT_EQ(shared.decision, AdmitDecision::kAdmitted);
  EXPECT_TRUE(shared.install.empty());  // probes already in
  EXPECT_NEAR(shared.projected_fraction, 0.04, 1e-12);
  EXPECT_EQ(ctl.holders(0), 2);
}

TEST(Admission, DegradesWhenOnlyResidualFits) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});  // 4% active
  const AdmitResult result = ctl.admit(1, {2});
  EXPECT_EQ(result.decision, AdmitDecision::kDegraded);
  EXPECT_EQ(result.install, (std::vector<image::FunctionId>{2}));
  ASSERT_EQ(result.directives.size(), 1u);
  EXPECT_FALSE(result.directives[0].activate);
  EXPECT_EQ(result.directives[0].pattern, "fn2");
  EXPECT_TRUE(ctl.filtered(2));
  EXPECT_LE(result.projected_fraction, 0.05 + 1e-12);
}

TEST(Admission, JoiningADegradedGrantReportsDegraded) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  ctl.admit(1, {2});  // degraded
  const AdmitResult join = ctl.admit(2, {2});
  EXPECT_EQ(join.decision, AdmitDecision::kDegraded);
  EXPECT_TRUE(join.install.empty());
}

TEST(Admission, DeniesWhenEvenResidualExceeds) {
  // Residual as expensive as active: nothing fits once 4% is committed.
  AdmissionController ctl = make_controller(8, 20'000, 20'000);
  ctl.admit(0, {0, 1});
  const AdmitResult denied = ctl.admit(1, {2});
  EXPECT_EQ(denied.decision, AdmitDecision::kDenied);
  EXPECT_TRUE(denied.install.empty());
  EXPECT_FALSE(ctl.installed(2));
  EXPECT_EQ(ctl.holders(2), 0);
  EXPECT_NEAR(ctl.priced_fraction(), 0.04, 1e-12);  // unchanged
}

TEST(Admission, ReleaseRemovesAndReactivates) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  ctl.admit(1, {2});  // degraded, filtered
  const ReleaseResult released = ctl.release(1);
  EXPECT_EQ(released.remove, (std::vector<image::FunctionId>{2}));
  ASSERT_EQ(released.directives.size(), 1u);
  EXPECT_TRUE(released.directives[0].activate);  // clear the filter entry
  EXPECT_FALSE(ctl.installed(2));
  EXPECT_FALSE(ctl.filtered(2));
  // Headroom restored: the set fits active again.
  const AdmitResult again = ctl.admit(2, {2});
  EXPECT_EQ(again.decision, AdmitDecision::kDegraded);  // 6% active > 5%
}

TEST(Admission, SharedReleaseKeepsProbes) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0});
  ctl.admit(1, {0});
  EXPECT_TRUE(ctl.release(0).remove.empty());  // session 1 still holds fn0
  EXPECT_TRUE(ctl.installed(0));
  EXPECT_EQ(ctl.release(1).remove, (std::vector<image::FunctionId>{0}));
  EXPECT_FALSE(ctl.installed(0));
}

TEST(Admission, ArbitrateFlipsMostExpensiveFirst) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  // fn0's observed rate triples: 6% + 2% > 5% budget.
  ctl.update_rate(0, 3000.0);
  const ArbitrateResult result = ctl.arbitrate();
  EXPECT_EQ(result.flipped, (std::vector<image::FunctionId>{0}));
  ASSERT_EQ(result.directives.size(), 1u);
  EXPECT_FALSE(result.directives[0].activate);
  EXPECT_EQ(result.directives[0].pattern, "fn0");
  EXPECT_FALSE(result.at_floor);
  EXPECT_TRUE(ctl.filtered(0));
  EXPECT_LE(ctl.priced_fraction(), 0.05 + 1e-12);
}

TEST(Admission, ArbitrateReportsFloor) {
  AdmissionController ctl = make_controller(8, 20'000, 18'000);
  ctl.admit(0, {0, 1});
  ctl.update_rate(0, 10'000.0);
  ctl.update_rate(1, 10'000.0);
  const ArbitrateResult result = ctl.arbitrate();
  // Everything flipped, residual alone still exceeds the budget.
  EXPECT_EQ(result.flipped, (std::vector<image::FunctionId>{0, 1}));
  EXPECT_TRUE(result.at_floor);
  EXPECT_GT(ctl.priced_fraction(), 0.05);
}

// Budget wide enough that every grant admits fully active; observed rates
// then push the priced total past it, forcing arbitration.
AdmissionController make_wide_controller() {
  return AdmissionController(make_symbols(8), control::PairPrice{20'000, 500},
                             AdmissionOptions{0.10, 1000.0});
}

TEST(Admission, ArbitrateChargesTheCostliestSessionNotTheCostliestFunction) {
  AdmissionController ctl = make_wide_controller();
  // s0 holds fn0 + fn1 at 3.2% each (6.4% attributed); s1 holds only fn2,
  // the single most expensive function at 4%.  Total 10.4% > 10%.
  ctl.admit(0, {0, 1});
  ctl.admit(1, {2});
  ctl.update_rate(0, 1600.0);
  ctl.update_rate(1, 1600.0);
  ctl.update_rate(2, 2000.0);
  const ArbitrateResult result = ctl.arbitrate();
  // Pure-price arbitration would flip fn2 and charge the light session;
  // fair-share degrades the heavy session's own most expensive function
  // (fn0 on the 3.2%/3.2% tie, lowest id).
  EXPECT_EQ(result.flipped, (std::vector<image::FunctionId>{0}));
  EXPECT_EQ(result.fairshare_flips, 1u);
  ASSERT_EQ(result.directives.size(), 1u);
  EXPECT_EQ(result.directives[0].pattern, "fn0");
  EXPECT_TRUE(ctl.filtered(0));
  EXPECT_FALSE(ctl.filtered(2));
  EXPECT_LE(ctl.priced_fraction(), 0.10 + 1e-12);
}

TEST(Admission, SharedHoldersSplitTheAttributedCost) {
  AdmissionController ctl = make_wide_controller();
  // fn0 (7%) is shared by s0 and s1 -> 3.5% attributed to each; s2 alone
  // holds fn1 + fn2 (4%), making it the costliest session even though it
  // holds no single function as expensive as fn0.
  ctl.admit(0, {0});
  ctl.admit(1, {0});
  ctl.admit(2, {1, 2});
  ctl.update_rate(0, 3500.0);
  const ArbitrateResult result = ctl.arbitrate();
  ASSERT_FALSE(result.flipped.empty());
  // First victim: s2's most expensive active function, fn1 (lowest id on
  // the 2%/2% tie) -- not the globally priciest fn0.
  EXPECT_EQ(result.flipped.front(), image::FunctionId{1});
  EXPECT_GE(result.fairshare_flips, 1u);
  EXPECT_LE(ctl.priced_fraction(), 0.10 + 1e-12);
}

TEST(Admission, UpdateRateIgnoresNeverInstalledFunctions) {
  AdmissionController ctl = make_controller();
  // A stale rate report for a function nobody holds (e.g. its last holder
  // detached while the report was in flight) must not seed pricing state.
  ctl.update_rate(5, 50'000.0);
  ctl.update_rate(999, 50'000.0);  // out of range entirely
  EXPECT_EQ(ctl.rate_updates_ignored(), 2u);
  // A later grant prices fn5 at the default rate, not the stale report.
  const AdmitResult result = ctl.admit(0, {5});
  EXPECT_EQ(result.decision, AdmitDecision::kAdmitted);
  EXPECT_NEAR(result.projected_fraction, 0.02, 1e-12);
  // Held functions accept updates as before.
  ctl.update_rate(5, 2000.0);
  EXPECT_EQ(ctl.rate_updates_ignored(), 2u);
  EXPECT_NEAR(ctl.priced_fraction(), 0.04, 1e-12);
}

TEST(Admission, ReplayReconcilesFilterIntent) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0, 1});
  ctl.admit(1, {2});  // fn2 filtered
  EXPECT_TRUE(ctl.filtered(2));
  // A session's own confsync reactivated fn2 at the safe point; replay
  // mirrors the applied program, so the priced state follows the image.
  ctl.replay({{/*activate=*/true, "fn2"}});
  EXPECT_FALSE(ctl.filtered(2));
  // And arbitration restores the invariant deterministically.
  const ArbitrateResult result = ctl.arbitrate();
  EXPECT_FALSE(result.flipped.empty());
  EXPECT_LE(ctl.priced_fraction(), 0.05 + 1e-12);
}

TEST(Admission, ReplayIgnoresUnheldFunctions) {
  AdmissionController ctl = make_controller();
  ctl.replay({{/*activate=*/false, "fn5"}});
  EXPECT_FALSE(ctl.filtered(5));  // nobody holds fn5; intent untouched
}

TEST(Admission, RepeatGrantIsIdempotent) {
  AdmissionController ctl = make_controller();
  ctl.admit(0, {0});
  const AdmitResult repeat = ctl.admit(0, {0, 0});
  EXPECT_EQ(repeat.decision, AdmitDecision::kAdmitted);
  EXPECT_TRUE(repeat.install.empty());
  EXPECT_EQ(ctl.holders(0), 1);
  EXPECT_EQ(ctl.release(0).remove, (std::vector<image::FunctionId>{0}));
}


// --- memo oracle ---------------------------------------------------------------

/// The test's own view of the controller: which session holds what, which
/// functions are filtered, and which rates were fed while held.  The priced
/// fraction is summed from it in id order with the same per-term pricing.
struct OracleModel {
  control::PairPrice price;
  double default_rate = 0.0;
  std::shared_ptr<const image::SymbolTable> symbols;
  std::map<SessionId, std::set<image::FunctionId>> held;
  std::vector<bool> filtered;
  std::map<image::FunctionId, double> rates;

  int holders(image::FunctionId fn) const {
    int n = 0;
    for (const auto& [session, fns] : held) n += fns.count(fn) > 0 ? 1 : 0;
    return n;
  }
  double priced() const {
    double total = 0.0;
    for (image::FunctionId fn = 0; fn < filtered.size(); ++fn) {
      if (holders(fn) == 0) continue;
      const auto rate = rates.find(fn);
      total += control::overhead_fraction(filtered[fn] ? price.residual : price.active,
                                          rate != rates.end() ? rate->second : default_rate);
    }
    return total;
  }
  image::FunctionId id(const std::string& name) const { return symbols->find(name)->id; }
};

void expect_same(const AdmitResult& a, const AdmitResult& b) {
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.install, b.install);
  ASSERT_EQ(a.directives.size(), b.directives.size());
  for (std::size_t i = 0; i < a.directives.size(); ++i) {
    EXPECT_EQ(a.directives[i].activate, b.directives[i].activate);
    EXPECT_EQ(a.directives[i].pattern, b.directives[i].pattern);
  }
  EXPECT_EQ(a.projected_fraction, b.projected_fraction);
}

/// Seeded random admit / release / update_rate / arbitrate / replay runs.
/// After every operation priced_fraction() must equal the oracle's sum bit
/// for bit -- a stale memo shows as a mismatch.  `ctl` sees every operation;
/// `twin` never sees the admits that `ctl` denied, so any trace a denial
/// left behind would make the two diverge in a later decision.
TEST(Admission, MemoizedPricedFractionMatchesAnIndependentSum) {
  constexpr int kFns = 12;
  std::uint64_t denials = 0, degrades = 0, flips = 0, replays = 0, releases = 0;
  for (const sim::TimeNs residual : {sim::TimeNs{500}, sim::TimeNs{9'000}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " residual " << residual);
      const auto symbols = make_symbols(kFns);
      const control::PairPrice price{20'000, residual};
      const AdmissionOptions options{0.05, 1000.0};
      AdmissionController ctl(symbols, price, options);
      AdmissionController twin(symbols, price, options);
      OracleModel model{price, options.default_rate_hz, symbols, {}, std::vector<bool>(kFns), {}};
      Rng rng(seed);
      for (int step = 0; step < 300; ++step) {
        const SessionId session = static_cast<SessionId>(rng.next_below(6));
        switch (rng.next_below(8)) {
          case 0:
          case 1:
          case 2: {
            std::vector<image::FunctionId> fns;
            const int n = 1 + static_cast<int>(rng.next_below(4));
            for (int k = 0; k < n; ++k) {
              fns.push_back(static_cast<image::FunctionId>(rng.next_below(kFns)));
            }
            const std::vector<int> before_holders = [&] {
              std::vector<int> h;
              for (image::FunctionId fn = 0; fn < kFns; ++fn) h.push_back(ctl.holders(fn));
              return h;
            }();
            const std::size_t before_installed = ctl.installed_count();
            const AdmitResult result = ctl.admit(session, fns);
            if (result.decision == AdmitDecision::kDenied) {
              ++denials;
              for (image::FunctionId fn = 0; fn < kFns; ++fn) {
                EXPECT_EQ(ctl.holders(fn), before_holders[fn]);
              }
              EXPECT_EQ(ctl.installed_count(), before_installed);
              EXPECT_EQ(result.projected_fraction, model.priced());
              break;
            }
            expect_same(result, twin.admit(session, fns));
            if (result.decision == AdmitDecision::kDegraded) ++degrades;
            for (const image::FunctionId fn : result.install) model.filtered[fn] = false;
            for (const auto& directive : result.directives) {
              model.filtered[model.id(directive.pattern)] = !directive.activate;
            }
            model.held[session].insert(fns.begin(), fns.end());
            break;
          }
          case 3: {
            const ReleaseResult a = ctl.release(session);
            const ReleaseResult b = twin.release(session);
            EXPECT_EQ(a.remove, b.remove);
            EXPECT_EQ(a.directives.size(), b.directives.size());
            releases += model.held.erase(session);
            for (const image::FunctionId fn : a.remove) model.filtered[fn] = false;
            break;
          }
          case 4: {
            // Out-of-range and unheld ids too: those must be ignored.
            const auto fn = static_cast<image::FunctionId>(rng.next_below(kFns + 2));
            const double rate = rng.uniform(0.0, 6000.0);
            ctl.update_rate(fn, rate);
            twin.update_rate(fn, rate);
            if (fn < kFns && model.holders(fn) > 0) model.rates[fn] = rate;
            EXPECT_EQ(ctl.rate_updates_ignored(), twin.rate_updates_ignored());
            break;
          }
          case 5: {
            const ArbitrateResult a = ctl.arbitrate();
            const ArbitrateResult b = twin.arbitrate();
            EXPECT_EQ(a.flipped, b.flipped);
            EXPECT_EQ(a.at_floor, b.at_floor);
            EXPECT_EQ(a.fairshare_flips, b.fairshare_flips);
            flips += a.flipped.size();
            for (const image::FunctionId fn : a.flipped) model.filtered[fn] = true;
            break;
          }
          default: {
            // A program mixing literal names and globs, as a safe point
            // would apply it.
            vt::FilterProgram program;
            const int n = 1 + static_cast<int>(rng.next_below(3));
            for (int k = 0; k < n; ++k) {
              const bool activate = rng.next_below(2) == 0;
              const int fn = static_cast<int>(rng.next_below(kFns));
              program.push_back(
                  {activate, rng.next_below(4) == 0 ? "fn1*" : "fn" + std::to_string(fn)});
            }
            ctl.replay(program);
            twin.replay(program);
            ++replays;
            for (const auto& directive : program) {
              for (const image::FunctionInfo& f : symbols->all()) {
                if (str::glob_match(directive.pattern, f.name) && model.holders(f.id) > 0) {
                  model.filtered[f.id] = !directive.activate;
                }
              }
            }
            break;
          }
        }
        ASSERT_EQ(ctl.priced_fraction(), model.priced()) << "step " << step;
        ASSERT_EQ(twin.priced_fraction(), ctl.priced_fraction()) << "step " << step;
        for (image::FunctionId fn = 0; fn < kFns; ++fn) {
          ASSERT_EQ(ctl.holders(fn), model.holders(fn)) << "fn " << fn;
          ASSERT_EQ(ctl.filtered(fn), model.filtered[fn]) << "fn " << fn;
        }
      }
    }
  }
  // The runs must have reached every path the memo has to follow.
  EXPECT_GT(denials, 0u);
  EXPECT_GT(degrades, 0u);
  EXPECT_GT(flips, 0u);
  EXPECT_GT(replays, 0u);
  EXPECT_GT(releases, 0u);
}

}  // namespace
}  // namespace dyntrace::service
