#include "core/best_response.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/payment.h"
#include "obs/obs.h"
#include "util/audit.h"
#include "util/hot.h"

namespace olev::core {

// Real-time wall manifest (tools/olev_rtcheck.py).  The virtual dispatch
// through Satisfaction / the pricing policy is sanctioned: every concrete
// override is itself a registered hot root, so the subtrees behind the
// indirect calls are checked too.
OLEV_HOT_ROOT("olev::core::best_response_into");
OLEV_RT_VCALL_OK("olev::core::best_response_into",
                 "Satisfaction/SectionCost dispatch; every override is a "
                 "registered hot root");
OLEV_RT_VCALL_OK("olev::core::(anonymous namespace)::SegmentSolver",
                 "Satisfaction::derivative and ::affine_crossing dispatch; "
                 "every override is a registered hot root");

#if OLEV_OBS_ENABLED
namespace {
// Eagerly-bound obs handles: namespace-scope dynamic initialization runs at
// load time, so the hot path carries no __cxa_guard_acquire or registry
// lock (a function-local static would put both on it).
obs::Counter& g_obs_solves =
    obs::Registry::instance().counter("core.best_response.solves");
// Corner solutions report 0 iterations; interior ones their F' evaluations,
// the closing crossing included.
obs::Histogram& g_obs_iterations = obs::Registry::instance().histogram(
    "core.best_response.iterations",
    std::vector<double>(kIterationBounds.begin(), kIterationBounds.end()));
}  // namespace
#endif

namespace {

// One end of the root bracket: a total p, the curve's price Psi'(p) there
// and F'(p) = U'(p) - Psi'(p).
struct BracketEnd {
  double p = 0.0;
  double price = 0.0;
  double f = 0.0;
};

// Psi'(p) = Z'(lambda*(p)) on the paper's corridor, answering the queries
// PriceCurve answers for one cost per section.  Breakpoint k is
// q_k = k * s_k - S_k, where the level reaches s_k; on piece k (between
// q_{k-1} and q_k, k sections loaded) the level is (p + S_k) / k, so Psi'
// is affine there on each side of the hinge.
struct LevelCurve {
  const SectionCost& z;
  const SortedLoads& loads;

  std::size_t size() const { return loads.size(); }
  double total(std::size_t k) const {
    return static_cast<double>(k) * loads.sorted()[k] - loads.prefix()[k];
  }
  double price(std::size_t k) const { return z.derivative(loads.sorted()[k]); }
  // Z' has one kink of its own, where the overload cost A switches on at the
  // safety cap (Eq. 7): on piece k, at the total whose level is the cap.
  // PriceCurve has no such hinge; its cap prices are breakpoints already.
  double hinge(std::size_t k) const {
    return static_cast<double>(k) * z.cap_kw() - loads.prefix()[k];
  }
  double hinge_price() const { return z.derivative(z.cap_kw()); }
  double price_for(Kilowatts p) const {
    return z.derivative(loads.level_for(p));
  }
  double fill_into(Kilowatts p, std::span<double> row, int* active) const {
    return loads.fill_into(p, row, active);
  }
};

// Lemma IV.3 on either curve (LevelCurve or PriceCurve): the corner tests,
// the segment search, the hinge split and the crossing of U' with the
// piece's affine price.
template <class Curve>
struct SegmentSolver {
  const Satisfaction& u;
  const Curve& curve;

  BracketEnd end_at(double p, double price) const {
    return {p, price, u.derivative(p) - price};
  }

  // The interior root of F' given F'(lo.p = 0) > 0 > F'(cap.p = p_max).
  // Adds its F' evaluations to `evaluations`.
  double interior_root(BracketEnd lo, const BracketEnd cap,
                       int& evaluations) const {
    // Segment search over the breakpoints q_k.  Invariant: F'(q_{lo_k}) > 0
    // (with q_0 = 0), and at hi_k either F'(q_{hi_k}) <= 0 or
    // q_{hi_k} >= p_max (hi_k = size() stands for p_max).  It ends with
    // hi_k = lo_k + 1, so the root lies on piece hi_k, between lo.p and hi.p.
    BracketEnd hi = cap;
    std::size_t lo_k = 0;
    std::size_t hi_k = curve.size();
    while (hi_k - lo_k > 1) {
      const std::size_t k = lo_k + (hi_k - lo_k) / 2;
      const double q = curve.total(k);
      if (q >= cap.p) {
        hi_k = k;
        hi = cap;
        continue;
      }
      // q_k <= 0 only when breakpoints 0..k share one price: the price at
      // p = 0 already, so F'(q_k) = F'(0) > 0 and the lower end stays there.
      if (q <= 0.0) {
        lo_k = k;
        continue;
      }
      ++evaluations;
      const BracketEnd at = end_at(q, curve.price(k));
      if (at.f > 0.0) {
        lo_k = k;
        lo = at;
      } else {
        hi_k = k;
        hi = at;
      }
    }

    // Splitting the piece at a hinge leaves one affine piece of Psi'.
    if constexpr (requires { curve.hinge(hi_k); }) {
      const double hinge = curve.hinge(hi_k);
      if (hinge > lo.p && hinge < hi.p) {
        ++evaluations;
        const BracketEnd at = end_at(hinge, curve.hinge_price());
        if (at.f > 0.0) {
          lo = at;
        } else {
          hi = at;
        }
      }
    }

    // Psi' is the line through the two ends now, so the root is where U'
    // meets it, counted as one more evaluation.  A flat piece can read a
    // slope one rounding below 0.
    ++evaluations;
    const double slope =
        std::max(0.0, (hi.price - lo.price) / (hi.p - lo.p));
    return u.affine_crossing(lo.price - slope * lo.p, slope, lo.p, hi.p);
  }

  BestResponseScalars solve(Kilowatts p_max_kw, std::span<double> row) const {
    const double p_max = p_max_kw.value();
    if (p_max < 0.0) {
      util::hot_fail_invalid_argument("best_response: negative p_max");
    }
    if (curve.size() == 0) {
      util::hot_fail_invalid_argument(
          "best_response: need at least one section");
    }
    OLEV_AUDIT_FINITE(p_max, "best_response: p_max");
    BestResponseScalars result;
    // At a zero total the price is breakpoint 0's: the smallest load's Z',
    // or the lowest entry price.
    const BracketEnd zero = end_at(0.0, curve.price(0));
    if (zero.f <= 0.0 || p_max == 0.0) {
      // Marginal price at zero already exceeds marginal satisfaction.
      result.p_star = 0.0;
      result.kind = BestResponse::Case::kCornerZero;
    } else {
      const BracketEnd cap = end_at(p_max, curve.price_for(p_max_kw));
      if (cap.f >= 0.0) {
        result.p_star = p_max;
        result.kind = BestResponse::Case::kCornerCap;
      } else {
        result.p_star = interior_root(zero, cap, result.iterations);
        result.kind = BestResponse::Case::kInterior;
#if OLEV_AUDIT_ENABLED
        // Lemma IV.3's first-order condition, against the curve's own
        // price at p* rather than the line the crossing used.
        const double u_prime = u.derivative(result.p_star);
        const double residual =
            u_prime - curve.price_for(Kilowatts{result.p_star});
        OLEV_AUDIT_CHECK(
            std::abs(residual) <= 1e-9 * std::max(1.0, std::abs(u_prime)),
            "best_response: F'(p*) = " + std::to_string(residual) +
                " at interior p* = " + std::to_string(result.p_star));
#endif
      }
    }
    result.level = curve.fill_into(Kilowatts{result.p_star}, row,
                                   &result.active_sections);
    OLEV_AUDIT_FINITE(result.p_star, "best_response: p_star");
    return result;
  }
};

}  // namespace

double utility_derivative(const Satisfaction& u, const SectionCost& z,
                          std::span<const double> others_load, Kilowatts p) {
  return u.derivative(p.value()) - payment_derivative(z, others_load, p);
}

BestResponse best_response(const Satisfaction& u, const SectionCost& z,
                           std::span<const double> others_load,
                           Kilowatts p_max) {
  return best_response(u, z, SortedLoads(others_load), p_max);
}

BestResponse best_response(const Satisfaction& u, const SectionCost& z,
                           const SortedLoads& others_load, Kilowatts p_max_kw) {
  BestResponse response;
  response.allocation.row.resize(others_load.size());
  const BestResponseScalars scalars =
      best_response_into(u, z, others_load, p_max_kw, response.allocation.row);
  response.p_star = scalars.p_star;
  response.allocation.level = scalars.level;
  response.allocation.active_sections = scalars.active_sections;
  response.payment =
      externality_payment(z, others_load.values(), response.allocation.row);
  response.utility = u.value(response.p_star) - response.payment;
  OLEV_AUDIT_FINITE(response.utility, "best_response: utility");
  response.iterations = scalars.iterations;
  response.kind = scalars.kind;
  OLEV_OBS_ONLY(g_obs_solves.add(1);
                g_obs_iterations.observe(response.iterations);)
  return response;
}

void BestResponseTally::flush() {
#if OLEV_OBS_ENABLED
  std::uint64_t solves = 0;
  for (std::uint64_t count : counts_) solves += count;
  if (solves == 0) return;
  g_obs_solves.add(solves);
  g_obs_iterations.merge(counts_, static_cast<double>(iteration_sum_));
#endif
  *this = BestResponseTally{};
}

BestResponseScalars best_response_into(const Satisfaction& u,
                                       const SectionCost& z,
                                       const SortedLoads& others_load,
                                       Kilowatts p_max,
                                       std::span<double> row) {
  if (!z.strictly_convex()) {
    util::hot_fail_logic_error(
        "best_response: the best-response characterization requires a "
        "strictly convex section cost (Lemma IV.2)");
  }
  const LevelCurve curve{z, others_load};
  return SegmentSolver<LevelCurve>{u, curve}.solve(p_max, row);
}

BestResponseScalars best_response_into(const Satisfaction& u,
                                       const PriceCurve& curve,
                                       Kilowatts p_max,
                                       std::span<double> row) {
  return SegmentSolver<PriceCurve>{u, curve}.solve(p_max, row);
}

}  // namespace olev::core
