#include "core/best_response.h"

#include <algorithm>
#include <cmath>

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
OLEV_RT_VCALL_OK("olev::core::(anonymous namespace)::interior_root",
                 "Satisfaction/SectionCost dispatch; every override is a "
                 "registered hot root");
OLEV_RT_VCALL_OK("olev::core::utility_derivative",
                 "Satisfaction::derivative dispatch; every override is a "
                 "registered hot root");

#if OLEV_OBS_ENABLED
namespace {
// Eagerly-bound obs handles: namespace-scope dynamic initialization runs at
// load time, so the hot path carries no __cxa_guard_acquire or registry
// lock (a function-local static would put both on it).
obs::Counter& g_obs_solves =
    obs::Registry::instance().counter("core.best_response.solves");
// Corner solutions report 0 iterations; interior ones their F' evaluations.
obs::Histogram& g_obs_iterations = obs::Registry::instance().histogram(
    "core.best_response.iterations", {0, 4, 8, 12, 16, 24, 32, 48});
}  // namespace
#endif

namespace {

// The interior solve stops once |1 - Z'(lambda(p)) / U'(p)| <= kTolerance
// and the last secant step moved p by at most kTolerance * max(1, p), or
// after kMaxEvaluations F' evaluations.
constexpr double kTolerance = 1e-9;
constexpr int kMaxEvaluations = 200;

// One end of the root bracket: a total p, F'(p) = U'(p) - Z'(lambda(p)) and
// the ratio form g(p) = 1 - Z'(lambda(p)) / U'(p).  g has F''s sign only
// where U'(p) > 0 (`ratio`); past a satiation point U' <= 0, and there
// F' < 0 since Z' >= 0.
struct BracketEnd {
  double p = 0.0;
  double f = 0.0;
  double g = 0.0;
  bool ratio = false;
};

BracketEnd bracket_end(double p, double u_prime, double z_prime) {
  return {p, u_prime - z_prime, u_prime > 0.0 ? 1.0 - z_prime / u_prime : 0.0,
          u_prime > 0.0};
}

// The interior root of F' given F'(lo.p = 0) > 0 > F'(cap.p = p_max).
// Adds its F' evaluations to `evaluations`.
double interior_root(const Satisfaction& u, const SectionCost& z,
                     const SortedLoads& others_load, BracketEnd lo,
                     const BracketEnd cap, int& evaluations) {
  const std::span<const double> sorted = others_load.sorted();
  const std::span<const double> prefix = others_load.prefix();

  // Segment search over the breakpoints q_k = k * s_k - S_k.  Invariant:
  // F'(q_{lo_k}) > 0 (with q_0 = 0), and at hi_k either F'(q_{hi_k}) <= 0 or
  // q_{hi_k} >= p_max (hi_k = C stands for p_max).  It ends with
  // hi_k = lo_k + 1, so the root lies on segment hi_k, between lo.p and hi.p.
  BracketEnd hi = cap;
  std::size_t lo_k = 0;
  std::size_t hi_k = sorted.size();
  while (hi_k - lo_k > 1) {
    const std::size_t k = lo_k + (hi_k - lo_k) / 2;
    const double q = static_cast<double>(k) * sorted[k] - prefix[k];
    if (q >= cap.p) {
      hi_k = k;
      hi = cap;
      continue;
    }
    // q_k <= 0 only when s_0..s_k are all equal: the level at p = 0 is s_k
    // already, so F'(q_k) = F'(0) > 0 and the lower end stays at p = 0.
    if (q <= 0.0) {
      lo_k = k;
      continue;
    }
    ++evaluations;
    const double u_prime = u.derivative(q);
    const double z_prime = z.derivative(sorted[k]);
    if (u_prime - z_prime > 0.0) {
      lo_k = k;
      lo = bracket_end(q, u_prime, z_prime);
    } else {
      hi_k = k;
      hi = bracket_end(q, u_prime, z_prime);
    }
  }

  // On segment k the level is (p + S_k) / k -- level_for's own arithmetic.
  const double active = static_cast<double>(hi_k);
  const double loaded = prefix[hi_k];
  // Z' has one kink of its own, where the overload cost A switches on at
  // the safety cap (Eq. 7).  Splitting the segment there leaves the secant
  // one smooth piece, so it never has to creep across the kink.
  const double hinge = active * z.cap_kw() - loaded;
  if (hinge > lo.p && hinge < hi.p) {
    ++evaluations;
    const double u_prime = u.derivative(hinge);
    const double z_prime = z.derivative(z.cap_kw());
    if (u_prime - z_prime > 0.0) {
      lo = bracket_end(hinge, u_prime, z_prime);
    } else {
      hi = bracket_end(hinge, u_prime, z_prime);
    }
  }

  // Illinois: regula falsi, halving the weight of an end kept twice in a
  // row so neither end stalls.  It interpolates g, or F' itself while hi
  // lies past a satiation point.  Converged once |g| <= kTolerance and the
  // secant through the last two trial points moves p by at most
  // kTolerance * max(1, p); p* is that secant step's landing point.
  double lo_weight = 1.0;
  double hi_weight = 1.0;
  enum class Moved { kNone, kLo, kHi } moved = Moved::kNone;
  BracketEnd last;
  while (evaluations < kMaxEvaluations) {
    const double y_lo = lo_weight * (hi.ratio ? lo.g : lo.f);
    const double y_hi = hi_weight * (hi.ratio ? hi.g : hi.f);
    const double p = hi.p - y_hi * (hi.p - lo.p) / (y_hi - y_lo);
    if (!(p > lo.p && p < hi.p)) break;  // no double left inside the bracket
    ++evaluations;
    const double u_prime = u.derivative(p);
    const BracketEnd at =
        bracket_end(p, u_prime, z.derivative((p + loaded) / active));
    if (at.f == 0.0) return p;
    if (at.ratio && last.ratio && std::abs(at.g) <= kTolerance) {
      const double step = at.g * (at.p - last.p) / (at.g - last.g);
      if (std::abs(step) <= kTolerance * std::max(1.0, p)) {
        return std::clamp(p - step, lo.p, hi.p);
      }
    }
    last = at;
    if (at.f > 0.0) {
      lo = at;
      lo_weight = 1.0;
      if (moved == Moved::kLo) hi_weight *= 0.5;
      moved = Moved::kLo;
    } else {
      hi = at;
      hi_weight = 1.0;
      if (moved == Moved::kHi) lo_weight *= 0.5;
      moved = Moved::kHi;
    }
  }
  return -hi.f < lo.f ? hi.p : lo.p;
}

}  // namespace

double utility_derivative(const Satisfaction& u, const SectionCost& z,
                          std::span<const double> others_load, Kilowatts p) {
  return u.derivative(p.value()) - payment_derivative(z, others_load, p);
}

double utility_derivative(const Satisfaction& u, const SectionCost& z,
                          const SortedLoads& others_load, Kilowatts p) {
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
  return response;
}

BestResponseScalars best_response_into(const Satisfaction& u,
                                       const SectionCost& z,
                                       const SortedLoads& others_load,
                                       Kilowatts p_max_kw,
                                       std::span<double> row) {
  const double p_max = p_max_kw.value();
  if (p_max < 0.0) {
    util::hot_fail_invalid_argument("best_response: negative p_max");
  }
  OLEV_AUDIT_FINITE(p_max, "best_response: p_max");
  if (!z.strictly_convex()) {
    util::hot_fail_logic_error(
        "best_response: the best-response characterization requires a "
        "strictly convex section cost (Lemma IV.2)");
  }

  BestResponseScalars result;

  // F'(p) = U'(p) - Z'(lambda*(p)), as utility_derivative computes it.
  const double u_zero = u.derivative(0.0);
  const double z_zero = z.derivative(others_load.level_for(Kilowatts{}));
  if (u_zero - z_zero <= 0.0 || p_max == 0.0) {
    // Marginal price at zero already exceeds marginal satisfaction.
    result.p_star = 0.0;
    result.kind = BestResponse::Case::kCornerZero;
  } else {
    const double u_cap = u.derivative(p_max);
    const double z_cap = z.derivative(others_load.level_for(p_max_kw));
    if (u_cap - z_cap >= 0.0) {
      result.p_star = p_max;
      result.kind = BestResponse::Case::kCornerCap;
    } else {
      result.p_star = interior_root(
          u, z, others_load, bracket_end(0.0, u_zero, z_zero),
          bracket_end(p_max, u_cap, z_cap), result.iterations);
      result.kind = BestResponse::Case::kInterior;
    }
  }

  result.level = others_load.fill_into(Kilowatts{result.p_star}, row,
                                       &result.active_sections);
  OLEV_OBS_ONLY(g_obs_solves.add(1); g_obs_iterations.observe(
      static_cast<double>(result.iterations));)
  OLEV_AUDIT_FINITE(result.p_star, "best_response: p_star");
  return result;
}

}  // namespace olev::core
