// Lemma IV.1: the smart grid splits OLEV n's total request p_n across
// charging sections so that the loaded sections share a common level,
//
//   p_{n,c} = [lambda* - b_c]^+ ,   sum_c p_{n,c} = p_n ,
//
// where b_c is the other OLEVs' load on section c.  Because Z is identical
// across sections and strictly convex, equalizing post-allocation loads
// (b_c + p_{n,c} = lambda* on active sections) is exactly the KKT condition
// Z'(b_c + p_{n,c}) = rho*, i.e. classic water-filling.
//
// Two solvers are provided: an exact O(C log C) sort-based algorithm and a
// bisection solver on Y(lambda) = sum_c [lambda - b_c]^+ (the form the paper
// describes in Section IV-F).  They agree to ~1e-12 and cross-check each
// other in the tests.
#pragma once

#include <span>
#include <vector>

#include "util/hot.h"
#include "util/quantity.h"

namespace olev::core {

/// Scalar power requests and water levels are strongly typed (kW).  The
/// other-load vectors b stay spans of raw `double` *in kW*: they are the
/// solvers' inner representation (see util/quantity.h's preamble), and the
/// per-section rows in the results likewise.
using util::Kilowatts;

struct WaterFillResult {
  double level = 0.0;           ///< lambda*
  std::vector<double> row;      ///< p_{n,c} allocation, same length as b
  int active_sections = 0;      ///< |{c : p_{n,c} > 0}|
  int iterations = 0;           ///< bisection iterations (0 for exact)
};

/// Exact sort-based water-filling.  `others_load` is b; `total` is p_n >= 0.
/// One-shot form of SortedLoads(others_load).fill(total); throws
/// std::invalid_argument on an empty b or a negative total.
[[nodiscard]] WaterFillResult water_fill(std::span<const double> others_load,
                                         Kilowatts total);

/// Bisection on Y(lambda) - total = 0 (Section IV-F's method).
[[nodiscard]] WaterFillResult water_fill_bisect(std::span<const double> others_load,
                                                Kilowatts total,
                                                double tolerance = 1e-10);

/// Y(x) = sum_c [x - b_c]^+, the strictly increasing function of Eq. (24).
/// Hot (util/hot.h): pure fold over b, never allocates.
[[nodiscard]] OLEV_HOT double water_fill_volume(
    std::span<const double> others_load, Kilowatts level);

/// A pre-sorted view of an others-load vector b for repeated water-fill
/// queries against the same (or nearly the same) b.
///
/// A best response evaluates Psi_n'(p) = Z'(lambda*(p)) several times
/// against one fixed b; re-sorting b on every evaluation made each query
/// O(C log C).  SortedLoads sorts once, keeps fold-left prefix sums of the
/// sorted loads (exposed read-only, so the best response can walk the
/// breakpoints of lambda*(p) itself), and answers
///   - level_for(total) in O(log C)  (binary search over the active count),
///   - fill_into(...)   in O(C)      (one pass into a caller buffer, no
///                                    allocation).
/// water_fill() is the one-shot form of fill(), so the two are bit-identical
/// by construction (and property-tested).
///
/// Real-time discipline (util/hot.h): the query members and reassign are hot
/// roots of the static allocation wall.  Storage is sized by the cold members
/// (assign / reserve); reassign then runs against the reserved capacity
/// without touching the allocator.
class SortedLoads {
 public:
  SortedLoads() = default;
  explicit SortedLoads(std::span<const double> others_load);

  /// Re-seeds from a fresh b, growing storage as needed.  Cold: may
  /// allocate.  O(C log C).
  void assign(std::span<const double> others_load);
  /// Pre-sizes storage for up to `cap` sections without changing the
  /// logical contents.  Cold: may allocate.
  void reserve(std::size_t cap);
  /// Re-seeds from a fresh b within previously reserved storage.  Hot: never
  /// allocates; fails (cold throw) if b exceeds the reserved capacity.
  /// O(C log C), O(C) when b is already ascending.
  void reassign(std::span<const double> others_load);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// b in its original section order.
  std::span<const double> values() const { return {values_.data(), size_}; }
  /// b ascending: s_0 <= ... <= s_{C-1}.
  std::span<const double> sorted() const { return {sorted_.data(), size_}; }
  /// Fold-left prefix sums of sorted(): prefix()[k] = s_0 + ... + s_{k-1},
  /// so prefix()[0] = 0 and the span holds size() + 1 entries (none before
  /// the first assign or reserve).
  std::span<const double> prefix() const {
    return {prefix_.data(), prefix_.empty() ? 0 : size_ + 1};
  }

  /// lambda* for the given total; bit-identical to water_fill().level.
  [[nodiscard]] OLEV_HOT double level_for(Kilowatts total) const;
  /// Full allocation at `total`; bit-identical to water_fill().  Cold
  /// convenience wrapper around fill_into (the result row allocates).
  [[nodiscard]] WaterFillResult fill(Kilowatts total) const;
  /// Writes the allocation at `total` into `row` (length must equal size())
  /// and returns lambda*.  Bit-identical to fill().  Hot: never allocates.
  OLEV_HOT double fill_into(Kilowatts total, std::span<double> row,
                            int* active_sections = nullptr) const;

 private:
  // Physical capacity is values_.size() (== sorted_.size(), and
  // prefix_.size() == capacity + 1); the live prefix is [0, size_).
  std::vector<double> values_;  ///< original order
  std::vector<double> sorted_;  ///< ascending
  std::vector<double> prefix_;  ///< prefix_[k] = fold-left sum of sorted_[0..k)
  std::size_t size_ = 0;
};

class SectionCost;  // cost.h

/// Generalized water-filling for *heterogeneous* sections.
///
/// With one cost curve Z_c per section (e.g. different safety caps on roads
/// with different speed limits), the KKT condition no longer equalizes
/// loads but marginal prices:
///
///   p_{n,c} = [ (Z_c')^{-1}(rho*) - b_c ]^+ ,   sum_c p_{n,c} = p_n ,
///
/// so rho* is where the fill volume D(rho) = sum_c [(Z_c')^{-1}(rho) - b_c]^+
/// reaches p_n.  With V_c'' > 0, Z_c' is affine with a positive slope on each
/// side of section c's safety cap, so D is continuous and piecewise linear,
/// kinked at each entry price Z_c'(b_c) and, while b_c < cap_c, at the cap
/// price Z_c'(cap_c).  PriceCurve sorts those breakpoints and folds D across
/// them once; price_for(total) is then a binary search and one division, and
/// fill_into(...) one O(C) pass.  best_response_into walks the same
/// breakpoints (core/best_response.h).  With identical costs this reduces to
/// water_fill (property-tested).
///
/// Real-time discipline as SortedLoads: reserve is cold; reassign and the
/// queries are hot roots and never allocate.  The curve keeps a view of the
/// cost pointers it was built from, which must outlive it.
class PriceCurve {
 public:
  PriceCurve() = default;
  /// Cold: sizes storage for b, then reassign.
  PriceCurve(std::span<const SectionCost* const> section_costs,
             std::span<const double> others_load);

  /// Pre-sizes storage for up to `sections` sections.  Cold: may allocate.
  void reserve(std::size_t sections);
  /// Re-seeds within previously reserved storage.  Hot: never allocates;
  /// fails (cold throw) on an empty or mismatched shape, a b beyond the
  /// reserved capacity or a cost with V'' <= 0.  O(C log C).
  void reassign(std::span<const SectionCost* const> section_costs,
                std::span<const double> others_load);

  std::size_t sections() const { return sections_; }
  /// Breakpoints j = 0..size()-1, ascending in price: price(0) is
  /// min_c Z_c'(b_c) and total(0) = D(price(0)) = 0.
  std::size_t size() const { return size_; }
  double price(std::size_t j) const { return kinks_[j].price; }
  double total(std::size_t j) const { return kinks_[j].total; }

  /// rho* for the given total, exact on its linear piece of D.
  [[nodiscard]] OLEV_HOT double price_for(Kilowatts total) const;
  /// Writes the allocation at `total` into `row` (length must equal
  /// sections()) and returns rho*.  Hot: never allocates.
  OLEV_HOT double fill_into(Kilowatts total, std::span<double> row,
                            int* active_sections = nullptr) const;

 private:
  struct Kink {
    double price;
    double total;
    double slope;  ///< dD/drho above the kink
  };
  /// rho* at `total` on piece j (1 <= j <= size()), the linear piece of D
  /// that starts at breakpoint j - 1.
  double price_on(std::size_t j, double total) const {
    const Kink& from = kinks_[j - 1];
    return from.price + (total - from.total) / from.slope;
  }
  std::span<const SectionCost* const> costs_;
  std::vector<double> others_;  ///< b; capacity is others_.size()
  std::vector<Kink> kinks_;     ///< two per section of capacity
  std::size_t sections_ = 0;
  std::size_t size_ = 0;
};

struct GeneralizedFillResult {
  double marginal = 0.0;        ///< rho*
  std::vector<double> row;
  int active_sections = 0;
};
/// One-shot form of PriceCurve(section_costs, b).fill_into(total, row).
/// Throws std::invalid_argument on a shape mismatch, an empty b, a null cost,
/// a cost with V'' = 0 (D would jump at the cap price) or a negative total.
[[nodiscard]] GeneralizedFillResult generalized_fill(
    std::span<const SectionCost* const> section_costs,
    std::span<const double> others_load, Kilowatts total);

}  // namespace olev::core
