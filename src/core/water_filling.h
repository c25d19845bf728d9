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

/// Generalized water-filling for *heterogeneous* sections.
///
/// The paper assumes one Z for every section, which reduces the KKT
/// condition Z'(b_c + p_c) = rho to load equalization.  When sections have
/// different cost curves Z_c (e.g. different safety caps because they sit
/// on roads with different speed limits), the stationarity condition reads
///
///   Z_c'(b_c + p_{n,c}) = rho*   on sections with p_{n,c} > 0,
///   p_{n,c} = [ (Z_c')^{-1}(rho*) - b_c ]^+  otherwise,
///
/// and the unique rho* is found by bisection on the (strictly increasing)
/// total allocation.  With identical costs this reduces exactly to
/// water_fill (tested).
struct GeneralizedFillResult {
  double marginal = 0.0;        ///< rho*
  std::vector<double> row;
  int active_sections = 0;
};
class SectionCost;  // cost.h
/// Throws std::invalid_argument on a shape mismatch, an empty b, a null or
/// not strictly convex cost, or a negative total.  Cold convenience wrapper
/// around generalized_fill_into (the result row allocates).
[[nodiscard]] GeneralizedFillResult generalized_fill(
    std::span<const SectionCost* const> section_costs,
    std::span<const double> others_load, Kilowatts total,
    double tolerance = 1e-9);

/// Writes the allocation at `total` into `row` (length must equal b's) and
/// returns rho*; bit-identical to generalized_fill, which checks the costs
/// (every one non-null and strictly convex) before delegating here.  Hot:
/// never allocates.
OLEV_HOT double generalized_fill_into(
    std::span<const SectionCost* const> section_costs,
    std::span<const double> others_load, Kilowatts total,
    std::span<double> row, double tolerance = 1e-9);

}  // namespace olev::core
