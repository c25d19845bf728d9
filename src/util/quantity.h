// Zero-overhead compile-time dimensional analysis for the pricing core.
//
// The pricing policy moves quantities with incompatible units through what
// used to be a single `double` type: energy requests p_n (kWh), section
// capacities P_c (kW), payments Psi_n ($/h), LBMP ($/MWh), velocities (mph
// vs m/s) and intersection times (s).  units.h converts between them, but
// nothing stopped a caller from passing kW where kWh was expected.  This
// header is the compile-time half of that contract (the runtime half is
// audit.h): a Quantity type whose dimension -- integer exponents over the
// base dimensions energy, money, time and length -- is part of the type, so
// cross-dimension arithmetic fails to compile.
//
//   Dimension algebra (power and price are derived, not base, dimensions):
//     power    = energy * time^-1          kW  = kWh / h
//     velocity = length * time^-1          m/s, mph
//     price    = money  * energy^-1        $/kWh, $/MWh
//     pay rate = money  * time^-1          $/h  (the unit of Psi_n, Eq. 8-9)
//
// Each unit of a dimension is a distinct type carrying a constexpr scale to
// the dimension's coherent basis (kWh, $, h, m).  Multiplication multiplies
// scales, so `kw(3) * hours(2)` *is* a KilowattHours with raw value 6.0 --
// no runtime conversion ever happens inside arithmetic, which keeps results
// bit-identical to the raw-double code this replaces (the zero-overhead
// claim perfbench's solve_paper and core.update_ns measure).  Mixing units
// of the same dimension (Seconds + Hours, mph where m/s is expected) is also
// a compile error; conversions are explicit through the to_*() helpers
// below, which reuse the exact units.h formulas.
//
// Solver inner loops intentionally stay on the raw representation: spans of
// `double` (e.g. the other-load vector b, in kW) are the documented inner
// Rep of the solvers, unwrapped at the public API boundary via .value().
#pragma once

#include <concepts>

#include "util/units.h"

namespace olev::util {

/// Integer exponents over the base dimensions.  A structural type so a
/// value of it can be a template parameter.
struct Dim {
  int energy = 0;
  int money = 0;
  int time = 0;
  int length = 0;

  friend constexpr bool operator==(Dim, Dim) = default;
};

constexpr Dim dim_add(Dim a, Dim b) {
  return {a.energy + b.energy, a.money + b.money, a.time + b.time,
          a.length + b.length};
}
constexpr Dim dim_sub(Dim a, Dim b) {
  return {a.energy - b.energy, a.money - b.money, a.time - b.time,
          a.length - b.length};
}
constexpr bool dimensionless(Dim d) { return d == Dim{}; }

inline constexpr Dim kEnergyDim{1, 0, 0, 0};
inline constexpr Dim kMoneyDim{0, 1, 0, 0};
inline constexpr Dim kTimeDim{0, 0, 1, 0};
inline constexpr Dim kLengthDim{0, 0, 0, 1};
inline constexpr Dim kPowerDim{1, 0, -1, 0};
inline constexpr Dim kVelocityDim{0, 0, -1, 1};
inline constexpr Dim kPriceDim{-1, 1, 0, 0};
inline constexpr Dim kPayRateDim{0, 1, -1, 0};
inline constexpr Dim kTimePerLengthDim{0, 0, 1, -1};

/// A value of dimension D in a unit whose scale to the coherent basis
/// (kWh, $, h, m) is S.  Layout- and ABI-compatible with Rep: one member,
/// trivially copyable, every operation constexpr -- zero overhead.
template <Dim D, double S, class Rep = double>
class [[nodiscard]] Quantity {
  static_assert(S > 0.0, "unit scale must be positive");

 public:
  using rep = Rep;
  static constexpr Dim dim = D;
  static constexpr double scale = S;

  constexpr Quantity() = default;
  constexpr explicit Quantity(Rep value) : value_(value) {}

  /// The raw magnitude in *this unit* (not the coherent basis).
  constexpr Rep value() const { return value_; }

  constexpr Quantity operator+() const { return *this; }
  constexpr Quantity operator-() const { return Quantity{-value_}; }

  constexpr Quantity& operator+=(Quantity other) {
    value_ += other.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity other) {
    value_ -= other.value_;
    return *this;
  }
  constexpr Quantity& operator*=(Rep s) {
    value_ *= s;
    return *this;
  }
  constexpr Quantity& operator/=(Rep s) {
    value_ /= s;
    return *this;
  }

  // Same-unit-only comparison and additive arithmetic: comparing or adding
  // across dimensions (kW vs kWh) or across units of one dimension (s vs h)
  // does not compile.
  friend constexpr bool operator==(Quantity a, Quantity b) = default;
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.value_ + b.value_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.value_ - b.value_};
  }
  friend constexpr Quantity operator*(Quantity a, Rep s) {
    return Quantity{a.value_ * s};
  }
  friend constexpr Quantity operator*(Rep s, Quantity a) {
    return Quantity{s * a.value_};
  }
  friend constexpr Quantity operator/(Quantity a, Rep s) {
    return Quantity{a.value_ / s};
  }

 private:
  Rep value_{};
};

/// Dimension algebra: the product's dimension is the sum of exponents and
/// its scale the product of scales, so kW * h is exactly KilowattHours and
/// m/s * s is exactly Meters.  A product whose dimensions cancel at scale 1
/// collapses back to the representation type.
template <Dim D1, double S1, Dim D2, double S2, class Rep>
constexpr auto operator*(Quantity<D1, S1, Rep> a, Quantity<D2, S2, Rep> b) {
  constexpr Dim d = dim_add(D1, D2);
  if constexpr (dimensionless(d) && S1 * S2 == 1.0) {
    return a.value() * b.value();
  } else {
    return Quantity<d, S1 * S2, Rep>{a.value() * b.value()};
  }
}

template <Dim D1, double S1, Dim D2, double S2, class Rep>
constexpr auto operator/(Quantity<D1, S1, Rep> a, Quantity<D2, S2, Rep> b) {
  constexpr Dim d = dim_sub(D1, D2);
  if constexpr (dimensionless(d) && S1 / S2 == 1.0) {
    return a.value() / b.value();
  } else {
    return Quantity<d, S1 / S2, Rep>{a.value() / b.value()};
  }
}

template <Dim D, double S, class Rep>
constexpr auto operator/(Rep s, Quantity<D, S, Rep> q) {
  return Quantity<dim_sub(Dim{}, D), 1.0 / S, Rep>{s / q.value()};
}

// ---- the units the paper's quantities actually use ----
using KilowattHours = Quantity<kEnergyDim, 1.0>;
using MegawattHours = Quantity<kEnergyDim, 1000.0>;
using Joules = Quantity<kEnergyDim, 1.0 / 3.6e6>;

using Kilowatts = Quantity<kPowerDim, 1.0>;
using Megawatts = Quantity<kPowerDim, 1000.0>;
using Watts = Quantity<kPowerDim, 1e-3>;

using Hours = Quantity<kTimeDim, 1.0>;
using Minutes = Quantity<kTimeDim, 1.0 / 60.0>;
using Seconds = Quantity<kTimeDim, 1.0 / 3600.0>;

using Meters = Quantity<kLengthDim, 1.0>;
using Kilometers = Quantity<kLengthDim, 1000.0>;
using Miles = Quantity<kLengthDim, 1609.344>;

using MetersPerSecond = Quantity<kVelocityDim, 3600.0>;
using KilometersPerHour = Quantity<kVelocityDim, 1000.0>;
using MilesPerHour = Quantity<kVelocityDim, 1609.344>;

using Dollars = Quantity<kMoneyDim, 1.0>;
using DollarsPerKwh = Quantity<kPriceDim, 1.0>;
using DollarsPerMwh = Quantity<kPriceDim, 1.0 / 1000.0>;
using DollarsPerHour = Quantity<kPayRateDim, 1.0>;
using SecondsPerMeter = Quantity<kTimePerLengthDim, 1.0 / 3600.0>;

// ---- factories (work on runtime values; literals below need constants) ----
constexpr KilowattHours kwh(double v) { return KilowattHours{v}; }
constexpr MegawattHours mwh(double v) { return MegawattHours{v}; }
constexpr Joules joules(double v) { return Joules{v}; }
constexpr Kilowatts kw(double v) { return Kilowatts{v}; }
constexpr Megawatts megawatts(double v) { return Megawatts{v}; }
constexpr Megawatts mw(double v) { return Megawatts{v}; }  ///< repo `_mw` idiom
constexpr Hours hours(double v) { return Hours{v}; }
constexpr Minutes minutes(double v) { return Minutes{v}; }
constexpr Seconds seconds(double v) { return Seconds{v}; }
constexpr Meters meters(double v) { return Meters{v}; }
constexpr Kilometers kilometers(double v) { return Kilometers{v}; }
constexpr Miles miles(double v) { return Miles{v}; }
constexpr MetersPerSecond mps(double v) { return MetersPerSecond{v}; }
constexpr KilometersPerHour kmh(double v) { return KilometersPerHour{v}; }
constexpr MilesPerHour mph(double v) { return MilesPerHour{v}; }
constexpr Dollars dollars(double v) { return Dollars{v}; }
constexpr DollarsPerHour dollars_per_hour(double v) { return DollarsPerHour{v}; }
constexpr SecondsPerMeter seconds_per_meter(double v) {
  return SecondsPerMeter{v};
}

/// Price factories (the LBMP and the pricing policies quote in $/MWh; the
/// marginal payment Z' works in $/kWh).
struct Price {
  static constexpr DollarsPerKwh per_kwh(double v) { return DollarsPerKwh{v}; }
  static constexpr DollarsPerMwh per_mwh(double v) { return DollarsPerMwh{v}; }
};

// ---- explicit unit conversions ----
// Same formulas as units.h (bit-identical to the raw-double call sites this
// layer replaced).  Cross-unit arithmetic without one of these is a compile
// error by design.
constexpr MetersPerSecond to_mps(MilesPerHour v) {
  return MetersPerSecond{mph_to_mps(v.value())};
}
constexpr MetersPerSecond to_mps(KilometersPerHour v) {
  return MetersPerSecond{kmh_to_mps(v.value())};
}
constexpr MilesPerHour to_mph(MetersPerSecond v) {
  return MilesPerHour{mps_to_mph(v.value())};
}
constexpr KilometersPerHour to_kmh(MetersPerSecond v) {
  return KilometersPerHour{mps_to_kmh(v.value())};
}
constexpr Seconds to_seconds(Hours h) { return Seconds{hours_to_seconds(h.value())}; }
constexpr Seconds to_seconds(Minutes m) {
  return Seconds{minutes_to_seconds(m.value())};
}
constexpr Hours to_hours(Seconds s) { return Hours{seconds_to_hours(s.value())}; }
constexpr Minutes to_minutes(Seconds s) {
  return Minutes{seconds_to_minutes(s.value())};
}
constexpr KilowattHours to_kwh(Joules j) {
  return KilowattHours{joule_to_kwh(j.value())};
}
constexpr KilowattHours to_kwh(MegawattHours m) {
  return KilowattHours{m.value() * 1000.0};
}
constexpr Joules to_joules(KilowattHours e) {
  return Joules{kwh_to_joule(e.value())};
}
constexpr Kilowatts to_kw(Megawatts m) { return Kilowatts{mw_to_kw(m.value())}; }
constexpr Kilowatts to_kw(Watts w) { return Kilowatts{w_to_kw(w.value())}; }
constexpr Megawatts to_mw(Kilowatts k) { return Megawatts{kw_to_mw(k.value())}; }
constexpr Kilometers to_kilometers(Meters m) { return Kilometers{m.value() / 1e3}; }
constexpr Meters to_meters(Kilometers k) { return Meters{k.value() * 1e3}; }
constexpr DollarsPerKwh to_per_kwh(DollarsPerMwh p) {
  return DollarsPerKwh{p.value() / 1000.0};
}
constexpr DollarsPerMwh to_per_mwh(DollarsPerKwh p) {
  return DollarsPerMwh{p.value() * 1000.0};
}

/// Generic rescale within one dimension, for unit pairs without a named
/// converter.  Multiplies by the compile-time scale ratio, which may differ
/// from the hand-written units.h formulas by 1 ulp -- prefer the named
/// to_*() helpers on golden-sensitive paths.
template <class To, Dim D, double S, class Rep>
  requires(To::dim == D) && std::same_as<typename To::rep, Rep>
constexpr To quantity_cast(Quantity<D, S, Rep> q) {
  return To{q.value() * (S / To::scale)};
}

/// Eq. (1)-style energy bookkeeping: power sustained over a duration.
constexpr KilowattHours energy_from(Kilowatts p, Seconds dt) {
  return KilowattHours{kwh_from_kw(p.value(), dt.value())};
}

/// Ah * V -> kWh pack energy (Chevy Spark constants in Section V).
constexpr KilowattHours pack_energy(double ah, double volts) {
  return KilowattHours{ah_volts_to_kwh(ah, volts)};
}

inline namespace unit_literals {
constexpr KilowattHours operator""_kWh(long double v) {
  return KilowattHours{static_cast<double>(v)};
}
constexpr KilowattHours operator""_kWh(unsigned long long v) {
  return KilowattHours{static_cast<double>(v)};
}
constexpr MegawattHours operator""_MWh(long double v) {
  return MegawattHours{static_cast<double>(v)};
}
constexpr Kilowatts operator""_kW(long double v) {
  return Kilowatts{static_cast<double>(v)};
}
constexpr Kilowatts operator""_kW(unsigned long long v) {
  return Kilowatts{static_cast<double>(v)};
}
constexpr Megawatts operator""_MW(long double v) {
  return Megawatts{static_cast<double>(v)};
}
constexpr Megawatts operator""_MW(unsigned long long v) {
  return Megawatts{static_cast<double>(v)};
}
constexpr Hours operator""_h(long double v) { return Hours{static_cast<double>(v)}; }
constexpr Hours operator""_h(unsigned long long v) {
  return Hours{static_cast<double>(v)};
}
constexpr Seconds operator""_s(long double v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_s(unsigned long long v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Meters operator""_m(long double v) { return Meters{static_cast<double>(v)}; }
constexpr Meters operator""_m(unsigned long long v) {
  return Meters{static_cast<double>(v)};
}
constexpr Kilometers operator""_km(long double v) {
  return Kilometers{static_cast<double>(v)};
}
constexpr Kilometers operator""_km(unsigned long long v) {
  return Kilometers{static_cast<double>(v)};
}
constexpr MetersPerSecond operator""_mps(long double v) {
  return MetersPerSecond{static_cast<double>(v)};
}
constexpr MilesPerHour operator""_mph(long double v) {
  return MilesPerHour{static_cast<double>(v)};
}
constexpr MilesPerHour operator""_mph(unsigned long long v) {
  return MilesPerHour{static_cast<double>(v)};
}
constexpr Dollars operator""_usd(long double v) {
  return Dollars{static_cast<double>(v)};
}
}  // namespace unit_literals

}  // namespace olev::util
