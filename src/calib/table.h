// CalibrationTable — the fitted, versioned, content-hashed artifact that
// carries measured-cost corrections from profiles back into planning
// (DESIGN.md §13).
//
// The table is a per-device-class, per-op-kind map of multiplicative
// factors: factor 1.6 on ("V100...", h2d) means host->device transfers
// were measured 1.6x slower than the analytic model predicts, and every
// future plan for that device class should price them accordingly.
//
// fit() estimates the factors robustly: per cell it takes the median of
// the measured/predicted ratios, rejects outliers beyond a MAD band
// (one pathological sample — a page fault, a throttling event — must not
// poison the cell), re-medians the survivors, and clamps to a sane range.
//
// The table's deterministic JSON is content-hashed (util::digest128) and
// that hash joins the cache::RequestKey preamble: changing calibration
// changes every key, so stale plans can never be served as current —
// they become repair seeds instead (calib/repair.h).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

#include "src/calib/profile.h"
#include "src/sim/device.h"

namespace karma::calib {

/// Schema version stamped into every CalibrationTable JSON.
inline constexpr int kCalibrationJsonVersion = 1;

/// Wildcard device class: factors under "*" apply to any device that has
/// no exact-name cell for the kind.
inline constexpr const char* kAnyDeviceClass = "*";

/// fit() rejects ratios farther than this many (scaled) MADs from the
/// median. Rejection only engages with >= 4 samples in a cell — below
/// that the median IS the robust estimate.
inline constexpr double kFitOutlierBand = 4.0;
/// Fitted factors are clamped to [kFitMinFactor, kFitMaxFactor]: a
/// correction outside this range means the profile or the model is
/// broken, and a silently-huge factor would do more damage than a
/// clamped one.
inline constexpr double kFitMinFactor = 0.05;
inline constexpr double kFitMaxFactor = 20.0;

struct CalibrationTable {
  int version = kCalibrationJsonVersion;
  /// device class -> op-kind name (cost_kind_name) -> factor. std::map on
  /// both levels so to_json() is deterministic for free.
  std::map<std::string, std::map<std::string, double>> factors;
  /// Fit provenance (carried in the JSON, not consulted at apply time).
  std::int64_t sample_count = 0;      ///< samples the fit consumed
  std::int64_t rejected_outliers = 0; ///< samples the MAD band discarded

  bool empty() const { return factors.empty(); }

  /// Correction for (device_class, kind): exact cell first, then the "*"
  /// wildcard, else 1.0 (no correction).
  double factor(const std::string& device_class, CostKind kind) const;

  /// Deterministic JSON; equal tables produce byte-identical text.
  std::string to_json() const;

  /// Throws std::runtime_error on malformed input or unsupported version.
  static CalibrationTable from_json(std::string_view text);

  /// digest128 of to_json(), 32 hex chars — the identity that joins the
  /// cache::RequestKey preamble.
  std::string content_hash() const;

  friend bool operator==(const CalibrationTable&,
                         const CalibrationTable&) = default;
};

/// Fits a table from one or more profiles (samples are pooled by
/// (device_class, kind) across profiles). Cells with no valid sample
/// (predicted or measured <= 0) are omitted, so an empty profile set
/// yields an empty — identity — table.
CalibrationTable fit(const std::vector<ProfileArtifact>& profiles);

/// The overlay: returns `device` with its CostScale composed with the
/// table's factors for device.name. Planner, Opt-1/Opt-2 search, and
/// feasibility admission all see measured constants by planning against
/// the returned spec.
sim::DeviceSpec apply(const CalibrationTable& table,
                      const sim::DeviceSpec& device);

}  // namespace karma::calib
