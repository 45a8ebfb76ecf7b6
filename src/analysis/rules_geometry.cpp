// GEOM-*: package geometry and quadrant-structure sanity.
#include "analysis/rules.h"
#include "route/design_rules.h"

namespace fp::rules {
namespace {

void geom_dimensions(const CheckContext& context, const CheckEmitter& emit) {
  const PackageGeometry& g = context.package->geometry();
  if (g.bump_space_um <= 0.0 || g.finger_width_um <= 0.0 ||
      g.finger_height_um <= 0.0 || g.finger_space_um <= 0.0 ||
      g.via_diameter_um <= 0.0 || g.ball_diameter_um <= 0.0) {
    emit.emit("package geometry has a non-positive dimension");
  }
}

void geom_via_pitch(const CheckContext& context, const CheckEmitter& emit) {
  const PackageGeometry& g = context.package->geometry();
  if (g.via_diameter_um >= g.bump_space_um && g.bump_space_um > 0.0) {
    emit.emit("via diameter >= bump pitch: no routing gap exists between "
              "vias");
  }
}

void geom_ball_pitch(const CheckContext& context, const CheckEmitter& emit) {
  const PackageGeometry& g = context.package->geometry();
  if (g.ball_diameter_um >= g.bump_space_um && g.bump_space_um > 0.0) {
    emit.emit("bump ball diameter >= bump pitch: balls would touch");
  }
}

void geom_finger_pitch(const CheckContext& context, const CheckEmitter& emit) {
  const PackageGeometry& g = context.package->geometry();
  if (g.finger_pitch_um() > g.bump_space_um && g.bump_space_um > 0.0) {
    emit.emit("finger pitch exceeds bump pitch: the finger row is wider "
              "than the bump array it feeds");
  }
}

void geom_row_shrink(const CheckContext& context, const CheckEmitter& emit) {
  for (const Quadrant& q : context.package->quadrants()) {
    for (int r = 1; r < q.row_count(); ++r) {
      if (q.bumps_in_row(r) > q.bumps_in_row(r - 1)) {
        emit.emit("quadrant '" + q.name() + "': row " + std::to_string(r) +
                  " is wider than the row outside it (triangular quadrants "
                  "shrink toward the die)");
        break;
      }
    }
  }
}

void geom_row_parity(const CheckContext& context, const CheckEmitter& emit) {
  for (const Quadrant& q : context.package->quadrants()) {
    bool mixed = false;
    for (int r = 1; r < q.row_count(); ++r) {
      if ((q.bumps_in_row(r) & 1) != (q.bumps_in_row(0) & 1)) mixed = true;
    }
    if (mixed) {
      emit.emit("quadrant '" + q.name() + "': bump rows mix parities, so "
                "the via lattices of adjacent rows are staggered (cross-row "
                "via planning unavailable)");
    }
  }
}

void geom_gap_capacity(const CheckContext& context, const CheckEmitter& emit) {
  const PackageGeometry& g = context.package->geometry();
  if (g.bump_space_um <= 0.0) return;  // GEOM-001 already fired
  for (const Quadrant& q : context.package->quadrants()) {
    if (gap_capacity(q, context.drc) == 0) {
      emit.emit("quadrant '" + q.name() + "': a via-slot gap fits zero "
                "wires at the configured wire pitch -- every crossing net "
                "is a DRC violation");
      return;
    }
  }
}

constexpr CheckRule kRules[] = {
    {"GEOM-001", CheckStage::Package, check_inputs::kGeometry,
     CheckSeverity::Error,
     "every package geometry dimension is positive", geom_dimensions},
    {"GEOM-002", CheckStage::Package, check_inputs::kGeometry,
     CheckSeverity::Error,
     "via diameter leaves a routing gap inside the bump pitch",
     geom_via_pitch},
    {"GEOM-003", CheckStage::Package, check_inputs::kGeometry,
     CheckSeverity::Warning,
     "bump ball diameter fits inside the bump pitch", geom_ball_pitch},
    {"GEOM-004", CheckStage::Package, check_inputs::kGeometry,
     CheckSeverity::Warning,
     "finger pitch does not exceed bump pitch", geom_finger_pitch},
    {"GEOM-005", CheckStage::Package, check_inputs::kGeometry,
     CheckSeverity::Warning,
     "quadrant bump rows shrink toward the die", geom_row_shrink},
    {"GEOM-006", CheckStage::Package, check_inputs::kGeometry,
     CheckSeverity::Warning,
     "bump rows of one quadrant share a parity", geom_row_parity},
    {"GEOM-007", CheckStage::Package,
     check_inputs::kGeometry | check_inputs::kDrc, CheckSeverity::Error,
     "every via-slot gap fits at least one wire at the DRC wire pitch",
     geom_gap_capacity},
};

}  // namespace

std::span<const CheckRule> geometry() { return kRules; }

}  // namespace fp::rules
