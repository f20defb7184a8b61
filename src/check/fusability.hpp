// Static fusability report: the fused engine's own chain detection
// (detect_fused_chain / fused_segments in src/exec/fused), run on a plan
// without touching data and rendered in mvcheck's terms. The engine owns
// the acceptance rules; this layer only converts its verdicts, including
// the reason each refused segment runs interpreted.
//
// This header does not include src/exec, so the check layer's public
// headers stay independent of the executor; the conversions live in
// fusability.cpp.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/algebra/logical_plan.hpp"

namespace mvd {

/// Verdict for the chain rooted at one node. `fusable` is
/// detect_fused_chain(node).has_value(); the remaining fields summarize
/// the FusedChain it compiles.
struct FusePrediction {
  bool fusable = false;
  /// Why not — empty when fusable. For nodes that are not select/project
  /// roots this is the generic "not a select/project" refusal.
  std::string refusal;
  /// The chain's source node (executed by the normal engine).
  PlanPtr source;
  std::size_t stage_count = 0;   // chain nodes (selects + projects)
  std::size_t select_count = 0;  // fused select stages
  Schema out_schema;             // chain output schema
};

/// detect_fused_chain's verdict and refusal. `use_count` must come from
/// the *root* plan the engine would run (sharing is a property of the
/// whole DAG, not the subtree).
FusePrediction predict_fused_chain(
    const PlanPtr& plan,
    const std::map<const LogicalOp*, std::size_t>& use_count);

/// One fused segment the vectorized engine's fused walk forms.
struct ChainSegment {
  const LogicalOp* head = nullptr;
  FusePrediction prediction;
};

/// The fused engine's segmentation (fused_segments): every select/project
/// head its plan walk visits, with its verdict — the per-segment
/// fusability report.
std::vector<ChainSegment> predict_engine_segments(const PlanPtr& plan);

}  // namespace mvd
