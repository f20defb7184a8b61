#include "src/check/fusability.hpp"

#include <optional>

#include "src/exec/fused.hpp"

namespace mvd {

namespace {

FusePrediction to_prediction(const std::optional<FusedChain>& chain,
                             std::string refusal) {
  FusePrediction pred;
  pred.refusal = std::move(refusal);
  if (!chain.has_value()) return pred;
  pred.fusable = true;
  pred.source = chain->source;
  pred.stage_count = chain->stages.size();
  pred.select_count = chain->select_count;
  pred.out_schema = chain->out_schema;
  return pred;
}

}  // namespace

FusePrediction predict_fused_chain(
    const PlanPtr& plan,
    const std::map<const LogicalOp*, std::size_t>& use_count) {
  std::string refusal;
  const auto chain = detect_fused_chain(plan, use_count, &refusal);
  return to_prediction(chain, std::move(refusal));
}

std::vector<ChainSegment> predict_engine_segments(const PlanPtr& plan) {
  std::vector<ChainSegment> segments;
  for (FusedSegment& seg : fused_segments(plan)) {
    segments.push_back(
        {seg.head.get(), to_prediction(seg.chain, std::move(seg.refusal))});
  }
  return segments;
}

}  // namespace mvd
