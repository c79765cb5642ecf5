#include "cost/cost_model.h"

#include <algorithm>

namespace parqo {

std::string ToString(JoinMethod method) {
  switch (method) {
    case JoinMethod::kLocal: return "local";
    case JoinMethod::kBroadcast: return "broadcast";
    case JoinMethod::kRepartition: return "repartition";
  }
  return "?";
}

double CostModel::InputCost(JoinMethod method, double input_sum,
                            double input_max) const {
  double transfer = 0;
  switch (method) {
    case JoinMethod::kLocal:
      break;
    case JoinMethod::kBroadcast:
      transfer = params_.beta_broadcast * (input_sum - input_max) *
                 params_.num_nodes;
      break;
    case JoinMethod::kRepartition:
      transfer = params_.beta_repartition * input_sum;
      break;
  }
  return params_.alpha * input_sum + transfer;
}

double CostModel::ComputeCost(JoinMethod method, double output_card) const {
  switch (method) {
    case JoinMethod::kLocal:
      return params_.gamma_local * output_card;
    case JoinMethod::kBroadcast:
      return params_.gamma_broadcast * output_card;
    case JoinMethod::kRepartition:
      return params_.gamma_repartition * output_card;
  }
  return 0;
}

double CostModel::JoinOpCost(JoinMethod method,
                             std::span<const double> input_cards,
                             double output_card) const {
  double sum = 0;
  double max = 0;
  for (double c : input_cards) {
    sum += c;
    max = std::max(max, c);
  }
  return InputCost(method, sum, max) + ComputeCost(method, output_card);
}

}  // namespace parqo
